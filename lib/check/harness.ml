(* Campaign driver: generate seeded programs per arch flavor, push each
   through every oracle, and summarize.  Fully deterministic -- the
   campaign seed derives every program seed, so any reported divergence is
   reproducible from (arch, seed) alone. *)

open Embsan_isa
open Embsan_emu

type config = {
  seed : int;
  execs : int; (* programs per arch flavor *)
  sync : int;
  max_insns : int;
  archs : Arch.t list;
  oracles : string list; (* oracle-name filter; [] = all *)
}

(* A campaign stops collecting after this many divergences. *)
let max_divergences = 5

let default_config =
  {
    seed = 1;
    execs = 1000;
    sync = 512;
    max_insns = 4096;
    archs = Arch.all;
    oracles = [];
  }

(* The engine oracles plus the cross-backend mode-agreement check. *)
let all_oracles = Oracle.all @ [ ("mode-agreement", Modes.oracle) ]

(** The oracle list [config] selects; raises on an unknown name. *)
let selected_oracles config =
  match config.oracles with
  | [] -> all_oracles
  | names ->
      List.map
        (fun n ->
          match List.assoc_opt n all_oracles with
          | Some o -> (n, o)
          | None ->
              invalid_arg
                (Printf.sprintf "unknown oracle %S (known: %s)" n
                   (String.concat ", " (List.map fst all_oracles))))
        names

type summary = {
  s_programs : int;
  s_runs : int; (* oracle pair-runs (2 machine executions each) *)
  s_stops : (string * int) list; (* reference-run stop histogram *)
  s_divergences : Oracle.divergence list;
}

let stop_class : Machine.stop -> string = function
  | Halted _ -> "halted"
  | Fault _ -> "fault"
  | Unhandled_trap _ -> "unhandled-trap"
  | Decode_fault _ -> "decode-fault"
  | Budget_exhausted -> "budget-exhausted"
  | Deadlock -> "deadlock"

let program_seed config ~arch ~index =
  (* splitmix-flavored mixing keeps per-program seeds spread out while
     staying a pure function of the campaign seed *)
  let h = config.seed + (index * 0x9E37_79B9) + (Arch.to_byte arch * 0x85EB_CA6B) in
  let h = h lxor (h lsr 15) in
  (h * 0x2C1B_3C6D) land 0x3FFF_FFFF

let run config =
  let cfg = { Oracle.sync = config.sync; max_insns = config.max_insns } in
  let oracles = selected_oracles config in
  (* one histogram entry per program, from the first selected oracle's
     reference run *)
  let histo_oracle = match oracles with (n, _) :: _ -> n | [] -> "" in
  let stops = Hashtbl.create 8 in
  let bump cls = Hashtbl.replace stops cls (1 + Option.value ~default:0 (Hashtbl.find_opt stops cls)) in
  let programs = ref 0 and runs = ref 0 in
  let divergences = ref [] and n_div = ref 0 in
  let capped () = !n_div >= max_divergences in
  List.iter
    (fun arch ->
      for index = 0 to config.execs - 1 do
        if not (capped ()) then begin
          let p = Progen.generate ~arch ~seed:(program_seed config ~arch ~index) in
          incr programs;
          List.iter
            (fun (name, oracle) ->
              if not (capped ()) then begin
                let d, stop = oracle ~cfg p in
                incr runs;
                if name = histo_oracle then bump (stop_class stop);
                match d with
                | None -> ()
                | Some d ->
                    divergences := d :: !divergences;
                    incr n_div
              end)
            oracles
        end
      done)
    config.archs;
  {
    s_programs = !programs;
    s_runs = !runs;
    s_stops =
      List.sort (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) stops []);
    s_divergences = List.rev !divergences;
  }

let pp_summary fmt s =
  Fmt.pf fmt "@[<v>differential check: %d programs, %d oracle pair-runs@ stops: %a@ %a@]"
    s.s_programs s.s_runs
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string int))
    s.s_stops
    (fun fmt -> function
      | [] -> Fmt.pf fmt "no divergences"
      | ds ->
          Fmt.pf fmt "%d DIVERGENCES:@ %a" (List.length ds)
            Fmt.(list ~sep:(any "@ @ ") Oracle.pp_divergence)
            ds)
    s.s_divergences
