(* Coverage-triaged corpus, AFL-style: a program joins the corpus when its
   execution produced an (edge, hit-bucket) pair never seen before.  When
   schedule fuzzing is on, the schedule seed the program ran under is part
   of the entry: coverage reached only under a particular interleaving is
   replayed and mutated under that interleaving.  Likewise for the rehost
   seed (MMIO response stream + interrupt-injection plan) when the
   model-free rehosting layer is armed. *)

type entry = { e_prog : Prog.t; e_sched : int option; e_rehost : int option }

type t = {
  seen : (int * int, unit) Hashtbl.t; (* (edge index, bucket) *)
  mutable entries : entry list;
  mutable total_pairs : int;
}

let create () = { seen = Hashtbl.create 4096; entries = []; total_pairs = 0 }

(** Record an execution's coverage signature; if it contributed new
    coverage, add the program (with the schedule and rehost seeds it ran
    under) and return [true]. *)
let consider t prog ?sched ?rehost (signature : (int * int) list) =
  let fresh =
    List.filter (fun pair -> not (Hashtbl.mem t.seen pair)) signature
  in
  if fresh = [] then false
  else begin
    List.iter (fun pair -> Hashtbl.replace t.seen pair ()) fresh;
    t.total_pairs <- t.total_pairs + List.length fresh;
    t.entries <-
      { e_prog = prog; e_sched = sched; e_rehost = rehost } :: t.entries;
    true
  end

let size t = List.length t.entries
let coverage t = t.total_pairs

let pick rng t =
  match t.entries with
  | [] -> None
  | es ->
      let e = Rng.pick rng es in
      Some (e.e_prog, e.e_sched, e.e_rehost)

(** All programs, oldest first (the "merged corpus" replayed by the
    overhead experiment). *)
let programs t = List.rev_map (fun e -> e.e_prog) t.entries
