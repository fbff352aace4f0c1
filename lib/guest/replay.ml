(* Reproducer replay harness: boot a firmware under a sanitizer
   configuration, execute a syscall sequence through the mailbox executor
   and report what was detected.  Used by the Table-2 bench, by campaign
   crash triage and by the test suite. *)

open Embsan_emu
module Embsan = Embsan_core.Embsan
module Report = Embsan_core.Report
module Runtime = Embsan_core.Runtime
module Native = Embsan_core.Native
module Codegen = Embsan_minic.Codegen
module Driver = Embsan_minic.Driver

type outcome = {
  o_reports : Report.t list;
  o_crash : Machine.stop option; (* architectural stop during the replay *)
  o_cost : int; (* modeled cycles consumed *)
  o_insns : int;
}

let boot_budget = 30_000_000
let call_budget = 10_000_000

(* Sanitizer configurations a firmware can be run under. *)
type config =
  | No_sanitizer (* plain run, baseline for overhead *)
  | Embsan_cfg of Embsan.sanitizers (* EmbSan in the firmware's Table-1 mode *)
  | Embsan_mode of Embsan.sanitizers * [ `C | `D ] (* forced mode *)
  | Native_kasan (* in-guest KASAN baseline build *)
  | Native_kcsan (* in-guest KCSAN baseline build *)

let san_name : Embsan.sanitizers -> string = function
  | [] -> "none"
  | names -> String.concat "+" names

let config_name = function
  | No_sanitizer -> "none"
  | Embsan_cfg s -> Printf.sprintf "EmbSan(%s)" (san_name s)
  | Embsan_mode (s, `C) -> Printf.sprintf "EmbSan-C(%s)" (san_name s)
  | Embsan_mode (s, `D) -> Printf.sprintf "EmbSan-D(%s)" (san_name s)
  | Native_kasan -> "native KASAN"
  | Native_kcsan -> "native KCSAN"

(* A booted instance ready to serve syscalls.  [rt] is the attached EmbSan
   runtime when one exists (EmbSan configs), so the snapshot service can
   checkpoint its host-side sanitizer state alongside the machine. *)
type instance = {
  machine : Machine.t;
  sink : Report.sink;
  fw : Firmware_db.firmware;
  rt : Runtime.t option;
}

exception Boot_failed of string

let bootf fmt = Format.kasprintf (fun s -> raise (Boot_failed s)) fmt

let run_to_ready machine =
  match Machine.run_until_ready machine ~max_insns:boot_budget with
  | None -> ()
  | Some stop -> bootf "firmware did not reach ready: %a" Machine.pp_stop stop

(* Sessions are memoized per (firmware, sanitizers): the probing phase is
   per-firmware work, not per-replay work.  The cache is process-global
   and the orchestrator's worker domains all boot through here, so the
   lookup-or-build is one critical section: the first domain to ask for a
   key runs the probing phase, the others block and share the result.  A
   session is immutable after [prepare] (spec, platform, image), so
   sharing it read-only across domains is safe — each worker builds its
   own machine and runtime from it. *)
let session_cache : (string, Embsan.session) Hashtbl.t = Hashtbl.create 16
let session_lock = Mutex.create ()

let session_for ?(kcov = false) ?forced_mode (fw : Firmware_db.firmware)
    sanitizers =
  let key =
    Printf.sprintf "%s/%s/%b/%s" fw.fw_name (san_name sanitizers) kcov
      (match forced_mode with Some `C -> "C" | Some `D -> "D" | None -> "-")
  in
  Mutex.protect session_lock (fun () ->
      match Hashtbl.find_opt session_cache key with
      | Some s -> s
      | None ->
          let firmware =
            match forced_mode with
            | None -> Firmware_db.embsan_firmware ~kcov fw
            | Some mode -> (
                match Firmware_db.embsan_firmware_mode ~kcov fw mode with
                | Some f -> f
                | None ->
                    bootf "%s cannot run in that mode (closed source)"
                      fw.fw_name)
          in
          let s = Embsan.prepare ~sanitizers ~firmware () in
          Hashtbl.add session_cache key s;
          s)

let native_mode = function
  | Native_kasan -> Codegen.Inline_kasan
  | Native_kcsan -> Codegen.Inline_kcsan
  | No_sanitizer | Embsan_cfg _ | Embsan_mode _ -> Codegen.Plain

(** Boot an instance of [fw] under [config]. *)
let boot ?(harts = 2) ?(kcov = false) (fw : Firmware_db.firmware) (config : config) =
  let sink = Report.create_sink () in
  (match config with
  | Embsan_cfg _ | Embsan_mode _ ->
      let sanitizers, forced_mode =
        match config with
        | Embsan_cfg s -> (s, None)
        | Embsan_mode (s, m) -> (s, Some m)
        | No_sanitizer | Native_kasan | Native_kcsan -> assert false
      in
      let session = session_for ~kcov ?forced_mode fw sanitizers in
      let machine = Embsan.make_machine ~harts session in
      (* guest locking glue may emit san_sync edges; when no concurrency
         sanitizer subscribes (attach replaces this handler if one does),
         they must be inert, not Unhandled_trap *)
      Machine.set_trap_handler machine Hypercall.san_sync (fun _ _ -> ());
      let rt = Embsan.attach ~sink session machine in
      run_to_ready machine;
      { machine; sink; fw; rt = Some rt }
  | No_sanitizer | Native_kasan | Native_kcsan ->
      let image = fw.fw_build ~kcov (native_mode config) in
      let machine = Machine.create ~harts ~arch:image.Embsan_isa.Image.arch () in
      Machine.load_image machine image;
      Machine.boot machine;
      Services.install machine;
      (* sanitizer callouts may be present in some builds; native reports
         flow through the collector *)
      let symbolize pc =
        Option.map
          (fun (s : Embsan_isa.Image.symbol) -> s.name)
          (Embsan_isa.Image.symbol_at image pc)
      in
      let cfg = Driver.default_config in
      ignore
        (Native.attach
           ~shadow_offset:(Driver.shadow_offset cfg)
           ~sink ~symbolize machine);
      (* plain/native builds still contain no-op or in-guest san glue; any
         stray trap numbers must not kill the machine *)
      List.iter
        (fun n -> Machine.set_trap_handler machine n (fun _ _ -> ()))
        [ 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27; 30 ];
      run_to_ready machine;
      { machine; sink; fw; rt = None })

(** Execute one syscall; returns [Some stop] if the machine crashed. *)
let syscall inst ~nr ~args =
  Devices.mailbox_push inst.machine.mailbox ~nr ~args;
  Machine.run_until_mailbox_idle inst.machine ~max_insns:call_budget

(** Replay a call sequence, stopping at the first architectural crash. *)
let replay inst (calls : (int * int array) list) =
  let cost0 = Machine.total_cost inst.machine in
  let insns0 = inst.machine.total_insns in
  let rec go = function
    | [] -> None
    | (nr, args) :: rest -> (
        match syscall inst ~nr ~args with
        | None -> go rest
        | Some stop -> Some stop)
  in
  let crash = go calls in
  {
    o_reports = Report.unique_reports inst.sink;
    o_crash = crash;
    o_cost = Machine.total_cost inst.machine - cost0;
    o_insns = inst.machine.total_insns - insns0;
  }

(** One-shot: boot, replay, return the outcome. *)
let run_reproducer fw config calls =
  let inst = boot fw config in
  replay inst calls

(** Did the outcome detect [bug]?  A report whose location matches the
    bug's symbol, or - for null bugs - an architectural null fault. *)
let detects (bug : Defs.bug) (o : outcome) =
  let by_report =
    List.exists
      (fun (r : Report.t) ->
        Defs.kind_matches bug r.kind
        &&
        match r.location with
        | Some l -> List.mem l (Defs.bug_symbols bug)
        | None -> true (* stripped firmware: match on kind alone *))
      o.o_reports
  in
  let by_crash =
    match (bug.b_class, o.o_crash) with
    | Defs.Null_bug, Some (Machine.Fault (_, reason)) ->
        String.equal reason "null pointer dereference"
    | _ -> false
  in
  by_report || by_crash
