(* embsan: command-line front end -- firmware inventory, probing, single
   syscalls and bug reproducers under EmbSan, fuzzing campaigns, traces,
   disassembly and the differential engine check.  `embsan --help` lists
   the commands and `embsan COMMAND --help` each command's flags, both
   rendered from the [Arg.info] declarations below. *)

open Cmdliner
open Embsan_guest
module Embsan = Embsan_core.Embsan
module Report = Embsan_core.Report
module Campaign = Embsan_fuzz.Campaign

let fw_arg =
  let parse s =
    Option.to_result (Firmware_db.find s)
      ~none:
        (`Msg
          (Fmt.str "unknown firmware %S; try `embsan list` for the inventory"
             s))
  in
  let print fmt fw = Fmt.string fmt fw.Firmware_db.fw_name in
  Arg.(
    required
    & pos 0 (some (conv (parse, print))) None
    & info [] ~docv:"FIRMWARE" ~doc:"Firmware name from `embsan list`.")

(* --- list ------------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Fmt.pr "%-22s %-15s %-8s %-9s %-7s %-10s %s@." "Firmware" "Base OS" "Arch"
      "Inst." "Source" "Fuzzer" "Bugs";
    List.iter
      (fun fw ->
        Fmt.pr "%a %d@." Firmware_db.pp_table1_row fw
          (List.length fw.Firmware_db.fw_bugs))
      (Firmware_db.all @ Firmware_db.suites)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available firmware images")
    Term.(const run $ const ())

(* --- probe ------------------------------------------------------------------ *)

let probe_cmd =
  let run fw =
    let session =
      Embsan.prepare ~sanitizers:Embsan.all_sanitizers
        ~firmware:(Firmware_db.embsan_firmware fw)
        ()
    in
    Fmt.pr "# pre-testing probing phase for %s (%s)@." fw.Firmware_db.fw_name
      (Embsan_core.Runtime.mode_name session.s_mode);
    Fmt.pr "# dry run reached ready after %d instructions@."
      session.s_platform.p_ready_insns;
    List.iter (Fmt.pr "# note: %s@.") session.s_platform.p_notes;
    Fmt.pr "%s@." (Embsan.spec_text session)
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:"Run the probing phase and print the resulting DSL specification")
    Term.(const run $ fw_arg)

(* --- run -------------------------------------------------------------------- *)

let run_cmd =
  let nr =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"NR" ~doc:"Syscall number.")
  in
  let args =
    Arg.(value & pos_right 1 int [] & info [] ~docv:"ARGS" ~doc:"Arguments.")
  in
  let run fw nr args =
    let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.all_sanitizers) in
    let o = Replay.replay inst [ (nr, Array.of_list args) ] in
    (match Embsan_emu.Devices.mailbox_completions inst.machine.mailbox with
    | { ret; _ } :: _ -> Fmt.pr "syscall %d -> %d (0x%x)@." nr ret ret
    | [] -> Fmt.pr "syscall %d did not complete@." nr);
    (match o.o_crash with
    | Some s -> Fmt.pr "machine stopped: %a@." Embsan_emu.Machine.pp_stop s
    | None -> ());
    List.iter (fun r -> Fmt.pr "%a@." Report.pp r) o.o_reports;
    Fmt.pr "(%d instructions, %d modeled cycles)@." o.o_insns o.o_cost
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute one syscall on a firmware under EmbSan")
    Term.(const run $ fw_arg $ nr $ args)

(* --- repro ------------------------------------------------------------------ *)

let repro_cmd =
  let bug_id =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"BUG-ID" ~doc:"Bug id, e.g. linux/nf_setrule.")
  in
  let ftrace =
    Arg.(
      value & flag
      & info [ "ftrace" ]
          ~doc:
            "Also attach the happens-before race detector.  Required to \
             reproduce race-suite bugs: sampled KCSAN misses them by design.")
  in
  let sched_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "sched-seed" ] ~docv:"N"
          ~doc:
            "Arm the interleaving scheduler with this seed during the \
             replay (schedule-dependent races need the seed a campaign \
             reported alongside the reproducer).")
  in
  let rehost_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "rehost-seed" ] ~docv:"N"
          ~doc:
            "Arm the model-free MMIO rehosting layer with this seed during \
             the replay (rehosted firmware needs the seed a campaign \
             reported alongside the reproducer; see `campaign --rehost').")
  in
  let irq =
    Arg.(
      value & flag
      & info [ "irq" ]
          ~doc:
            "With --rehost-seed: also draw the interrupt-injection plan \
             from the seed, as `campaign --rehost --irq' campaigns do.")
  in
  let run fw bug_id ftrace sched_seed rehost_seed irq =
    match
      List.find_opt (fun b -> String.equal b.Defs.b_id bug_id) fw.Firmware_db.fw_bugs
    with
    | None ->
        Fmt.epr "no bug %S in %s; known: %s@." bug_id fw.fw_name
          (String.concat ", " (List.map (fun b -> b.Defs.b_id) fw.fw_bugs));
        exit 1
    | Some bug ->
        let sanitizers =
          if ftrace then Embsan.select ("ftrace" :: Embsan.all_sanitizers)
          else Embsan.all_sanitizers
        in
        let inst = Replay.boot fw (Replay.Embsan_cfg sanitizers) in
        Campaign.arm
          (Campaign.controls ~sched:(sched_seed <> None)
             ~rehost:(rehost_seed <> None) ~irq inst.machine)
          ~sched:sched_seed ~rehost:rehost_seed;
        let o = Replay.replay inst bug.b_syscalls in
        List.iter (fun r -> Fmt.pr "%a@." Report.pp r) o.o_reports;
        (match o.o_crash with
        | Some s -> Fmt.pr "machine stopped: %a@." Embsan_emu.Machine.pp_stop s
        | None -> ());
        Fmt.pr "%s: %s@." bug.b_id
          (if Replay.detects bug o then "DETECTED" else "not detected")
  in
  Cmd.v
    (Cmd.info "repro" ~doc:"Replay a registered bug's reproducer under EmbSan")
    Term.(const run $ fw_arg $ bug_id $ ftrace $ sched_seed $ rehost_seed $ irq)

(* --- campaign ---------------------------------------------------------------- *)

let campaign_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains (1..64).  Each worker owns its own machine, \
             runtime and post-boot snapshot and fuzzes a deterministic \
             sub-seed shard; 1 (the default) reduces bit-for-bit to the \
             single-threaded campaign.")
  in
  let execs =
    Arg.(
      value & opt int 2000
      & info [ "execs" ] ~doc:"Execution budget per worker.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.") in
  let exchange =
    Arg.(
      value & opt int 100
      & info [ "exchange" ]
          ~doc:"Executions per worker between frontier exchanges.")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ] ~doc:"Print per-epoch merged telemetry lines.")
  in
  let cmplog =
    Arg.(
      value & flag
      & info [ "cmplog" ]
          ~doc:
            "Compare-operand coverage: guest compares feed frontier \
             features and an operand dictionary for input-to-state \
             mutation (solves magic-value guards).")
  in
  let sched =
    Arg.(
      value & flag
      & info [ "sched" ]
          ~doc:
            "Schedule fuzzing: run each execution under a fuzzer-chosen \
             hart interleaving; the schedule seed is part of the corpus \
             entry and of reproducers.")
  in
  let ftrace =
    Arg.(
      value & flag
      & info [ "ftrace" ]
          ~doc:
            "Enable the happens-before race sanitizer (FastTrack vector \
             clocks) alongside the default sanitizer set.")
  in
  let rehost =
    Arg.(
      value & flag
      & info [ "rehost" ]
          ~doc:
            "Model-free MMIO rehosting: serve reads from unmapped device \
             registers out of a per-exec seeded stream behind a (pc, addr) \
             memoization table; the rehost seed is part of the corpus \
             entry and of reproducers.  Required for firmware with no \
             hand-written device model (e.g. mmio-suite).")
  in
  let irq =
    Arg.(
      value & flag
      & info [ "irq" ]
          ~doc:
            "With --rehost: inject interrupts at fuzzer-chosen retirement \
             points drawn from the rehost seed, vectoring the guest's \
             registered interrupt stub.")
  in
  let run fw jobs execs seed exchange telemetry cmplog sched ftrace rehost irq
      =
    let base = Campaign.default_config fw in
    let campaign =
      {
        base with
        max_execs = execs;
        seed;
        use_cmplog = cmplog;
        use_sched = sched;
        use_rehost = rehost;
        use_irq = irq;
        sanitizers =
          (if ftrace then Embsan.select ("ftrace" :: base.sanitizers)
           else base.sanitizers);
      }
    in
    let cfg =
      {
        Embsan_orch.Orch.campaign;
        jobs;
        epoch_execs = exchange;
        on_telemetry =
          (if telemetry then
             Some (fun t -> Fmt.pr "%a@." Embsan_orch.Orch.pp_telemetry t)
           else None);
      }
    in
    match Embsan_orch.Orch.run cfg with
    | r -> Fmt.pr "%a@." Embsan_orch.Orch.pp_result r
    | exception Invalid_argument msg ->
        Fmt.epr "%s@." msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a coverage-guided fuzzing campaign with EmbSan over N worker \
          domains with frontier exchange and global triage")
    Term.(
      const run $ fw_arg $ jobs $ execs $ seed $ exchange $ telemetry $ cmplog
      $ sched $ ftrace $ rehost $ irq)

(* --- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let nr =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"NR" ~doc:"Syscall number.")
  in
  let args =
    Arg.(value & pos_right 1 int [] & info [] ~docv:"ARGS" ~doc:"Arguments.")
  in
  let mem = Arg.(value & flag & info [ "mem" ] ~doc:"Also trace memory accesses.") in
  let run fw nr args mem =
    let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.all_sanitizers) in
    let tracer = Embsan_emu.Trace.attach ~capacity:160 ~mem inst.machine in
    let image = fw.Firmware_db.fw_truth ~kcov:false Embsan_minic.Codegen.Plain in
    let symbolize pc =
      Option.map
        (fun (s : Embsan_isa.Image.symbol) -> s.name)
        (Embsan_isa.Image.symbol_at image pc)
    in
    (match Replay.syscall inst ~nr ~args:(Array.of_list args) with
    | None -> ()
    | Some s -> Fmt.pr "machine stopped: %a@." Embsan_emu.Machine.pp_stop s);
    Fmt.pr "%a@." (Embsan_emu.Trace.pp ~symbolize) tracer;
    Fmt.pr "(%d events total; newest %d shown)@."
      (Embsan_emu.Trace.total tracer)
      (List.length (Embsan_emu.Trace.events tracer))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Execute one syscall and print the block/call/return trace")
    Term.(const run $ fw_arg $ nr $ args $ mem)

(* --- check ------------------------------------------------------------------ *)

let check_cmd =
  let oracle_names =
    Embsan_check.Harness.(selected_oracles default_config)
    |> List.map fst |> String.concat ", "
  in
  let execs =
    Arg.(
      value & opt int 1000
      & info [ "execs" ] ~doc:"Random programs per architecture flavor.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.") in
  let sync =
    Arg.(
      value & opt int 512
      & info [ "sync" ]
          ~doc:"Retired instructions between state comparisons.")
  in
  let max_insns =
    Arg.(
      value & opt int 4096
      & info [ "max-insns" ] ~doc:"Instruction budget per program run.")
  in
  let arch =
    Arg.(
      value & opt (some string) None
      & info [ "arch" ] ~docv:"ARCH"
          ~doc:"Check only this flavor (arm-ev, mips-ev or x86-ev).")
  in
  let oracle =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            ("Run only this oracle (repeatable): " ^ oracle_names
           ^ ".  Default: all."))
  in
  let run execs seed sync max_insns arch oracles =
    let archs =
      match arch with
      | None -> Embsan_isa.Arch.all
      | Some s -> (
          match Embsan_isa.Arch.of_string s with
          | Some a -> [ a ]
          | None ->
              Fmt.epr "unknown arch %S@." s;
              exit 2)
    in
    let config =
      { Embsan_check.Harness.execs; seed; sync; max_insns; archs; oracles }
    in
    (match Embsan_check.Harness.selected_oracles config with
    | _ -> ()
    | exception Invalid_argument msg ->
        Fmt.epr "%s@." msg;
        exit 2);
    let s = Embsan_check.Harness.run config in
    Fmt.pr "%a@." Embsan_check.Harness.pp_summary s;
    if s.s_divergences <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         ("Differential-oracle check of the dual execution engines and of \
           the dual instrumentation backends (" ^ oracle_names
        ^ "); exits 1 on any divergence"))
    Term.(const run $ execs $ seed $ sync $ max_insns $ arch $ oracle)

(* --- disasm ----------------------------------------------------------------- *)

let disasm_cmd =
  let run fw =
    let image = fw.Firmware_db.fw_build ~kcov:false Embsan_minic.Codegen.Plain in
    Fmt.pr "%a@." Embsan_isa.Image.pp image;
    match Embsan_isa.Image.section image "text" with
    | Some sec -> print_string (Embsan_isa.Disasm.section_listing image sec)
    | None -> Fmt.epr "no text section@."
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a firmware image")
    Term.(const run $ fw_arg)

let () =
  let doc = "EmbSan: sanitizing embedded operating systems under emulation" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "embsan" ~doc)
          [
            list_cmd;
            probe_cmd;
            run_cmd;
            repro_cmd;
            campaign_cmd;
            trace_cmd;
            check_cmd;
            disasm_cmd;
          ]))
