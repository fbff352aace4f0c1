(* EmbSan reproduction bench harness.

   Regenerates every table and figure of the paper's evaluation:

     table1    the evaluated firmware inventory
     table2    25 syzbot bugs under EmbSan-C / EmbSan-D / native KASAN
     table3    classification matrix of campaign-found bugs
     table4    full list of campaign-found bugs (with reproducer stats)
     replay    S4.2 soundness: reproducers re-run under native sanitizers
     fig2      runtime overhead comparison
     ablation  design-choice ablations (DESIGN.md)
     bechamel  wall-clock micro-benchmarks
     emu       execution-engine throughput (writes BENCH_emu.json)
     snap      snapshot service: restore latency vs dirty pages and post-boot
               capture cost (writes BENCH_snap.json; fails unless each
               restore reverts exactly the pages touched and each post-boot
               snapshot holds at most 2% of RAM's pages privately)
     orch      multi-domain orchestrator scaling sweep (writes BENCH_orch.json;
               exits 1 if jobs=1 differs from Campaign.run)
     race      race detection: ftrace vs KCSAN, fixed vs fuzzed schedules
               (writes BENCH_race.json; exits 1 on ratio-guard violation)
     rehost    model-free rehosting: interrupt-injection A/B + throughput
               vs modeled devices (writes BENCH_rehost.json; exits 1 on
               ratio-guard violation)
     all       everything above (default)

   Options: --execs N (campaign budget, default 4000), --seed N. *)

open Embsan_guest

let print_table1 () =
  Fmt.pr "@.Table 1: embedded firmware used in the evaluation@.";
  Fmt.pr "%-22s %-15s %-8s %-9s %-7s %s@." "Firmware" "Base OS" "Arch"
    "Inst." "Source" "Fuzzer";
  Fmt.pr "%s@." (String.make 72 '-');
  List.iter
    (fun fw -> Fmt.pr "%a@." Firmware_db.pp_table1_row fw)
    Firmware_db.all

let () =
  let args = Array.to_list Sys.argv in
  let rec get_opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> get_opt key rest
    | [] -> None
  in
  let max_execs =
    match get_opt "--execs" args with Some v -> int_of_string v | None -> 4000
  in
  let seed =
    match get_opt "--seed" args with Some v -> int_of_string v | None -> 1
  in
  let cmds =
    List.filter
      (fun a ->
        List.mem a
          [ "table1"; "table2"; "table3"; "table4"; "replay"; "fig2";
            "ablation"; "bechamel"; "emu"; "snap"; "orch"; "race"; "rehost"; "all" ])
      args
  in
  let cmds = if cmds = [] then [ "all" ] else cmds in
  let want c = List.mem c cmds || List.mem "all" cmds in
  let t0 = Unix.gettimeofday () in
  Fmt.pr "EmbSan reproduction bench (execs=%d seed=%d)@." max_execs seed;
  if want "table1" then print_table1 ();
  if want "table2" then ignore (Table2.print (Table2.run ()));
  let campaign_results =
    if want "table3" || want "table4" || want "replay" || want "fig2" then
      Campaigns.run_all ~max_execs ~seed ()
    else []
  in
  if want "table3" then ignore (Campaigns.print_table3 campaign_results);
  if want "table4" then ignore (Campaigns.print_table4 campaign_results);
  if want "replay" then ignore (Campaigns.print_native_replay campaign_results);
  if want "fig2" then ignore (Overhead.run ~max_execs ());
  if want "ablation" then Ablation.run ();
  if want "bechamel" then Bechamel_suite.run ();
  if want "emu" then Emu_bench.run ();
  if want "snap" then Snap_bench.run ();
  if want "orch" then Orch_bench.run ();
  if want "race" then Race_bench.run ();
  if want "rehost" then Rehost_bench.run ();
  Fmt.pr "@.bench done in %.1fs@." (Unix.gettimeofday () -. t0)
