(* Tests for the fuzzer-controlled interleaving scheduler: determinism
   (equal draw streams replay equal schedules), engine invariance via the
   sched-transparency oracle, policy drawing, and disarm restoring the
   built-in rotation. *)

open Embsan_emu
module Sched = Embsan_sched.Sched
module Rng = Embsan_fuzz.Rng
module Progen = Embsan_check.Progen
module Oracle = Embsan_check.Oracle
module Snapshot = Embsan_check.Snapshot

(* A two-hart oracle machine running a generated program on both harts
   (same entry, disjoint stack windows) -- the same construction the
   sched-transparency oracle uses. *)
let two_hart_machine p =
  let m = Oracle.machine_of ~harts:2 p in
  Machine.start_hart m 1 ~pc:m.Machine.entry
    ~sp:(Machine.ram_base m + Machine.ram_size m - 16 - 0x8000);
  m

let arm_seeded ?policy ctl seed =
  let r = Rng.create ~seed in
  Sched.arm ?policy ctl ~draw:(fun n -> Rng.below r n)

let run_armed ~prog_seed ~sched_seed =
  let p = Progen.generate ~arch:Embsan_isa.Arch.Arm_ev ~seed:prog_seed in
  let m = two_hart_machine p in
  let ctl = Sched.create m in
  arm_seeded ctl sched_seed;
  let stop = Machine.run m ~max_insns:20_000 in
  (Snapshot.capture ~stop m, Sched.stats ctl, Sched.policy ctl)

let same_seed_same_interleaving () =
  List.iter
    (fun prog_seed ->
      let a = run_armed ~prog_seed ~sched_seed:42 in
      let b = run_armed ~prog_seed ~sched_seed:42 in
      let sa, stats_a, _ = a and sb, stats_b, _ = b in
      Alcotest.(check (list string))
        (Printf.sprintf "prog %d: same schedule, same state" prog_seed)
        [] (Snapshot.diff sa sb);
      Alcotest.(check bool) "same decision counts" true (stats_a = stats_b))
    [ 11; 12; 13; 14 ]

let different_seed_different_interleaving () =
  (* not universally true for any single program (one may halt before the
     schedules split), but across a handful at least one must differ *)
  let differs prog_seed =
    let sa, _, _ = run_armed ~prog_seed ~sched_seed:1 in
    let sb, _, _ = run_armed ~prog_seed ~sched_seed:2 in
    Snapshot.diff sa sb <> []
  in
  Alcotest.(check bool) "some program distinguishes the schedules" true
    (List.exists differs [ 11; 12; 13; 14; 15; 16; 17; 18 ])

let policy_drawing_covers_both () =
  let policies =
    List.init 64 (fun seed ->
        let p = Progen.generate ~arch:Embsan_isa.Arch.Arm_ev ~seed:21 in
        let m = two_hart_machine p in
        let ctl = Sched.create m in
        arm_seeded ctl seed;
        Sched.policy ctl)
  in
  Alcotest.(check bool) "slices drawn" true (List.mem Sched.Slices policies);
  Alcotest.(check bool) "priorities drawn" true
    (List.mem Sched.Priorities policies);
  (* the explicit override pins the policy regardless of the stream *)
  let p = Progen.generate ~arch:Embsan_isa.Arch.Arm_ev ~seed:21 in
  let ctl = Sched.create (two_hart_machine p) in
  arm_seeded ~policy:Sched.Priorities ctl 3;
  Alcotest.(check bool) "override respected" true
    (Sched.policy ctl = Sched.Priorities)

let disarm_restores_round_robin () =
  let p = Progen.generate ~arch:Embsan_isa.Arch.Arm_ev ~seed:31 in
  let run_plain () =
    let m = two_hart_machine p in
    let stop = Machine.run m ~max_insns:20_000 in
    Snapshot.capture ~stop m
  in
  let run_armed_then_disarmed () =
    let m = two_hart_machine p in
    let ctl = Sched.create m in
    arm_seeded ctl 7;
    Alcotest.(check bool) "armed" true (Sched.armed ctl);
    Sched.disarm ctl;
    Alcotest.(check bool) "disarmed" false (Sched.armed ctl);
    let stop = Machine.run m ~max_insns:20_000 in
    Snapshot.capture ~stop m
  in
  Alcotest.(check (list string)) "disarmed machine is round-robin" []
    (Snapshot.diff (run_plain ()) (run_armed_then_disarmed ()))

(* Directed sample of the sched-transparency oracle (the bounded seeded
   campaign: `embsan_cli check --oracle sched-transparency --seed 1
   --execs 250`): identical draw streams must drive Fast and Baseline
   through the same interleaving. *)
let sched_transparency_sample () =
  let cfg = Oracle.default_cfg in
  List.iter
    (fun seed ->
      let p = Progen.generate ~arch:Embsan_isa.Arch.Arm_ev ~seed in
      match Oracle.sched_transparency ~cfg p with
      | None, _ -> ()
      | Some d, _ ->
          Alcotest.failf "divergence: %a" Oracle.pp_divergence d)
    (List.init 20 (fun i -> 100 + i))

let () =
  Alcotest.run "embsan_sched"
    [
      ( "sched",
        [
          Alcotest.test_case "same seed, same interleaving" `Quick
            same_seed_same_interleaving;
          Alcotest.test_case "different seeds diverge" `Quick
            different_seed_different_interleaving;
          Alcotest.test_case "policy drawing" `Quick policy_drawing_covers_both;
          Alcotest.test_case "disarm restores round-robin" `Quick
            disarm_restores_round_robin;
          Alcotest.test_case "sched-transparency sample" `Quick
            sched_transparency_sample;
        ] );
    ]
