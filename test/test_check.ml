(* Tests for the differential-oracle harness (lib/check): generator
   determinism, bounded random campaigns over every oracle, and a
   fast-vs-baseline / probed-vs-unprobed smoke of each guest OS family's
   boot sequence. *)

open Embsan_emu
open Embsan_check

(* --- generator ------------------------------------------------------------ *)

let progen_deterministic () =
  let a = Progen.generate ~arch:Embsan_isa.Arch.Mips_ev ~seed:42 in
  let b = Progen.generate ~arch:Embsan_isa.Arch.Mips_ev ~seed:42 in
  Alcotest.(check string) "same program" (Progen.listing a) (Progen.listing b);
  let c = Progen.generate ~arch:Embsan_isa.Arch.Mips_ev ~seed:43 in
  Alcotest.(check bool) "seed matters" true
    (Progen.listing a <> Progen.listing c)

(* Generated programs decode back from the image bytes: the generator
   emits well-formed streams for every arch flavor, not just Arm_ev. *)
let progen_decodable () =
  List.iter
    (fun arch ->
      for seed = 0 to 19 do
        let p = Progen.generate ~arch ~seed in
        let sec = List.hd p.p_image.sections in
        let decoded =
          Embsan_isa.Codec.decode_all arch ~base:sec.base sec.data
        in
        Alcotest.(check int)
          (Printf.sprintf "%s/%d decodes fully"
             (Embsan_isa.Arch.to_string arch)
             seed)
          (List.length p.p_insns) (List.length decoded)
      done)
    Embsan_isa.Arch.all

(* --- random differential campaign ----------------------------------------- *)

(* Bounded version of `embsan_cli check`: every oracle over every arch
   flavor must find nothing.  (The CLI default runs 1000 programs per
   flavor; this keeps runtest fast while still crossing every code path --
   loads/stores around the RAM limit, MMIO, faults, branches, chaining.) *)
let random_campaign () =
  let config =
    { Harness.default_config with execs = 40; max_insns = 2048; sync = 256 }
  in
  let s = Harness.run config in
  Alcotest.(check int) "all programs ran" (3 * 40) s.s_programs;
  match s.s_divergences with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%a" Oracle.pp_divergence d

(* Bounded mode-agreement campaign: the same syscall sequences under
   EmbSan-C and EmbSan-D must yield the same unique report set.  Selected
   by name so a harness wiring regression (oracle dropped from the
   registry) fails here rather than silently shrinking the default set. *)
let mode_agreement_campaign () =
  let config =
    {
      Harness.default_config with
      execs = 30;
      oracles = [ "mode-agreement" ];
    }
  in
  let s = Harness.run config in
  Alcotest.(check int) "all programs ran" (3 * 30) s.s_programs;
  (* the kernels never crash: every sequence ends back in the idle loop *)
  Alcotest.(check (list (pair string int))) "stops" [ ("halted", 90) ] s.s_stops;
  match s.s_divergences with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%a" Oracle.pp_divergence d

(* --- guest kernel boot differentials --------------------------------------- *)

(* One representative firmware per guest OS family. *)
let family_firmwares () =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (fw : Embsan_guest.Firmware_db.firmware) ->
      if Hashtbl.mem seen fw.fw_base_os then false
      else begin
        Hashtbl.add seen fw.fw_base_os ();
        true
      end)
    Embsan_guest.Firmware_db.all

(* Minimal plain boot (mirrors Replay.boot's uninstrumented path): load
   the image, install the hypercall services and inert stubs for the
   sanitizer callout range, then run a fixed budget.  A fixed [run]
   budget stops both machines of a pair at the same block boundary, which
   is engine-invariant; run_until_ready is not (the fast engine checks the
   doorbell only between 16-block turns). *)
let boot_machine ~harts (fw : Embsan_guest.Firmware_db.firmware) =
  let image = fw.fw_build ~kcov:false Embsan_minic.Codegen.Plain in
  let m = Machine.create ~harts ~arch:image.arch () in
  Machine.load_image m image;
  Machine.boot m;
  Services.install m;
  List.iter
    (fun n -> Machine.set_trap_handler m n (fun _ _ -> ()))
    [ 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27 ];
  m

let boot_budget = 200_000

let kernel_fast_vs_baseline (fw : Embsan_guest.Firmware_db.firmware) () =
  (* single hart: the engines' scheduling granularity differs by design,
     so multi-hart interleavings are not comparable across engines *)
  let run engine =
    let m = boot_machine ~harts:1 fw in
    Machine.set_engine m engine;
    let stop = Machine.run m ~max_insns:boot_budget in
    (Snapshot.capture ~stop m, m)
  in
  let sf, _ = run Machine.Fast in
  let sb, _ = run Machine.Baseline in
  match Snapshot.diff sf sb with
  | [] -> ()
  | diff ->
      Alcotest.failf "%s boot diverged:@\n%s" fw.fw_name
        (String.concat "\n" diff)

let kernel_probe_transparency (fw : Embsan_guest.Firmware_db.firmware) () =
  (* probed-vs-unprobed is valid multi-hart: the chain budget is constant,
     so probes must not perturb the schedule either *)
  let run ~probed =
    let m = boot_machine ~harts:2 fw in
    if probed then Oracle.no_op_probes m;
    let stop = Machine.run m ~max_insns:boot_budget in
    (Snapshot.capture ~stop m, m)
  in
  let plain, _ = run ~probed:false in
  let probed, _ = run ~probed:true in
  match Snapshot.diff plain probed with
  | [] -> ()
  | diff ->
      Alcotest.failf "%s probed boot diverged:@\n%s" fw.fw_name
        (String.concat "\n" diff)

let () =
  let kernel_tests mk =
    List.map
      (fun (fw : Embsan_guest.Firmware_db.firmware) ->
        Alcotest.test_case fw.fw_base_os `Quick (mk fw))
      (family_firmwares ())
  in
  Alcotest.run "embsan_check"
    [
      ( "progen",
        [
          Alcotest.test_case "deterministic" `Quick progen_deterministic;
          Alcotest.test_case "decodable everywhere" `Quick progen_decodable;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "random campaign" `Quick random_campaign;
          Alcotest.test_case "mode agreement" `Quick mode_agreement_campaign;
        ] );
      ("kernel fast-vs-baseline", kernel_tests kernel_fast_vs_baseline);
      ("kernel probe transparency", kernel_tests kernel_probe_transparency);
    ]
