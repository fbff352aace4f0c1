(* Ablation benches for the design choices called out in DESIGN.md:

   1. KCSAN sampling interval x stall window: race recall vs overhead;
   2. EmbSan-D heap-poison init routine (the Prober's heap discovery):
      slab OOB recall collapses without it;
   3. EmbSan-C hypercall fast path vs generic probe dispatch: overhead
      delta from the cost model over the measured callout counts;
   4. freed-block tracking (host quarantine) size: double-free
      classification quality under tracking pressure. *)

open Embsan_guest
module Embsan = Embsan_core.Embsan
module Report = Embsan_core.Report
module Runtime = Embsan_core.Runtime
module Kasan = Embsan_core.Kasan
module Shadow = Embsan_core.Shadow
module Machine = Embsan_emu.Machine
module Cost_model = Embsan_emu.Cost_model

let run_to_ready machine =
  match Machine.run_until_ready machine ~max_insns:30_000_000 with
  | None -> ()
  | Some s -> Fmt.failwith "boot failed: %a" Machine.pp_stop s

let push_calls machine calls =
  List.iter
    (fun (nr, args) ->
      Embsan_emu.Devices.mailbox_push machine.Machine.mailbox ~nr ~args;
      ignore (Machine.run_until_mailbox_idle machine ~max_insns:10_000_000))
    calls

(* --- 1. KCSAN interval x stall sweep ----------------------------------------- *)

let kcsan_sweep () =
  Fmt.pr "@.Ablation 1: KCSAN sampling interval x stall window (x86_64 race \
          workload)@.";
  Fmt.pr "%-10s %-8s %-14s %-10s@." "interval" "stall" "races found"
    "cost (rel)";
  let fw = List.nth Firmware_db.all 5 (* OpenWRT-x86_64 *) in
  let workload = List.concat (List.init 6 (fun i -> [ (11, [| i land 1; 7; 0 |]) ])) in
  let base_cost = ref None in
  List.iter
    (fun (interval, stall) ->
      let session = Replay.session_for fw Embsan.kcsan_only in
      let machine = Embsan.make_machine session in
      let rt =
        Embsan.attach
          ~tuning:[ ("kcsan.interval", interval); ("kcsan.stall", stall) ]
          session machine
      in
      run_to_ready machine;
      let c0 = Machine.total_cost machine in
      push_calls machine workload;
      let cost = Machine.total_cost machine - c0 in
      let races =
        List.length
          (List.filter
             (fun (r : Report.t) -> r.kind = Report.Data_race)
             (Runtime.reports rt))
      in
      let rel =
        match !base_cost with
        | None ->
            base_cost := Some cost;
            1.0
        | Some b -> float_of_int cost /. float_of_int b
      in
      Fmt.pr "%-10d %-8d %-14d %-10.2f@." interval stall races rel)
    [ (480, 300); (480, 1200); (120, 300); (120, 1200); (30, 1200) ]

(* --- 2. EmbSan-D heap-poison init on/off --------------------------------------- *)

let heap_poison_ablation () =
  Fmt.pr "@.Ablation 2: EmbSan-D heap-poison init routine (bcm63xx slab OOB)@.";
  let fw = List.nth Firmware_db.all 1 (* OpenWRT-bcm63xx *) in
  let oob_bugs =
    List.filter (fun (b : Defs.bug) -> b.b_kind = Report.Oob_access) fw.fw_bugs
  in
  let detect ~with_poison =
    let session = Replay.session_for fw Embsan.kasan_only in
    let spec =
      if with_poison then session.s_spec
      else
        {
          session.s_spec with
          Embsan_core.Dsl.init =
            List.filter
              (function Embsan_core.Dsl.Poison _ -> false | _ -> true)
              session.s_spec.init;
        }
    in
    List.length
      (List.filter
         (fun (b : Defs.bug) ->
           let machine = Embsan.make_machine session in
           let sink = Report.create_sink () in
           let _rt =
             Runtime.attach ~spec ~mode:Runtime.D ~image:session.s_image ~sink
               machine
           in
           run_to_ready machine;
           push_calls machine b.b_syscalls;
           List.exists
             (fun (r : Report.t) ->
               Defs.kind_matches b r.kind
               && match r.location with
                  | Some l -> List.mem l (Defs.bug_symbols b)
                  | None -> false)
             (Report.unique_reports sink))
         oob_bugs)
  in
  let with_p = detect ~with_poison:true in
  let without_p = detect ~with_poison:false in
  Fmt.pr "  slab OOB bugs detected with heap poison   : %d/%d@." with_p
    (List.length oob_bugs);
  Fmt.pr "  slab OOB bugs detected without heap poison: %d/%d@." without_p
    (List.length oob_bugs)

(* --- 3. hypercall fast path vs generic dispatch -------------------------------- *)

let fastpath_ablation () =
  Fmt.pr "@.Ablation 3: EmbSan-C hypercall fast path vs generic trap dispatch@.";
  let fw = List.hd Firmware_db.all (* OpenWRT-armvirt *) in
  let session = Replay.session_for ~forced_mode:`C fw Embsan.kasan_only in
  let machine = Embsan.make_machine session in
  let rt = Embsan.attach session machine in
  run_to_ready machine;
  let c0 = Machine.total_cost machine in
  let workload =
    List.concat_map (fun (b : Defs.bug) -> b.b_benign) fw.fw_bugs
  in
  push_calls machine workload;
  let fast_cost = Machine.total_cost machine - c0 in
  (* the generic path costs generic_trap_dispatch per callout instead *)
  let delta =
    rt.Runtime.callouts
    * (Cost_model.generic_trap_dispatch - Cost_model.embsan_c_hypercall)
  in
  let generic_cost = fast_cost + delta in
  Fmt.pr "  callouts: %d; fast-path cost %d; generic-dispatch cost %d \
          (+%.1f%%)@."
    rt.Runtime.callouts fast_cost generic_cost
    (100. *. float_of_int delta /. float_of_int fast_cost)

(* --- 4. freed-block tracking size ------------------------------------------------ *)

let quarantine_ablation () =
  Fmt.pr "@.Ablation 4: freed-block tracking size vs double-free \
          classification@.";
  Fmt.pr "%-12s %-22s@." "tracking" "second free reports as";
  List.iter
    (fun quarantine_max ->
      let sink = Report.create_sink () in
      let shadow = Shadow.create ~ram_base:0x10000 ~ram_size:0x10000 in
      let k =
        Kasan.create ~quarantine_max ~shadow ~sink ~symbolize:(fun _ -> None) ()
      in
      (* allocate+free 64 blocks, then free the first one again *)
      for i = 0 to 63 do
        Kasan.on_alloc k ~ptr:(0x10100 + (i * 64)) ~size:48 ~pc:i;
        Kasan.on_free k ~ptr:(0x10100 + (i * 64)) ~pc:(1000 + i) ~hart:0
      done;
      Kasan.on_free k ~ptr:0x10100 ~pc:9999 ~hart:0;
      let kind =
        match Report.unique_reports sink with
        | [ r ] -> Report.kind_name r.kind
        | l -> Fmt.str "%d reports" (List.length l)
      in
      Fmt.pr "%-12d %-22s@." quarantine_max kind)
    [ 4; 64; 512 ]

let run () =
  kcsan_sweep ();
  heap_poison_ablation ();
  fastpath_ablation ();
  quarantine_ablation ()
