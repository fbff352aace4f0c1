(* Tests for the emulator: execution semantics, devices, probes, multi-hart
   scheduling, stalls and coverage. *)

open Embsan_isa
open Embsan_emu

let assemble_and_load ?(arch = Arch.Arm_ev) ?(harts = 2) units =
  let img = Asm.assemble ~arch ~text_base:0x1_0000 ~entry:"main" units in
  let m = Machine.create ~harts ~arch () in
  Machine.load_image m img;
  Machine.boot m;
  (m, img)

let unit_ text data = { Asm.unit_name = "t"; text; data }

let check_stop = Alcotest.testable Machine.pp_stop ( = )

(* A mem subscriber that ignores the access it is told about and runs
   [f]. *)
let on_each_mem f =
  Probe.every_mem
    (fun ~hart:_ ~pc:_ ~addr:_ ~size:_ ~is_write:_ ~is_atomic:_ ~value:_ ->
      f ())

let ignore_mem = on_each_mem ignore

let run_halt_code () =
  let open Asm in
  let m, _ = assemble_and_load [ unit_ [ Label "main"; li Reg.a0 42; halt ] [] ] in
  Alcotest.check check_stop "halt 42" (Machine.Halted 42) (Machine.run m ~max_insns:100)

let arithmetic_program () =
  (* compute 10! iteratively, store to a global, halt with low byte *)
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.t0 1 (* acc *);
      li Reg.t1 1 (* i *);
      li Reg.t2 11;
      Label "loop";
      Ins (Alu (Mul, Reg.t0, Reg.t0, Reg.t1));
      addi Reg.t1 Reg.t1 1;
      bltu Reg.t1 Reg.t2 "loop";
      la Reg.t3 "result";
      store W32 Reg.t3 Reg.t0 0;
      mv Reg.a0 Reg.t0;
      halt;
    ]
  in
  let m, img = assemble_and_load [ unit_ text [ Label "result"; Words [ 0 ] ] ] in
  (match Machine.run m ~max_insns:1000 with
  | Machine.Halted _ -> ()
  | s -> Alcotest.failf "unexpected stop %a" Machine.pp_stop s);
  let result_addr = Image.symbol_addr_exn img "result" in
  Alcotest.(check int) "10! stored" 3628800
    (Machine.read_mem m ~addr:result_addr ~width:4)

let uart_console () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.t0 Devices.uart_base;
      li Reg.t1 (Char.code 'h');
      store W8 Reg.t0 Reg.t1 0;
      li Reg.t1 (Char.code 'i');
      store W8 Reg.t0 Reg.t1 0;
      halt;
    ]
  in
  let m, _ = assemble_and_load [ unit_ text [] ] in
  ignore (Machine.run m ~max_insns:100);
  Alcotest.(check string) "console" "hi" (Machine.console_output m)

(* The retired-insn total, the modeled cost and each hart's own count:
   what a raise mid-block must leave exactly as per-instruction
   accounting does. *)
let counters (m : Machine.t) =
  ( m.total_insns,
    Machine.total_cost m,
    Array.to_list (Array.map (fun (c : Cpu.t) -> c.insns) m.harts) )

let check_counters =
  Alcotest.(check (triple int int (list int)))
    "fast counters = baseline counters"

(* The power device raises [Halted] from inside the store that writes it,
   and the store sits mid-block: on both engines the counters must end
   where the per-instruction baseline leaves them. *)
let power_device_halts () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.t0 Devices.power_base;
      li Reg.t1 7;
      store W32 Reg.t0 Reg.t1 0;
      addi Reg.t2 Reg.t2 1;
      addi Reg.t2 Reg.t2 1;
      addi Reg.t2 Reg.t2 1;
      halt;
    ]
  in
  let run engine =
    let m, _ = assemble_and_load [ unit_ text [] ] in
    Machine.set_engine m engine;
    Alcotest.check check_stop "power code" (Machine.Halted 7)
      (Machine.run m ~max_insns:100);
    counters m
  in
  check_counters (run Machine.Baseline) (run Machine.Fast)

(* With a mem subscriber armed the access runs after the subscriber call,
   so a faulting access reaches the fault through the armed site: on both
   engines the stop (fault record included) must be [stop], the unarmed
   fast engine's. *)
let armed_stops_agree ?harts text stop =
  List.iter
    (fun engine ->
      let m, _ = assemble_and_load ?harts [ unit_ text [] ] in
      Machine.set_engine m engine;
      Probe.on_mem m.probes ignore_mem;
      Alcotest.check check_stop
        (match engine with
        | Machine.Fast -> "armed fast, same stop"
        | Machine.Baseline -> "armed baseline, same stop")
        stop
        (Machine.run m ~max_insns:100))
    [ Machine.Fast; Machine.Baseline ]

let null_deref_faults () =
  let open Asm in
  let text = [ Label "main"; li Reg.t0 0; load W32 Reg.t1 Reg.t0 4; halt ] in
  let m, _ = assemble_and_load [ unit_ text [] ] in
  let stop = Machine.run m ~max_insns:100 in
  (match stop with
  | Machine.Fault (acc, reason) ->
      Alcotest.(check int) "addr" 4 acc.addr;
      Alcotest.(check string) "reason" "null pointer dereference" reason
  | s -> Alcotest.failf "expected fault, got %a" Machine.pp_stop s);
  armed_stops_agree text stop

let oob_ram_faults () =
  let open Asm in
  let text = [ Label "main"; li Reg.t0 0x7FFF_0000; store W32 Reg.t0 Reg.t0 0; halt ] in
  let m, _ = assemble_and_load [ unit_ text [] ] in
  let stop = Machine.run m ~max_insns:100 in
  (match stop with
  | Machine.Fault (acc, _) -> Alcotest.(check bool) "is write" true acc.is_write
  | s -> Alcotest.failf "expected fault, got %a" Machine.pp_stop s);
  armed_stops_agree text stop

let unhandled_trap_stops () =
  let open Asm in
  let m, _ = assemble_and_load [ unit_ [ Label "main"; trap 99; halt ] [] ] in
  match Machine.run m ~max_insns:100 with
  | Machine.Unhandled_trap { num = 99; _ } -> ()
  | s -> Alcotest.failf "expected unhandled trap, got %a" Machine.pp_stop s

let trap_handler_dispatch () =
  let open Asm in
  let m, _ =
    assemble_and_load
      [ unit_ [ Label "main"; li Reg.a0 5; trap 3; mv Reg.a0 Reg.a0; halt ] [] ]
  in
  let seen = ref 0 in
  Machine.set_trap_handler m 3 (fun _m cpu ->
      seen := Cpu.get cpu Reg.a0;
      Cpu.set cpu Reg.a0 99);
  Alcotest.check check_stop "halts with handler retval" (Machine.Halted 99)
    (Machine.run m ~max_insns:100);
  Alcotest.(check int) "handler saw arg" 5 !seen

let mem_probe_events () =
  let open Asm in
  let text =
    [
      Label "main";
      la Reg.t0 "buf";
      li Reg.t1 0xAB;
      store W8 Reg.t0 Reg.t1 2;
      load W32 Reg.t2 Reg.t0 0;
      halt;
    ]
  in
  let m, img = assemble_and_load [ unit_ text [ Label "buf"; Words [ 0; 0 ] ] ] in
  let events = ref [] in
  Probe.on_mem m.probes
    (Probe.every_mem
       (fun ~hart:_ ~pc:_ ~addr ~size ~is_write ~is_atomic:_ ~value ->
         events := (is_write, addr, size, value) :: !events));
  ignore (Machine.run m ~max_insns:100);
  let buf = Image.symbol_addr_exn img "buf" in
  match List.rev !events with
  | [ (st_write, st_addr, st_size, st_value); (ld_write, ld_addr, ld_size, _) ]
    ->
      Alcotest.(check bool) "store first" true st_write;
      Alcotest.(check int) "store addr" (buf + 2) st_addr;
      Alcotest.(check int) "store size" 1 st_size;
      Alcotest.(check int) "store value" 0xAB st_value;
      Alcotest.(check bool) "load" false ld_write;
      Alcotest.(check int) "load addr" buf ld_addr;
      Alcotest.(check int) "load size" 4 ld_size
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let probe_subscription_patches_live_blocks () =
  (* run once with no probes (blocks get cached with unarmed sites), then
     subscribe and re-run: events must appear WITHOUT any flush or
     retranslation -- the cached blocks' patchable sites observe the new
     subscriber table *)
  let open Asm in
  let text =
    [ Label "main"; la Reg.t0 "buf"; load W32 Reg.t1 Reg.t0 0; halt ]
  in
  let m, _ = assemble_and_load [ unit_ text [ Label "buf"; Words [ 1 ] ] ] in
  ignore (Machine.run m ~max_insns:100);
  let translations0 = m.stats.translations in
  let count = ref 0 in
  Probe.on_mem m.probes (on_each_mem (fun () -> incr count));
  Machine.boot m;
  ignore (Machine.run m ~max_insns:100);
  Alcotest.(check int) "event after subscription" 1 !count;
  Alcotest.(check int) "no flush" 0 m.stats.flushes_invalidate;
  Alcotest.(check int) "no retranslation" translations0 m.stats.translations

let probe_unsubscribe_idempotent () =
  (* unsubscribing detaches exactly the handle's subscriber (others keep
     firing, in order) and is idempotent *)
  let open Asm in
  let text =
    [ Label "main"; la Reg.t0 "buf"; load W32 Reg.t1 Reg.t0 0; halt ]
  in
  let m, _ = assemble_and_load [ unit_ text [ Label "buf"; Words [ 1 ] ] ] in
  let order = ref [] in
  let tag n = on_each_mem (fun () -> order := n :: !order) in
  let _s1 = Probe.subscribe_mem m.probes (tag 1) in
  let s2 = Probe.subscribe_mem m.probes (tag 2) in
  let _s3 = Probe.subscribe_mem m.probes (tag 3) in
  ignore (Machine.run m ~max_insns:100);
  Alcotest.(check (list int)) "all fire in order" [ 1; 2; 3 ] (List.rev !order);
  Probe.unsubscribe s2;
  Probe.unsubscribe s2;
  order := [];
  Machine.boot m;
  ignore (Machine.run m ~max_insns:100);
  Alcotest.(check (list int)) "s2 detached, order kept" [ 1; 3 ]
    (List.rev !order);
  Alcotest.(check int) "zero flushes throughout" 0 m.stats.flushes_invalidate

let call_ret_probes () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.a0 5;
      call "callee";
      halt;
      Label "callee";
      addi Reg.a0 Reg.a0 1;
      ret;
    ]
  in
  let m, img = assemble_and_load [ unit_ text [] ] in
  let calls = ref [] and rets = ref [] in
  Probe.on_call m.probes (Probe.every_call (fun ev -> calls := ev :: !calls));
  Probe.on_ret m.probes (Probe.every_ret (fun ev -> rets := ev :: !rets));
  ignore (Machine.run m ~max_insns:100);
  let callee = Image.symbol_addr_exn img "callee" in
  (match !calls with
  | [ c ] -> Alcotest.(check int) "call target" callee c.c_target
  | _ -> Alcotest.fail "expected one call event");
  match !rets with
  | [ r ] -> Alcotest.(check int) "retval" 6 r.r_retval
  | _ -> Alcotest.fail "expected one ret event"

let multi_hart_interleaving () =
  (* hart0 spins incrementing a counter; hart1 halts the machine after it
     observes the counter above a threshold -> proves both harts progress *)
  let open Asm in
  let text =
    [
      Label "main";
      la Reg.t0 "counter";
      Label "spin";
      load W32 Reg.t1 Reg.t0 0;
      addi Reg.t1 Reg.t1 1;
      store W32 Reg.t0 Reg.t1 0;
      j "spin";
      Label "watcher";
      la Reg.t0 "counter";
      Label "watch_loop";
      load W32 Reg.t1 Reg.t0 0;
      li Reg.t2 50;
      bltu Reg.t1 Reg.t2 "watch_loop";
      li Reg.a0 1;
      halt;
    ]
  in
  let m, img = assemble_and_load [ unit_ text [ Label "counter"; Words [ 0 ] ] ] in
  Machine.start_hart m 1 ~pc:(Image.symbol_addr_exn img "watcher")
    ~sp:(Machine.ram_base m + Machine.ram_size m - 4096);
  Alcotest.check check_stop "watcher halts" (Machine.Halted 1)
    (Machine.run m ~max_insns:100_000)

let amo_atomicity () =
  (* two harts each amo.add 1000 times; final value must be exactly 2000 *)
  let open Asm in
  let worker label =
    [
      Asm.Label label;
      la Reg.t0 "counter";
      li Reg.t1 0;
      li Reg.t2 1000;
      li Reg.t3 1;
      Label (label ^ "_loop");
      Ins (Amo (Amo_add, Reg.t4, Reg.t0, Reg.t3));
      addi Reg.t1 Reg.t1 1;
      bltu Reg.t1 Reg.t2 (label ^ "_loop");
      la Reg.s0 "done_flags";
      Ins (Amo (Amo_add, Reg.t4, Reg.s0, Reg.t3));
      Label (label ^ "_wait");
      load W32 Reg.t4 Reg.s0 0;
      li Reg.s1 2;
      bltu Reg.t4 Reg.s1 (label ^ "_wait");
      la Reg.t0 "counter";
      load W32 Reg.a0 Reg.t0 0;
      halt;
    ]
  in
  let text = (Asm.Label "main" :: Asm.j "w0" :: worker "w0") @ worker "w1" in
  let m, img =
    assemble_and_load
      [ unit_ text [ Label "counter"; Words [ 0 ]; Label "done_flags"; Words [ 0 ] ] ]
  in
  Machine.start_hart m 1 ~pc:(Image.symbol_addr_exn img "w1")
    ~sp:(Machine.ram_base m + Machine.ram_size m - 4096);
  Alcotest.check check_stop "sum exact" (Machine.Halted 2000)
    (Machine.run m ~max_insns:1_000_000)

(* A scheduler both engines interleave identically under: the running
   hart keeps its turn until [quantum] insns have retired since it began
   or it stops being runnable; then the next runnable hart in id order
   starts one.  Both engines end a turn at the first block boundary at or
   past its deadline. *)
let quantum_sched ~quantum : Machine.scheduler =
  let cur = ref 0 and turn_end = ref 0 in
  fun m ->
    let n = Array.length m.harts in
    if Machine.runnable m m.harts.(!cur) && m.total_insns < !turn_end then
      Some (m.harts.(!cur), !turn_end)
    else
      let rec pick k =
        if k > n then None
        else
          let i = (!cur + k) mod n in
          if Machine.runnable m m.harts.(i) then begin
            cur := i;
            turn_end := m.total_insns + quantum;
            Some (m.harts.(i), !turn_end)
          end
          else pick (k + 1)
      in
      pick 1

let stall_and_retry () =
  (* a probe stalls the first store of hart0; verify hart1 runs during the
     stall window and the store still completes afterwards.  The store
     sits mid-block, so under a scheduler both engines interleave alike
     and must end with the same counters. *)
  let open Asm in
  let text =
    [
      Label "main";
      la Reg.t0 "cell";
      li Reg.t1 123;
      store W32 Reg.t0 Reg.t1 0;
      addi Reg.t2 Reg.t2 1;
      addi Reg.t2 Reg.t2 1;
      addi Reg.t2 Reg.t2 1;
      halt;
      Label "side";
      la Reg.t0 "side_cell";
      li Reg.t1 1;
      store W32 Reg.t0 Reg.t1 0;
      Label "side_spin";
      j "side_spin";
    ]
  in
  let run ?sched engine =
    let m, img =
      assemble_and_load
        [
          unit_ text [ Label "cell"; Words [ 0 ]; Label "side_cell"; Words [ 0 ] ];
        ]
    in
    Machine.set_engine m engine;
    Machine.set_sched m sched;
    Machine.start_hart m 1 ~pc:(Image.symbol_addr_exn img "side")
      ~sp:(Machine.ram_base m + Machine.ram_size m - 4096);
    let cell = Image.symbol_addr_exn img "cell" in
    let side_cell = Image.symbol_addr_exn img "side_cell" in
    let stalled = ref false in
    let side_value_during_stall = ref (-1) in
    Probe.on_mem m.probes
      (Probe.every_mem
         (fun ~hart:_ ~pc ~addr ~size:_ ~is_write ~is_atomic:_ ~value:_ ->
           if addr = cell && is_write && not !stalled then begin
             stalled := true;
             m.harts.(0).stall_until <- m.total_insns + 200;
             raise (Fault.Retry_at pc)
           end
           else if addr = cell && is_write then
             side_value_during_stall :=
               Machine.read_mem m ~addr:side_cell ~width:4));
    ignore (Machine.run m ~max_insns:10_000);
    Alcotest.(check bool) "stall happened" true !stalled;
    Alcotest.(check int) "hart1 progressed during stall" 1
      !side_value_during_stall;
    Alcotest.(check int) "store completed" 123
      (Machine.read_mem m ~addr:cell ~width:4);
    counters m
  in
  ignore (run Machine.Fast : int * int * int list);
  let scheduled engine = run ~sched:(quantum_sched ~quantum:50) engine in
  check_counters (scheduled Machine.Baseline) (scheduled Machine.Fast)

let cost_model_counts () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.t0 0 (* alu *);
      la Reg.t1 "buf" (* alu (li) *);
      load W32 Reg.t2 Reg.t1 0 (* mem *);
      halt (* alu *);
    ]
  in
  let m, _ = assemble_and_load [ unit_ text [ Label "buf"; Words [ 0 ] ] ] in
  ignore (Machine.run m ~max_insns:100);
  Alcotest.(check int) "insns" 4 m.total_insns;
  Alcotest.(check int) "cost"
    ((3 * Cost_model.alu_insn) + Cost_model.mem_insn)
    m.cost;
  Machine.add_external_cost m 500;
  Alcotest.(check int) "total cost" (m.cost + 500) (Machine.total_cost m)

let mailbox_protocol () =
  let open Asm in
  (* guest: signal ready; then loop: wait for request, return nr + arg0 + 1 *)
  let mb = Devices.mailbox_base in
  let text =
    [
      Label "main";
      li Reg.t0 mb;
      li Reg.t1 1;
      store W32 Reg.t0 Reg.t1 0x28 (* READY *);
      Label "serve";
      load W32 Reg.t1 Reg.t0 0x00;
      beqz Reg.t1 "serve";
      load W32 Reg.t2 Reg.t0 0x04 (* NR *);
      load W32 Reg.t3 Reg.t0 0x08 (* ARG0 *);
      Ins (Alu (Add, Reg.t2, Reg.t2, Reg.t3));
      addi Reg.t2 Reg.t2 1;
      store W32 Reg.t0 Reg.t2 0x20 (* RET *);
      li Reg.t1 1;
      store W32 Reg.t0 Reg.t1 0x24 (* COMPLETE *);
      j "serve";
    ]
  in
  let m, _ = assemble_and_load [ unit_ text [] ] in
  (match Machine.run_until_ready m ~max_insns:10_000 with
  | None -> ()
  | Some s -> Alcotest.failf "boot stopped: %a" Machine.pp_stop s);
  Alcotest.(check bool) "ready" true (Devices.mailbox_ready m.mailbox);
  Devices.mailbox_push m.mailbox ~nr:10 ~args:[| 5 |];
  Devices.mailbox_push m.mailbox ~nr:20 ~args:[| 7 |];
  (match Machine.run_until_mailbox_idle m ~max_insns:100_000 with
  | None -> ()
  | Some s -> Alcotest.failf "serve stopped: %a" Machine.pp_stop s);
  match Devices.mailbox_completions m.mailbox with
  | [ a; b ] ->
      Alcotest.(check int) "first ret" 16 a.ret;
      Alcotest.(check int) "second ret" 28 b.ret
  | l -> Alcotest.failf "expected 2 completions, got %d" (List.length l)

let coverage_tcg () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.t0 0;
      li Reg.t1 5;
      Label "loop";
      addi Reg.t0 Reg.t0 1;
      bltu Reg.t0 Reg.t1 "loop";
      halt;
    ]
  in
  let m, _ = assemble_and_load [ unit_ text [] ] in
  let cov = Coverage.create ~harts:2 in
  Coverage.attach_tcg cov m;
  ignore (Machine.run m ~max_insns:1000);
  Alcotest.(check bool) "blocks seen" true (cov.blocks_seen > 3);
  Alcotest.(check bool) "edges recorded" true (Coverage.edge_count cov > 0);
  let sig1 = Coverage.signature cov in
  Coverage.reset_edges cov;
  Alcotest.(check int) "reset" 0 (Coverage.edge_count cov);
  Machine.boot m;
  ignore (Machine.run m ~max_insns:1000);
  Alcotest.(check bool) "deterministic" true (Coverage.signature cov = sig1)

let coverage_kcov () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.a0 0x1234;
      trap Coverage.kcov_trap;
      li Reg.a0 0x5678;
      trap Coverage.kcov_trap;
      halt;
    ]
  in
  let m, _ = assemble_and_load [ unit_ text [] ] in
  let cov = Coverage.create ~harts:2 in
  Coverage.attach_kcov cov m;
  ignore (Machine.run m ~max_insns:1000);
  Alcotest.(check int) "two kcov records" 2 cov.blocks_seen

(* Reference signature: a scan of the whole bitmap.  [Coverage.signature]
   reads only the touched list and must agree with it. *)
let scan_signature (cov : Coverage.t) =
  let acc = ref [] in
  for i = Coverage.bitmap_size - 1 downto 0 do
    let v = Bytes.get_uint8 cov.bitmap i in
    if v > 0 then begin
      let bucket =
        if v = 1 then 1
        else if v = 2 then 2
        else if v = 3 then 3
        else if v <= 7 then 4
        else if v <= 15 then 5
        else if v <= 31 then 6
        else if v <= 127 then 7
        else 8
      in
      acc := (i, bucket) :: !acc
    end
  done;
  !acc

let rec strictly_ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && strictly_ascending rest
  | _ -> true

(* Random record batches separated by resets, on a 2-hart map: harts -1,
   2 and 3 are out of range, pcs come from the whole int range or from a
   small pool (so edges repeat into higher buckets), and a batch may hit
   one edge 257+ times so its counter saturates at 255. *)
let coverage_matches_scan =
  let open QCheck2 in
  let hart = Gen.int_range (-1) 3 in
  let pc = Gen.(oneof [ int; map (fun x -> x * 8) (int_bound 64) ]) in
  let batch =
    Gen.(
      pair
        (list_size (int_bound 300) (pair hart pc))
        (opt (triple hart pc (int_range 257 600))))
  in
  Test.make ~name:"touched list matches full scan" ~count:200
    Gen.(list_size (int_range 1 6) batch)
    (fun batches ->
      let cov = Coverage.create ~harts:2 in
      List.for_all
        (fun (hits, hot) ->
          List.iter (fun (hart, pc) -> Coverage.record cov ~hart ~pc) hits;
          Option.iter
            (fun (hart, pc, n) ->
              for _ = 1 to n do
                Coverage.record cov ~hart ~pc
              done)
            hot;
          let s = Coverage.signature cov in
          let saturated = Bytes.exists (fun c -> c = '\255') cov.bitmap in
          let ok =
            s = scan_signature cov
            && strictly_ascending s
            && Coverage.edge_count cov = List.length s
            && (hot = None || saturated)
          in
          Coverage.reset_edges cov;
          ok && Bytes.for_all (fun c -> c = '\000') cov.bitmap)
        batches)

let deadlock_detected () =
  let open Asm in
  let m, _ = assemble_and_load [ unit_ [ Label "main"; Ins Nop; halt ] [] ] in
  (* park hart 0 before it runs *)
  m.harts.(0).status <- Cpu.Parked;
  Alcotest.check check_stop "deadlock" Machine.Deadlock (Machine.run m ~max_insns:100)

let budget_exhausted () =
  let open Asm in
  let m, _ = assemble_and_load [ unit_ [ Label "main"; Label "spin"; j "spin" ] [] ] in
  Alcotest.check check_stop "budget" Machine.Budget_exhausted
    (Machine.run m ~max_insns:100)

let hypercall_abi () =
  (* check <-> decode_check are inverses over the callout range *)
  List.iter
    (fun (is_write, size) ->
      let n = Hypercall.check ~is_write ~size in
      Alcotest.(check (option (pair bool int)))
        (Hypercall.name n)
        (Some (is_write, size))
        (Hypercall.decode_check n))
    [ (false, 1); (false, 2); (false, 4); (true, 1); (true, 2); (true, 4) ];
  Alcotest.(check (option (pair bool int))) "non-check" None
    (Hypercall.decode_check Hypercall.san_alloc);
  Alcotest.(check string) "named" "san_free" (Hypercall.name Hypercall.san_free)

let services_putc_and_exit () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.a0 (Char.code 'o');
      trap Hypercall.putc;
      li Reg.a0 (Char.code 'k');
      trap Hypercall.putc;
      li Reg.a0 3;
      trap Hypercall.exit_;
    ]
  in
  let m, _ = assemble_and_load [ unit_ text [] ] in
  Services.install m;
  Alcotest.check check_stop "exit code" (Machine.Halted 3)
    (Machine.run m ~max_insns:1000);
  Alcotest.(check string) "console" "ok" (Machine.console_output m)

let hart_start_service () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.a0 1;
      la Reg.a1 "side";
      li Reg.a2 0x300000;
      trap Hypercall.hart_start;
      Label "wait";
      la Reg.t0 "flag";
      load W32 Reg.t1 Reg.t0 0;
      beqz Reg.t1 "wait";
      li Reg.a0 1;
      halt;
      Label "side";
      trap Hypercall.current_hart;
      la Reg.t0 "flag";
      store W32 Reg.t0 Reg.a0 0;
      Label "spin";
      j "spin";
    ]
  in
  let m, _ = assemble_and_load [ unit_ text [ Label "flag"; Words [ 0 ] ] ] in
  Services.install m;
  Alcotest.check check_stop "completes" (Machine.Halted 1)
    (Machine.run m ~max_insns:100_000)

let trace_ring () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.a0 7;
      call "callee";
      halt;
      Label "callee";
      addi Reg.a0 Reg.a0 1;
      ret;
    ]
  in
  let m, img = assemble_and_load [ unit_ text [] ] in
  let tr = Trace.attach ~capacity:8 m in
  ignore (Machine.run m ~max_insns:1000);
  let evs = Trace.events tr in
  let callee = Image.symbol_addr_exn img "callee" in
  Alcotest.(check bool) "has call event" true
    (List.exists
       (function Trace.Call { ct_target; ct_args; _ } ->
           ct_target = callee && ct_args.(0) = 7
         | _ -> false)
       evs);
  Alcotest.(check bool) "has return event" true
    (List.exists
       (function Trace.Return { rt_retval; _ } -> rt_retval = 8 | _ -> false)
       evs)

let trace_ring_eviction () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.t0 0;
      li Reg.t1 20;
      Label "loop";
      addi Reg.t0 Reg.t0 1;
      bltu Reg.t0 Reg.t1 "loop";
      halt;
    ]
  in
  let m, _ = assemble_and_load [ unit_ text [] ] in
  let tr = Trace.attach ~capacity:4 m in
  ignore (Machine.run m ~max_insns:1000);
  Alcotest.(check int) "ring keeps capacity" 4 (List.length (Trace.events tr));
  Alcotest.(check bool) "total exceeds ring" true (Trace.total tr > 4)

(* --- Execution-engine overhaul tests ------------------------------------- *)

(* Architectural fingerprint of a machine: per-hart registers/pc/retired
   insns, global counters, and a RAM digest. *)
let fingerprint m =
  let hart (c : Cpu.t) =
    Printf.sprintf "hart%d pc=%d insns=%d regs=%s" c.id c.pc c.insns
      (String.concat "," (Array.to_list (Array.map string_of_int c.regs)))
  in
  let ram =
    Digest.to_hex
      (Digest.string
         (Machine.read_string m ~addr:(Machine.ram_base m)
            ~len:(Machine.ram_size m)))
  in
  Printf.sprintf "%s | total=%d cost=%d ram=%s"
    (String.concat " | " (Array.to_list (Array.map hart m.Machine.harts)))
    m.total_insns m.cost ram

let probe_registration_order () =
  let open Asm in
  let text =
    [ Label "main"; la Reg.t0 "buf"; store W32 Reg.t0 Reg.t0 0; halt ]
  in
  let make () = assemble_and_load [ unit_ text [ Label "buf"; Words [ 0 ] ] ] in
  (* mem probes fire in registration order, including through the
     multi-subscriber dispatch path *)
  let m, _ = make () in
  let order = ref [] in
  List.iter
    (fun tag ->
      Probe.on_mem m.probes (on_each_mem (fun () -> order := tag :: !order)))
    [ 1; 2; 3 ];
  ignore (Machine.run m ~max_insns:100);
  Alcotest.(check (list int)) "mem fire order" [ 1; 2; 3 ] (List.rev !order);
  (* same for block probes (single store program runs 1 block) *)
  let m, _ = make () in
  let order = ref [] in
  List.iter
    (fun tag ->
      Probe.on_block m.probes (fun ~hart:_ ~pc:_ -> order := tag :: !order))
    [ 1; 2; 3; 4 ];
  ignore (Machine.run m ~max_insns:100);
  Alcotest.(check (list int))
    "block fire order" [ 1; 2; 3; 4 ]
    (List.filteri (fun i _ -> i < 4) (List.rev !order))

(* Loop program used by the engine tests: 10 iterations of load+store. *)
let loop_text =
  let open Asm in
  [
    Label "main";
    la Reg.t0 "buf";
    li Reg.t1 0;
    li Reg.t2 10;
    Label "loop";
    load W32 Reg.t3 Reg.t0 0;
    addi Reg.t3 Reg.t3 1;
    store W32 Reg.t0 Reg.t3 0;
    addi Reg.t1 Reg.t1 1;
    bltu Reg.t1 Reg.t2 "loop";
    load W32 Reg.a0 Reg.t0 0;
    halt;
  ]

let chained_blocks_observe_probe_patch () =
  (* run once with no probes so chained successor links form between the
     loop blocks; then subscribe a counting mem probe (site patch, no
     flush) and re-run: every access must be observed even through cached
     chain links, proving the patch reaches already-chained code with
     zero retranslation *)
  let m, _ = assemble_and_load [ unit_ loop_text [ Asm.Label "buf"; Asm.Words [ 0 ] ] ] in
  ignore (Machine.run m ~max_insns:1000);
  Alcotest.(check bool) "chains formed" true (m.stats.chained > 0);
  let translations0 = m.stats.translations in
  let count = ref 0 in
  Probe.on_mem m.probes (on_each_mem (fun () -> incr count));
  Machine.boot m;
  ignore (Machine.run m ~max_insns:1000);
  (* 10 iterations x (load + store) + final load = 21 accesses *)
  Alcotest.(check int) "all accesses observed through chains" 21 !count;
  Alcotest.(check int) "no flush on subscribe" 0 m.stats.flushes_invalidate;
  Alcotest.(check int) "no retranslation" translations0 m.stats.translations

let toggle_storm_is_flush_free () =
  (* a storm of probe subscribe/unsubscribe and cmplog toggles (including
     no-op re-toggles) must leave the invalidation-flush counter at
     exactly 0, and the machine must still run correctly from its warm
     cache *)
  let m, _ = assemble_and_load [ unit_ loop_text [ Asm.Label "buf"; Asm.Words [ 0 ] ] ] in
  ignore (Machine.run m ~max_insns:1000);
  let translations0 = m.stats.translations in
  for _ = 1 to 50 do
    let s = Probe.subscribe_mem m.probes ignore_mem in
    Probe.unsubscribe s;
    Machine.set_cmplog m true;
    Machine.set_cmplog m true (* no-op toggle: must also be free *);
    Machine.set_cmplog m false;
    Machine.set_cmplog m false;
    Probe.clear m.probes
  done;
  Machine.boot m;
  (* buf persists across the re-run: 10 increments on top of the first
     run's 10 *)
  (match Machine.run m ~max_insns:1000 with
  | Machine.Halted 20 -> ()
  | s -> Alcotest.failf "expected halted(20), got %a" Machine.pp_stop s);
  Alcotest.(check int) "zero invalidation flushes" 0
    m.stats.flushes_invalidate;
  Alcotest.(check int) "zero retranslations" translations0
    m.stats.translations

let chain_invalidation_on_flush () =
  (* cache a halt block (and chains to it), then patch its Li immediate in
     RAM: without a flush the stale translation must still be running
     (that is what a code cache means); after flush_tcg the patched code
     must take effect, proving both the hashtable and chain links died *)
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.t1 0;
      li Reg.t2 3;
      Label "loop";
      addi Reg.t1 Reg.t1 1;
      bltu Reg.t1 Reg.t2 "loop";
      li Reg.a0 11;
      halt;
    ]
  in
  let m, img = assemble_and_load [ unit_ text [] ] in
  Alcotest.check check_stop "first run" (Machine.Halted 11)
    (Machine.run m ~max_insns:1000);
  let flushes0 = m.stats.flushes_invalidate in
  (* patch the "li a0, 11" immediate (bytes 4..7, little-endian on Arm_ev) *)
  let li_addr = Image.symbol_addr_exn img "main" + (4 * Insn.size) in
  Machine.write_mem m ~addr:(li_addr + 4) ~width:4 ~value:22;
  Machine.boot m;
  Alcotest.check check_stop "stale translation without flush"
    (Machine.Halted 11)
    (Machine.run m ~max_insns:1000);
  Machine.flush_tcg m;
  Alcotest.(check int) "invalidation flush counted" (flushes0 + 1)
    m.stats.flushes_invalidate;
  Alcotest.(check int) "image load counted apart" 1 m.stats.flushes_load;
  Machine.boot m;
  Alcotest.check check_stop "patched code after flush" (Machine.Halted 22)
    (Machine.run m ~max_insns:1000)

let engine_stats_counters () =
  let m, _ = assemble_and_load [ unit_ loop_text [ Asm.Label "buf"; Asm.Words [ 0 ] ] ] in
  ignore (Machine.run m ~max_insns:1000);
  Alcotest.(check bool) "translated some blocks" true (m.stats.translations > 0);
  Alcotest.(check bool) "loop chained" true (m.stats.chained > 0);
  Alcotest.(check bool) "chain rate positive" true
    (Engine_stats.chain_rate m.stats > 0.0);
  let translations0 = m.stats.translations in
  Machine.boot m;
  ignore (Machine.run m ~max_insns:1000);
  Alcotest.(check int) "second run fully cached/chained" translations0
    m.stats.translations

(* The schema-versioned JSON block renders every counter -- chaining,
   the split flush counters and the rehost pair -- under its own key, both
   on a synthetic record and on counters taken from a live machine, and
   leads with the schema tag. *)
let engine_stats_json_roundtrip () =
  let renders_every_counter label (st : Engine_stats.t) =
    let json = Engine_stats.to_json st in
    let has field =
      let n = String.length field in
      let rec go i =
        i + n <= String.length json
        && (String.sub json i n = field || go (i + 1))
      in
      go 0
    in
    List.iter
      (fun (key, v) ->
        let field = Printf.sprintf "\"%s\": %d," key v in
        Alcotest.(check bool) (label ^ " " ^ field) true (has field))
      [
        ("translations", st.translations);
        ("cache_hits", st.cache_hits);
        ("cache_misses", st.cache_misses);
        ("chained_transfers", st.chained);
        ("flushes_load", st.flushes_load);
        ("flushes_invalidate", st.flushes_invalidate);
        ("rehost_reads", st.rehost_reads);
        ("irq_injected", st.irq_injected);
      ]
  in
  let s = Engine_stats.create () in
  s.translations <- 3;
  s.cache_hits <- 5;
  s.cache_misses <- 7;
  s.chained <- 11;
  s.flushes_load <- 13;
  s.flushes_invalidate <- 17;
  s.rehost_reads <- 37;
  s.irq_injected <- 41;
  renders_every_counter "synthetic" s;
  let m, _ = assemble_and_load [ unit_ loop_text [ Asm.Label "buf"; Asm.Words [ 0 ] ] ] in
  ignore (Machine.run m ~max_insns:1000);
  renders_every_counter "live-machine" m.stats;
  let tagged =
    Printf.sprintf "\"schema\": \"%s\"" Engine_stats.schema
  in
  let json = Engine_stats.to_json m.stats in
  Alcotest.(check bool) "schema tag emitted" true
    (String.length json >= String.length tagged
    && String.sub json 1 (String.length tagged) = tagged)

(* Both harts run this loop 1000 times under the built-in round-robin
   rotation: load a shared word, branch on the iteration counter's parity,
   add 1 on either path and store the word back.  Nothing is atomic and
   the load and the store sit in different blocks, so which updates
   survive depends on exactly where each hart turn ends. *)
let racy_loop =
  let open Asm in
  let text =
    [
      Label "main";
      la Reg.t0 "shared";
      li Reg.t1 0;
      li Reg.t2 1000;
      Label "loop";
      load W32 Reg.t3 Reg.t0 0;
      Ins (Alui (And, Reg.t4, Reg.t1, 1));
      beq Reg.t4 Reg.zero "even";
      addi Reg.t3 Reg.t3 1;
      j "join";
      Label "even";
      addi Reg.t3 Reg.t3 1;
      j "join";
      Label "join";
      store W32 Reg.t0 Reg.t3 0;
      addi Reg.t1 Reg.t1 1;
      bltu Reg.t1 Reg.t2 "loop";
      load W32 Reg.a0 Reg.t0 0;
      halt;
    ]
  in
  unit_ text [ Label "shared"; Words [ 0 ] ]

(* A turn ends only where the chain budget, the deadline and guest
   control flow put it, so flushing the translation cache after every
   chunk of a two-hart round-robin run changes nothing: same stop,
   registers, counters and RAM as the warm run, for chunks that split the
   run into many slices and one that does not. *)
let flush_invisible_to_round_robin () =
  let run ~chunk ~flush =
    let m, img = assemble_and_load [ racy_loop ] in
    Machine.start_hart m 1 ~pc:(Image.symbol_addr_exn img "main")
      ~sp:(Machine.ram_base m + Machine.ram_size m - 4096);
    let rec go () =
      match Machine.run m ~max_insns:chunk with
      | Machine.Budget_exhausted when m.total_insns < 1_000_000 ->
          if flush then Machine.flush_tcg m;
          go ()
      | stop -> stop
    in
    let stop = go () in
    (stop, fingerprint m)
  in
  List.iter
    (fun chunk ->
      let stop_w, fp_w = run ~chunk ~flush:false in
      let stop_f, fp_f = run ~chunk ~flush:true in
      let name what = Printf.sprintf "chunk %d: %s" chunk what in
      (match stop_w with
      | Machine.Halted _ -> ()
      | s -> Alcotest.failf "%s: %a" (name "warm run halts") Machine.pp_stop s);
      Alcotest.check check_stop (name "same stop") stop_w stop_f;
      Alcotest.(check string) (name "same registers and RAM") fp_w fp_f)
    [ 200; 500; 100_000 ]

let cmplog_compare_coverage () =
  (* branch/compare sites record operand triples when enabled: the magic
     constant of an equality guard must land in the operand dictionary,
     and the per-window features must be deterministic across identical
     re-runs *)
  let open Asm in
  let magic = 0xDEAD_BEE in
  let text =
    [
      Label "main";
      la Reg.t0 "input";
      load W32 Reg.t1 Reg.t0 0;
      (* MiniC-style equality synthesis: xor against the magic, sltu 1 *)
      Ins (Alui (Xor, Reg.t2, Reg.t1, magic));
      Ins (Alui (Sltu, Reg.t2, Reg.t2, 1));
      (* and a direct reg-reg compare against the same constant *)
      li Reg.t3 magic;
      beq Reg.t1 Reg.t3 "win";
      li Reg.a0 0;
      halt;
      Label "win";
      li Reg.a0 1;
      halt;
    ]
  in
  let data = [ Label "input"; Words [ 3 ] ] in
  let m, _ = assemble_and_load ~harts:1 [ unit_ text data ] in
  Machine.set_cmplog m true;
  Alcotest.check check_stop "guard not taken" (Machine.Halted 0)
    (Machine.run m ~max_insns:1000);
  let dict = Array.to_list (Cmplog.dict_values m.cmplog) in
  Alcotest.(check bool) "magic in dictionary" true (List.mem magic dict);
  let feats = Cmplog.features m.cmplog in
  Alcotest.(check bool) "features recorded" true (feats <> []);
  List.iter
    (fun (i, b) ->
      Alcotest.(check bool) "disjoint from edge space" true
        (i >= Cmplog.feature_base);
      Alcotest.(check int) "presence bucket" 1 b)
    feats;
  (* new window, same execution -> identical features; dict persists *)
  Cmplog.reset m.cmplog;
  Alcotest.(check (list (pair int int))) "window cleared" []
    (Cmplog.features m.cmplog);
  Machine.boot m;
  ignore (Machine.run m ~max_insns:1000);
  Alcotest.(check (list (pair int int))) "deterministic features" feats
    (Cmplog.features m.cmplog);
  Alcotest.(check bool) "dict persists across windows" true
    (List.mem magic (Array.to_list (Cmplog.dict_values m.cmplog)));
  Alcotest.(check int) "no flush from cmplog" 0 m.stats.flushes_invalidate;
  (* sites stay silent when disabled *)
  let m2, _ = assemble_and_load ~harts:1 [ unit_ text data ] in
  ignore (Machine.run m2 ~max_insns:1000);
  Alcotest.(check int) "disabled records nothing" 0 (Cmplog.dict_size m2.cmplog)

let cmplog_agreement_gradient () =
  Alcotest.(check int) "equal" 4 (Cmplog.agreement 0xDEAD_BEE 0xDEAD_BEE);
  Alcotest.(check int) "three low bytes" 3
    (Cmplog.agreement 0x11AD_BEEF 0xDEAD_BEEF);
  Alcotest.(check int) "two low bytes" 2
    (Cmplog.agreement 0x1111_BEEF 0xDEAD_BEEF);
  Alcotest.(check int) "one low byte" 1
    (Cmplog.agreement 0x1111_11EF 0xDEAD_BEEF);
  Alcotest.(check int) "none" 0 (Cmplog.agreement 1 2)

(* [iters] iterations of a W32 store, a load and a call to an AMO plus a
   W8 store, then a final load: 4 * [iters] + 1 memory accesses.  Halts
   with [iters], the AMO's count. *)
let access_loop iters =
  let open Asm in
  let text =
    [
      Label "main";
      la Reg.t0 "buf";
      addi Reg.s1 Reg.t0 4;
      li Reg.t1 0;
      li Reg.t2 iters;
      li Reg.t3 1;
      Label "loop";
      store W32 Reg.t0 Reg.t1 0;
      load W32 Reg.t4 Reg.t0 0;
      call "bump";
      addi Reg.t1 Reg.t1 1;
      bltu Reg.t1 Reg.t2 "loop";
      load W32 Reg.a0 Reg.t0 4;
      halt;
      Label "bump";
      Ins (Amo (Amo_add, Reg.s0, Reg.s1, Reg.t3));
      store W8 Reg.t0 Reg.t4 8;
      ret;
    ]
  in
  unit_ text [ Label "buf"; Words [ 0; 0; 0 ] ]

(* Probe callbacks observe the retired-insn counter: the fast engine
   pre-charges a whole block, so each armed mem site rewinds the counter
   to its own instruction around the subscriber call.  The access loop,
   run 300 times, must hand the subscriber the same (pc, total_insns)
   stream on the fast engine as on the per-instruction baseline. *)
let probe_counters_exact () =
  let run engine =
    let m, _ = assemble_and_load ~harts:1 [ access_loop 300 ] in
    Machine.set_engine m engine;
    let events = ref [] in
    Probe.on_mem m.probes
      (Probe.every_mem
         (fun ~hart:_ ~pc ~addr:_ ~size:_ ~is_write:_ ~is_atomic:_ ~value:_ ->
           events := (pc, m.Machine.total_insns) :: !events));
    let stop = Machine.run m ~max_insns:100_000 in
    (stop, List.rev !events)
  in
  let stop_b, events_b = run Machine.Baseline in
  let stop_f, events_f = run Machine.Fast in
  Alcotest.check check_stop "loop completes" (Machine.Halted 300) stop_b;
  Alcotest.check check_stop "same stop" stop_b stop_f;
  Alcotest.(check int) "four accesses per iteration, plus the last load"
    ((4 * 300) + 1) (List.length events_b);
  Alcotest.check
    Alcotest.(list (pair int int))
    "fast = baseline" events_b events_f

(* An armed mem site fires its subscribers and then runs the unarmed
   site's access, so probing allocates nothing on the fast engine: the
   access loop's 400001 probed accesses allocate no more minor-heap words
   than the same run unarmed. *)
let armed_site_allocates_nothing () =
  let run ~armed =
    let m, _ = assemble_and_load ~harts:1 [ access_loop 100_000 ] in
    let events = ref 0 in
    if armed then Probe.on_mem m.probes (on_each_mem (fun () -> incr events));
    let w0 = Gc.minor_words () in
    let stop = Machine.run m ~max_insns:10_000_000 in
    let words = Gc.minor_words () -. w0 in
    Alcotest.check check_stop "loop completes" (Machine.Halted 100_000) stop;
    Alcotest.(check int) "events" (if armed then 400_001 else 0) !events;
    words
  in
  let unarmed = run ~armed:false in
  let armed = run ~armed:true in
  if armed -. unarmed > 1000. then
    Alcotest.failf "armed run allocated %.0f minor words, unarmed %.0f" armed
      unarmed;
  (* the same loop under a ready EmbSan-D KASAN runtime that intercepts an
     allocator: its 100000 returns each run the runtime's return site,
     and its accesses the inline guard or KASAN's site.  Measured on a
     second run, once the blocks are translated and the sites bound. *)
  let m, img = assemble_and_load ~harts:1 [ access_loop 100_000 ] in
  let spec =
    {
      Embsan_core.(Distiller.distill [ Sanitizer.spec Kasan.plugin ]) with
      Embsan_core.Dsl.functions =
        [
          {
            Embsan_core.Dsl.f_name = "kmalloc";
            f_addr = Image.symbol_addr_exn img "main";
            f_size = 0;
            f_kind = `Alloc 0;
          };
        ];
    }
  in
  let rt = Embsan_core.Runtime.attach ~spec ~mode:Embsan_core.Runtime.D m in
  m.mailbox.Devices.on_ready ();
  Alcotest.(check bool) "returns probed" true (Probe.has_rets m.probes);
  ignore (Machine.run m ~max_insns:10_000_000);
  Machine.boot m;
  let events0 = !(rt.mem_events) in
  let w0 = Gc.minor_words () in
  let stop = Machine.run m ~max_insns:10_000_000 in
  let words = Gc.minor_words () -. w0 in
  Alcotest.check check_stop "runtime loop completes" (Machine.Halted 200_000)
    stop;
  Alcotest.(check int) "runtime events" 400_001 (!(rt.mem_events) - events0);
  if words > 1000. then
    Alcotest.failf "runtime-probed run allocated %.0f minor words" words

(* A device access from translated code allocates nothing either: device
   dispatch returns an index and the counter rewind around the callout is
   inline.  A loop of 100000 timer reads and UART writes allocates no more
   minor-heap words on the fast engine than the same loop against RAM
   (the UART's growing console buffer stays within the tolerance).  The
   RAM loop itself allocates under half a word per hart turn, and no more
   with a block subscriber attached. *)
let device_access_allocates_nothing () =
  let iters = 100_000 in
  let run ?(blocks = false) ~devices () =
    let open Asm in
    let text =
      [
        Label "main";
        (if devices then li Reg.t0 Devices.timer_base else la Reg.t0 "buf");
        (if devices then li Reg.t3 Devices.uart_base else la Reg.t3 "out");
        li Reg.t1 0;
        li Reg.t2 iters;
        Label "loop";
        load W32 Reg.t4 Reg.t0 0;
        store W8 Reg.t3 Reg.t4 0;
        addi Reg.t1 Reg.t1 1;
        bltu Reg.t1 Reg.t2 "loop";
        li Reg.a0 0;
        halt;
      ]
    in
    let m, _ =
      assemble_and_load ~harts:1
        [ unit_ text [ Label "buf"; Words [ 0 ]; Label "out"; Words [ 0 ] ] ]
    in
    let entered = ref 0 in
    if blocks then Probe.on_block m.probes (fun ~hart:_ ~pc:_ -> incr entered);
    let w0 = Gc.minor_words () in
    let stop = Machine.run m ~max_insns:10_000_000 in
    let words = Gc.minor_words () -. w0 in
    Alcotest.check check_stop "loop completes" (Machine.Halted 0) stop;
    Alcotest.(check int) "console bytes" (if devices then iters else 0)
      (String.length (Machine.console_output m));
    if blocks && !entered < iters then
      Alcotest.failf "block subscriber saw %d blocks" !entered;
    words
  in
  let ram = run ~devices:false () in
  let devices = run ~devices:true () in
  if devices -. ram > 1000. then
    Alcotest.failf "device loop allocated %.0f minor words, RAM loop %.0f"
      devices ram;
  (* and the RAM loop itself: its one-iteration blocks end a hart turn
     every 16 blocks (the chain limit), and a turn allocates nothing; what
     is left is translation *)
  let turns = float_of_int iters /. 16. in
  if ram /. turns > 0.5 then
    Alcotest.failf "RAM loop allocated %.0f minor words over %.0f hart turns"
      ram turns;
  (* a block subscriber gets the hart and pc as labelled arguments, so
     attaching one to the RAM loop allocates no event record per block *)
  let blocks = run ~blocks:true ~devices:false () in
  if blocks -. ram > 1000. then
    Alcotest.failf "RAM loop with a block subscriber allocated %.0f minor words, \
                    without %.0f" blocks ram

(* --- Specialized sites and the site generation ---------------------------- *)

(* Run [f engine] on both engines; [f] gets a fresh machine loaded with
   [units] and already switched to [engine], and the invalidation-flush
   count at that point (switching to Baseline flushes once). *)
let on_both_engines units f =
  List.iter
    (fun engine ->
      let m, img = assemble_and_load ~harts:1 units in
      Machine.set_engine m engine;
      f engine m img m.stats.flushes_invalidate)
    [ Machine.Fast; Machine.Baseline ]

let engine_name = function
  | Machine.Fast -> "fast"
  | Machine.Baseline -> "baseline"

(* A translated [trap N] binds N's handler through the trap table and
   keeps it until the table changes: replacing the handler after the
   block is cached reaches the next run without a flush or (on the fast
   engine) a retranslation.  A handler may specialize on its trap's pc; the fast
   engine binds it once per site and generation. *)
let trap_sites_rebind () =
  let open Asm in
  let text = [ Label "main"; li Reg.a0 5; Label "t"; trap 3; halt ] in
  on_both_engines [ unit_ text [] ] (fun engine m img fi0 ->
      let name s = engine_name engine ^ ": " ^ s in
      let trap_pc = Image.symbol_addr_exn img "t" in
      let rerun () =
        Machine.boot m;
        Machine.run m ~max_insns:100
      in
      let binds = ref 0 in
      Machine.set_trap_site m 3 (fun ~pc ->
          incr binds;
          fun _m cpu -> Cpu.set cpu Reg.a0 (pc - trap_pc + 11));
      Alcotest.check check_stop (name "bound at its own pc") (Machine.Halted 11)
        (rerun ());
      Alcotest.check check_stop (name "cached binding") (Machine.Halted 11)
        (rerun ());
      if engine = Machine.Fast then
        Alcotest.(check int) (name "bound once") 1 !binds;
      let translations = m.stats.translations in
      Machine.set_trap_handler m 3 (fun _m cpu -> Cpu.set cpu Reg.a0 22);
      Alcotest.check check_stop (name "replaced handler runs")
        (Machine.Halted 22) (rerun ());
      Alcotest.(check int) (name "no flush") fi0 m.stats.flushes_invalidate;
      if engine = Machine.Fast then
        Alcotest.(check int) (name "no retranslation") translations
          m.stats.translations)

(* Every kind of access, each at a labelled pc. *)
let site_text =
  let open Asm in
  [
    Label "main";
    la Reg.t0 "buf";
    li Reg.t1 7;
    Label "st8";
    store W8 Reg.t0 Reg.t1 1;
    Label "ld16";
    load W16 Reg.t2 Reg.t0 2;
    Label "st32";
    store W32 Reg.t0 Reg.t1 4;
    Label "ld32";
    load W32 Reg.t3 Reg.t0 4;
    Label "amo";
    Ins (Amo (Amo_add, Reg.t4, Reg.t0, Reg.t1));
    halt;
  ]

(* A mem subscriber added after the block is cached is asked, per
   instruction, with exactly that instruction's static facts, and its
   site runs with the access's address and value.  A second subscriber
   that returns [no_site] for one pc is never called there. *)
let mem_sites_specialize () =
  on_both_engines
    [ unit_ site_text [ Asm.Label "buf"; Asm.Words [ 0; 0 ] ] ]
    (fun engine m img fi0 ->
      let name s = engine_name engine ^ ": " ^ s in
      let at l = Image.symbol_addr_exn img l in
      let buf = at "buf" in
      ignore (Machine.run m ~max_insns:100);
      let translations = m.stats.translations in
      let facts = Hashtbl.create 8 and fired = ref [] in
      Probe.on_mem m.probes (fun ~pc ~size ~is_write ~is_atomic ->
          Hashtbl.replace facts pc (size, is_write, is_atomic);
          let site ~hart:_ ~addr ~value = fired := (pc, addr, value) :: !fired in
          site);
      let skipped = at "ld16" and called = ref [] in
      Probe.on_mem m.probes (fun ~pc ~size:_ ~is_write:_ ~is_atomic:_ ->
          if pc = skipped then Probe.no_site
          else fun ~hart:_ ~addr:_ ~value:_ -> called := pc :: !called);
      Machine.boot m;
      ignore (Machine.run m ~max_insns:100);
      let fact l =
        match Hashtbl.find_opt facts (at l) with
        | Some f -> f
        | None -> Alcotest.failf "%s: no site specialized at %s" (name "") l
      in
      let facts_t = Alcotest.(triple int bool bool) in
      Alcotest.check facts_t (name "W8 store") (1, true, false) (fact "st8");
      Alcotest.check facts_t (name "W16 load") (2, false, false) (fact "ld16");
      Alcotest.check facts_t (name "W32 store") (4, true, false) (fact "st32");
      Alcotest.check facts_t (name "W32 load") (4, false, false) (fact "ld32");
      Alcotest.check facts_t (name "AMO") (4, true, true) (fact "amo");
      Alcotest.(check (list (triple int int int)))
        (name "sites fire with address and value")
        [
          (at "st8", buf + 1, 7);
          (at "ld16", buf + 2, 0);
          (at "st32", buf + 4, 7);
          (at "ld32", buf + 4, 0);
          (at "amo", buf, 7);
        ]
        (List.rev !fired);
      Alcotest.(check (list int))
        (name "no_site pc skipped, the others called")
        [ at "st8"; at "st32"; at "ld32"; at "amo" ]
        (List.rev !called);
      Alcotest.(check int) (name "no flush") fi0 m.stats.flushes_invalidate;
      if engine = Machine.Fast then
        Alcotest.(check int) (name "no retranslation") translations
          m.stats.translations)

(* EmbSan-D's allocator interception binds each direct call once: a call
   to the allocator reaches the runtime, a call to anything else has
   nothing to do.  Attaching after the block is cached must rebind the
   call sites, not leave them bound to "nothing". *)
let direct_alloc_call_reaches_runtime () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.a0 24;
      call "kmalloc";
      call "other";
      halt;
      Label "kmalloc";
      la Reg.a0 "pool";
      ret;
      Label "other";
      ret;
    ]
  in
  on_both_engines
    [ unit_ text [ Label "pool"; Words [ 0; 0; 0; 0; 0; 0; 0; 0 ] ] ]
    (fun engine m img fi0 ->
      let name s = engine_name engine ^ ": " ^ s in
      ignore (Machine.run m ~max_insns:100);
      let translations = m.stats.translations in
      let kmalloc = Image.symbol_addr_exn img "kmalloc" in
      let spec =
        {
          Embsan_core.Dsl.empty with
          sanitizers = [ "kasan" ];
          functions =
            [
              {
                Embsan_core.Dsl.f_name = "kmalloc";
                f_addr = kmalloc;
                f_size = Image.symbol_addr_exn img "other" - kmalloc;
                f_kind = `Alloc 0;
              };
            ];
        }
      in
      let rt = Embsan_core.Runtime.attach ~spec ~mode:Embsan_core.Runtime.D m in
      Machine.boot m;
      ignore (Machine.run m ~max_insns:100);
      Alcotest.(check int) (name "allocator call intercepted") 1
        rt.intercepted_calls;
      Alcotest.(check int) (name "no flush") fi0 m.stats.flushes_invalidate;
      if engine = Machine.Fast then
        Alcotest.(check int) (name "no retranslation") translations
          m.stats.translations)

(* A deterministic two-hart workload mixing AMO, calls/rets, loads/stores
   and branches; both harts increment a shared counter 200 times and halt
   with its final value once both are done. *)
let differential_worker label =
  let open Asm in
  [
    Asm.Label label;
    la Reg.t0 "counter";
    li Reg.t1 0;
    li Reg.t2 200;
    li Reg.t3 1;
    Label (label ^ "_loop");
    Ins (Amo (Amo_add, Reg.t4, Reg.t0, Reg.t3));
    mv Reg.a0 Reg.t4;
    call "mix";
    addi Reg.t1 Reg.t1 1;
    bltu Reg.t1 Reg.t2 (label ^ "_loop");
    Label (label ^ "_wait");
    load W32 Reg.t4 Reg.t0 0;
    li Reg.s0 400;
    bltu Reg.t4 Reg.s0 (label ^ "_wait");
    load W32 Reg.a0 Reg.t0 0;
    halt;
  ]

let differential_text =
  let open Asm in
  (Asm.Label "main" :: Asm.j "w0" :: differential_worker "w0")
  @ differential_worker "w1"
  @ [
      Label "mix";
      la Reg.s1 "scratch";
      store W32 Reg.s1 Reg.a0 0;
      load W16 Reg.a0 Reg.s1 0;
      store W8 Reg.s1 Reg.a0 4;
      load W8 ~signed:true Reg.a0 Reg.s1 4;
      addi Reg.a0 Reg.a0 3;
      ret;
    ]

let differential_data =
  [ Asm.Label "counter"; Asm.Words [ 0 ]; Asm.Label "scratch"; Asm.Words [ 0; 0 ] ]

let run_differential ~probed =
  let m, img = assemble_and_load [ unit_ differential_text differential_data ] in
  Machine.start_hart m 1 ~pc:(Image.symbol_addr_exn img "w1")
    ~sp:(Machine.ram_base m + Machine.ram_size m - 4096);
  if probed then begin
    Probe.on_mem m.probes ignore_mem;
    Probe.on_call m.probes (Probe.every_call ignore);
    Probe.on_ret m.probes (Probe.every_ret (fun _ -> ()));
    Probe.on_block m.probes (fun ~hart:_ ~pc:_ -> ())
  end;
  let stop = Machine.run m ~max_insns:1_000_000 in
  (stop, fingerprint m)

let differential_probe_semantics () =
  (* probed (subscribers fired before each access) and unprobed execution
     must be architecturally identical: same stop, registers, pcs, RAM,
     retired-insn counts and modeled cost *)
  let stop_off, fp_off = run_differential ~probed:false in
  let stop_on, fp_on = run_differential ~probed:true in
  Alcotest.check check_stop "same stop reason" stop_off stop_on;
  Alcotest.(check string) "identical architectural state" fp_off fp_on;
  match stop_off with
  | Machine.Halted 400 -> ()
  | s -> Alcotest.failf "expected halted(400), got %a" Machine.pp_stop s

let fast_baseline_equivalence () =
  (* the chained/batched fast engine and the per-instruction baseline
     interpreter must retire identical architectural state, including the
     exact total_insns/cost at an exceptional (halt) exit and MMIO side
     effects *)
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.t0 Devices.uart_base;
      li Reg.t1 (Char.code 'x');
      store W8 Reg.t0 Reg.t1 0;
      la Reg.t0 "buf";
      li Reg.t1 0;
      li Reg.t2 25;
      Label "loop";
      Ins (Alu (Mul, Reg.t3, Reg.t1, Reg.t1));
      store W32 Reg.t0 Reg.t3 0;
      load W16 Reg.t4 Reg.t0 0;
      call "mix";
      Ins (Amo (Amo_add, Reg.s2, Reg.t0, Reg.t4));
      addi Reg.t1 Reg.t1 1;
      bltu Reg.t1 Reg.t2 "loop";
      trap 7;
      load W32 Reg.a0 Reg.t0 0;
      halt;
      Label "mix";
      addi Reg.t4 Reg.t4 13;
      ret;
    ]
  in
  let data = [ Label "buf"; Words [ 0; 0 ] ] in
  let run_engine engine =
    let m, _ = assemble_and_load ~harts:1 [ unit_ text data ] in
    Machine.set_engine m engine;
    Machine.set_trap_handler m 7 (fun _m cpu ->
        Cpu.set cpu Reg.s1 (Cpu.get cpu Reg.t1));
    let stop = Machine.run m ~max_insns:100_000 in
    (stop, fingerprint m, Machine.console_output m)
  in
  let stop_f, fp_f, con_f = run_engine Machine.Fast in
  let stop_b, fp_b, con_b = run_engine Machine.Baseline in
  Alcotest.check check_stop "same stop" stop_b stop_f;
  Alcotest.(check string) "same console" con_b con_f;
  Alcotest.(check string) "identical architectural state" fp_b fp_f

(* --- Differential-harness regressions ------------------------------------ *)

(* One unit check per Ram.fault reason branch.  The straddle case (starts
   inside RAM, runs past the end) used to be misclassified as "unmapped
   address" because only the start address was compared to the limit. *)
let ram_fault_reasons () =
  let ram = Ram.create ~base:0x1_0000 ~size:0x1000 in
  let reason addr size =
    match Ram.check ram { hart = 0; pc = 0; addr; size; is_write = false } with
    | () -> "ok"
    | exception Fault.Memory_fault (_, r) -> r
  in
  Alcotest.(check string) "in bounds" "ok" (reason 0x1_0000 4);
  Alcotest.(check string) "null page" "null pointer dereference" (reason 0x4 4);
  Alcotest.(check string) "past end" "access beyond RAM" (reason 0x1_1000 4);
  Alcotest.(check string) "straddles end" "access beyond RAM" (reason 0x1_0FFE 4);
  Alcotest.(check string) "unmapped hole" "unmapped address" (reason 0x8000 4)

(* Same classification observed through the engine: a 4-byte store at
   limit-2 must fault as beyond-RAM, not unmapped. *)
let straddling_store_fault () =
  let open Asm in
  let lim = 0x1_0000 + (4 * 1024 * 1024) in
  let text =
    [ Label "main"; li Reg.t0 (lim - 2); store W32 Reg.t0 Reg.t0 0; halt ]
  in
  let m, _ = assemble_and_load ~harts:1 [ unit_ text [] ] in
  let stop = Machine.run m ~max_insns:100 in
  (match stop with
  | Machine.Fault (acc, "access beyond RAM") when acc.addr = lim - 2 -> ()
  | s -> Alcotest.failf "expected straddle fault, got %a" Machine.pp_stop s);
  armed_stops_agree ~harts:1 text stop

let ram_width_contracts () =
  let ram = Ram.create ~base:0x1_0000 ~size:0x100 in
  (* write32 stores exactly the low 32 bits of any int *)
  Ram.write32 ram 0x1_0000 0x1_2345_6789;
  Alcotest.(check int) "write32 masks" 0x2345_6789 (Ram.read32 ram 0x1_0000);
  Ram.write32 ram 0x1_0008 0xFFFF_FFFF;
  Alcotest.(check int) "write32 keeps bit 31" 0xFFFF_FFFF (Ram.read32 ram 0x1_0008);
  (* the width-1 dispatch path and the unsafe byte accessors agree *)
  Ram.write ram 0x1_0010 1 0x1AB;
  Alcotest.(check int) "width-1 write = write8" (Ram.read8 ram 0x1_0010)
    (Ram.read ram 0x1_0010 1);
  Alcotest.(check int) "byte masked" 0xAB (Ram.read8 ram 0x1_0010);
  Ram.write8 ram 0x1_0011 0x7F;
  Alcotest.(check int) "width-1 read = read8" 0x7F (Ram.read ram 0x1_0011 1)

(* [Pages.zeroed] hands out zeroed blocks whatever memory it recycles:
   each size is allocated, checked, dirtied and dropped, with a full major
   collection in between so that later rounds reuse the freed blocks.
   The sizes straddle a page and the 128 KiB floor below which the stub
   clears with memset instead of dropping the pages. *)
let ram_zeroed_blocks () =
  let floor = 128 * 1024 in
  List.iter
    (fun n ->
      for round = 1 to 3 do
        let b = Pages.zeroed n in
        if not (Bytes.for_all (fun c -> c = '\000') b) then
          Alcotest.failf "Pages.zeroed %d, round %d: not all zero" n round;
        Bytes.fill b 0 n '\xFF';
        Gc.full_major ()
      done)
    [ 0; 1; 4095; 4096; 4097; floor - 1; floor; floor + 1; (4 lsl 20) + 3 ]

(* Pinned regression for a divergence the differential harness found
   (fast-vs-baseline oracle): a timer read in the middle of a translated
   block observed the fast engine's batched block pre-charge -- the whole
   block's retired-insn total -- instead of the precise count after the
   load itself, as the per-instruction-ticking baseline shows.  The halt
   code is the timer value, so the test pins both cross-engine equality
   and the exact count (2 insns retired when the load completes). *)
let timer_mid_block_precise () =
  let open Asm in
  let text =
    [
      Label "main";
      li Reg.t0 Devices.timer_base;
      load W32 Reg.t1 Reg.t0 0;
      (* block tail after the device read: this is what the pre-charge
         used to leak into the timer value *)
      Ins Insn.Nop;
      Ins Insn.Nop;
      mv Reg.a0 Reg.t1;
      halt;
    ]
  in
  let run_engine engine ~probed =
    let m, _ = assemble_and_load ~harts:1 [ unit_ text [] ] in
    Machine.set_engine m engine;
    if probed then Probe.on_mem m.probes ignore_mem;
    Machine.run m ~max_insns:1000
  in
  let fast = run_engine Machine.Fast ~probed:false in
  let fast_probed = run_engine Machine.Fast ~probed:true in
  let base = run_engine Machine.Baseline ~probed:false in
  Alcotest.check check_stop "fast = baseline" base fast;
  Alcotest.check check_stop "probed fast = baseline" base fast_probed;
  match base with
  | Machine.Halted n -> Alcotest.(check int) "precise mid-block count" 2 n
  | s -> Alcotest.failf "unexpected stop %a" Machine.pp_stop s

(* Drift guard for the hypercall callout numbering: the EmbSan-C codegen
   and the runtime's trap installation both go through check/decode_check,
   so a renumbering that breaks the round-trip, or a sanitizer callout
   slot losing its name, must fail loudly here rather than as silently
   missed checks. *)
let hypercall_numbering_stable () =
  List.iter
    (fun is_write ->
      List.iter
        (fun size ->
          let n = Hypercall.check ~is_write ~size in
          Alcotest.(check (option (pair bool int)))
            (Printf.sprintf "decode (check ~is_write:%b ~size:%d)" is_write
               size)
            (Some (is_write, size))
            (Hypercall.decode_check n))
        [ 1; 2; 4 ])
    [ false; true ];
  (* every sanitizer callout slot 16..29 must carry a real name *)
  for n = 16 to 29 do
    let default = Printf.sprintf "trap%d" n in
    if String.equal (Hypercall.name n) default then
      Alcotest.failf "callout %d has no name (got default %S)" n default
  done;
  (* and decode_check must reject everything outside the check range *)
  List.iter
    (fun n ->
      Alcotest.(check (option (pair bool int)))
        (Printf.sprintf "decode_check %d" n)
        None (Hypercall.decode_check n))
    [ 0; 15; 22; 23; 29; 30 ]

let () =
  Alcotest.run "embsan_emu"
    [
      ( "exec",
        [
          Alcotest.test_case "halt code" `Quick run_halt_code;
          Alcotest.test_case "factorial" `Quick arithmetic_program;
          Alcotest.test_case "budget" `Quick budget_exhausted;
          Alcotest.test_case "deadlock" `Quick deadlock_detected;
        ] );
      ( "devices",
        [
          Alcotest.test_case "uart console" `Quick uart_console;
          Alcotest.test_case "power halts" `Quick power_device_halts;
          Alcotest.test_case "mailbox protocol" `Quick mailbox_protocol;
          Alcotest.test_case "device access allocates nothing" `Quick
            device_access_allocates_nothing;
        ] );
      ( "faults",
        [
          Alcotest.test_case "null deref" `Quick null_deref_faults;
          Alcotest.test_case "out-of-ram" `Quick oob_ram_faults;
          Alcotest.test_case "unhandled trap" `Quick unhandled_trap_stops;
          Alcotest.test_case "trap handler" `Quick trap_handler_dispatch;
        ] );
      ( "probes",
        [
          Alcotest.test_case "mem events" `Quick mem_probe_events;
          Alcotest.test_case "subscription patches live blocks" `Quick
            probe_subscription_patches_live_blocks;
          Alcotest.test_case "unsubscribe idempotent" `Quick
            probe_unsubscribe_idempotent;
          Alcotest.test_case "call/ret events" `Quick call_ret_probes;
          Alcotest.test_case "registration order" `Quick
            probe_registration_order;
          Alcotest.test_case "callbacks see exact counters" `Quick
            probe_counters_exact;
          Alcotest.test_case "armed site allocates nothing" `Quick
            armed_site_allocates_nothing;
          Alcotest.test_case "trap sites rebind on a generation change" `Quick
            trap_sites_rebind;
          Alcotest.test_case "mem sites specialize per instruction" `Quick
            mem_sites_specialize;
          Alcotest.test_case "direct allocator call reaches the runtime"
            `Quick direct_alloc_call_reaches_runtime;
        ] );
      ( "engine",
        [
          Alcotest.test_case "chained blocks observe probe patch" `Quick
            chained_blocks_observe_probe_patch;
          Alcotest.test_case "toggle storm is flush-free" `Quick
            toggle_storm_is_flush_free;
          Alcotest.test_case "chain invalidation on flush" `Quick
            chain_invalidation_on_flush;
          Alcotest.test_case "stats counters" `Quick engine_stats_counters;
          Alcotest.test_case "stats JSON round-trip" `Quick
            engine_stats_json_roundtrip;
          Alcotest.test_case "flush invisible to two-hart round-robin"
            `Quick flush_invisible_to_round_robin;
          Alcotest.test_case "cmplog compare coverage" `Quick
            cmplog_compare_coverage;
          Alcotest.test_case "cmplog agreement gradient" `Quick
            cmplog_agreement_gradient;
          Alcotest.test_case "probed/unprobed differential" `Quick
            differential_probe_semantics;
          Alcotest.test_case "fast/baseline equivalence" `Quick
            fast_baseline_equivalence;
          Alcotest.test_case "ram fault reasons" `Quick ram_fault_reasons;
          Alcotest.test_case "straddling store fault" `Quick
            straddling_store_fault;
          Alcotest.test_case "ram width contracts" `Quick ram_width_contracts;
          Alcotest.test_case "ram zeroed blocks" `Quick ram_zeroed_blocks;
          Alcotest.test_case "timer precise mid-block" `Quick
            timer_mid_block_precise;
        ] );
      ( "smp",
        [
          Alcotest.test_case "interleaving" `Quick multi_hart_interleaving;
          Alcotest.test_case "amo atomicity" `Quick amo_atomicity;
          Alcotest.test_case "stall and retry" `Quick stall_and_retry;
        ] );
      ( "accounting",
        [ Alcotest.test_case "cost model" `Quick cost_model_counts ] );
      ( "services",
        [
          Alcotest.test_case "hypercall ABI" `Quick hypercall_abi;
          Alcotest.test_case "callout numbering stable" `Quick
            hypercall_numbering_stable;
          Alcotest.test_case "putc and exit" `Quick services_putc_and_exit;
          Alcotest.test_case "hart_start / current_hart" `Quick
            hart_start_service;
        ] );
      ( "trace",
        [
          Alcotest.test_case "call/ret events" `Quick trace_ring;
          Alcotest.test_case "ring eviction" `Quick trace_ring_eviction;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "tcg blocks" `Quick coverage_tcg;
          Alcotest.test_case "kcov hypercall" `Quick coverage_kcov;
          QCheck_alcotest.to_alcotest coverage_matches_scan;
        ] );
    ]
