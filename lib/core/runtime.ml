(* Common Sanitizer Runtime (S3.3, S3.5).

   Consumes the merged DSL specification (Distiller) plus the platform
   description and init routine (Prober), then hooks the firmware's
   execution:

   - EmbSan-D: memory probes inserted into the emulator's translated code
     templates, and call/return probes intercepting the allocator
     functions named in the spec;
   - EmbSan-C: direct hypercall dispatch for the compile-time callouts
     (check traps and state-maintenance traps), which skips the probe
     machinery and is the cheaper path.

   The runtime is sanitizer-agnostic: {!attach} instantiates the plugins
   the spec selects from the {!Plugins} table and compiles the spec's
   intercepts ONCE into per-interception-point dispatch plans -- flat
   arrays of handler closures, so the hot path performs no [Dsl.wants]
   list scans and no option matches.  Both backends construct the same
   typed {!Sanitizer.event}s feeding the same plans, and bind the same
   per-instruction plugin checks ({!checks}): an EmbSan-D probed
   load/store/AMO and an EmbSan-C check callout each evaluate once what
   their instruction fixes (exempt pc, plugins with nothing to do there),
   and a direct call to anything but an allocator compiles to no call at
   all.  Where a single plugin checks an EmbSan-D access and declares
   what its site does on a clean granule, the access also gets an inline
   guard ({!access_guard}), so the translated template itself handles
   the common clean access.

   Host-side work is charged to the machine's external cost counter using
   {!Embsan_emu.Cost_model}, which is what the overhead bench (Figure 2)
   measures. *)

open Embsan_isa
open Embsan_emu

type inst_mode = C | D

let mode_name = function C -> "EmbSan-C" | D -> "EmbSan-D"

(* --- EmbSan-D allocator interception: per-hart bounded pending stacks --------- *)

(* An intercepted allocator call waits for its matching return to learn the
   returned pointer.  A crash, tail call or reboot inside the allocator
   means that return never arrives, so the stacks are bounded: at capacity
   the oldest frame is dropped, and a return matching a deeper frame
   abandons everything pushed above it.  Flat int arrays (hart-major), no
   per-event allocation. *)

let pending_cap = 16

type pending = {
  p_ret : int array; (* harts * cap: awaited return addresses *)
  p_size : int array; (* requested allocation sizes *)
  p_depth : int array; (* per-hart stack depth *)
}

let pending_create ~harts =
  {
    p_ret = Array.make (harts * pending_cap) 0;
    p_size = Array.make (harts * pending_cap) 0;
    p_depth = Array.make harts 0;
  }

let pending_push p ~hart ~ra ~size =
  let base = hart * pending_cap in
  let d = p.p_depth.(hart) in
  if d = pending_cap then begin
    (* the allocator never returned this deep (tail-call/reboot): the
       bottom frame is stale, drop it *)
    Array.blit p.p_ret (base + 1) p.p_ret base (pending_cap - 1);
    Array.blit p.p_size (base + 1) p.p_size base (pending_cap - 1);
    p.p_ret.(base + pending_cap - 1) <- ra;
    p.p_size.(base + pending_cap - 1) <- size
  end
  else begin
    p.p_ret.(base + d) <- ra;
    p.p_size.(base + d) <- size;
    p.p_depth.(hart) <- d + 1
  end

(* Top-down match of a return address; frames above the match never
   returned and are abandoned with it. *)
let pending_pop p ~hart ~ra =
  let base = hart * pending_cap in
  let rec go i =
    if i < 0 then None
    else if p.p_ret.(base + i) = ra then begin
      p.p_depth.(hart) <- i;
      Some p.p_size.(base + i)
    end
    else go (i - 1)
  in
  go (p.p_depth.(hart) - 1)

let pending_depth_of p ~hart = p.p_depth.(hart)

(* Capture the stacks; the closure blits them back. *)
let pending_checkpoint p =
  let ret = Array.copy p.p_ret
  and size = Array.copy p.p_size
  and depth = Array.copy p.p_depth in
  fun () ->
    Array.blit ret 0 p.p_ret 0 (Array.length ret);
    Array.blit size 0 p.p_size 0 (Array.length size);
    Array.blit depth 0 p.p_depth 0 (Array.length depth)

(* --- Runtime ------------------------------------------------------------------ *)

type t = {
  spec : Dsl.spec;
  mode : inst_mode;
  machine : Machine.t;
  sink : Report.sink;
  shadow : Shadow.t;
  instances : Sanitizer.instance array; (* spec.sanitizers order *)
  (* compiled dispatch plans: one flat closure array per interception
     point, fixed at attach time *)
  (* site specializers, each with its plugin's clean-granule counter *)
  load_plan : (Sanitizer.access_fn * int ref option) array;
  store_plan : (Sanitizer.access_fn * int ref option) array;
  alloc_plan : (Sanitizer.event -> unit) array;
  free_plan : (Sanitizer.event -> unit) array;
  global_plan : (Sanitizer.event -> unit) array;
  stack_poison_plan : (Sanitizer.event -> unit) array;
  stack_unpoison_plan : (Sanitizer.event -> unit) array;
  plan_index : (Api_spec.point * string list) list;
  event_units : int; (* per-event cost of this mode's delivery mechanism *)
  mutable ready : bool;
  pending : pending;
  (* pc ranges of intercepted allocator functions: accesses from inside are
     legal metadata traffic and exempt from checks (the compile-time analog
     is excluding mm/slab from instrumentation).  Sorted, disjoint, split
     into two parallel arrays for the binary search. *)
  exempt_lo : int array;
  exempt_hi : int array;
  mem_events : int ref; (* a cell: inline guards bump it too *)
  mutable callouts : int;
  mutable intercepted_calls : int;
}

(* Sorted-merge the exempt ranges so membership is a binary search. *)
let compile_exempts ranges =
  let sorted =
    List.sort compare (List.filter (fun (lo, hi) -> hi > lo) ranges)
  in
  let merged =
    List.fold_left
      (fun acc (lo, hi) ->
        match acc with
        | (plo, phi) :: rest when lo <= phi -> (plo, max phi hi) :: rest
        | _ -> (lo, hi) :: acc)
      [] sorted
  in
  let arr = Array.of_list (List.rev merged) in
  (Array.map fst arr, Array.map snd arr)

let pc_exempt t pc =
  let lo = t.exempt_lo in
  let n = Array.length lo in
  if n = 0 then false
  else begin
    (* count entries with lo <= pc; candidates left of that boundary *)
    let l = ref 0 and r = ref n in
    while !r > !l do
      let m = (!l + !r) lsr 1 in
      if Array.unsafe_get lo m <= pc then l := m + 1 else r := m
    done;
    !l > 0 && pc < Array.unsafe_get t.exempt_hi (!l - 1)
  end

(* [Machine.add_external_cost], written out: access sites charge on every
   access, and a cross-module call costs more than the addition. *)
let charge t units =
  let m = t.machine in
  m.external_cost <- m.external_cost + units

(* --- Event dispatch ----------------------------------------------------------- *)

let run_event_plan plan ev = Array.iter (fun f -> f ev) plan

(* State-maintenance events that are not tied to a DSL interception point
   (poison/unpoison and readiness) go to every instance. *)
let broadcast t ev = Array.iter (fun i -> Sanitizer.event i ev) t.instances

(* The plugin sites of one instruction, in plan order. *)
let run_sites (a : Sanitizer.site array) ~hart ~addr =
  for i = 0 to Array.length a - 1 do
    (Array.unsafe_get a i) ~hart ~addr
  done

(* The plugin checks of one instruction, shared by both backends (an
   EmbSan-D probed load/store/AMO, an EmbSan-C check callout), in plan
   order: the live plugin sites, each with its plugin's clean-granule
   counter.  What the instruction fixes is evaluated here, once: an
   exempt pc has none (the access is only counted), and plugins with
   nothing to do at this instruction drop out. *)
let checks t ~pc ~size ~is_write ~is_atomic =
  if pc_exempt t pc then []
  else
    List.filter
      (fun (s, _) -> s != Sanitizer.no_site)
      (List.map
         (fun ((f : Sanitizer.access_fn), clean) ->
           (f ~pc ~size ~is_write ~is_atomic, clean))
         (Array.to_list (if is_write then t.store_plan else t.load_plan)))

(* One check: a single plugin site is called directly. *)
let compose_checks l =
  Probe.compose ~none:Sanitizer.no_site ~seq:run_sites fst (Array.of_list l)

(* The access site of one EmbSan-D instruction.  Every access counts and
   charges the mode's event cost once the firmware is ready ([ready] is
   read per access: EmbSan-D probes run through boot), then runs the
   instruction's check. *)
let access_site t ~pc ~size ~is_write ~is_atomic : Probe.mem_site =
  let units = t.event_units in
  let check = compose_checks (checks t ~pc ~size ~is_write ~is_atomic) in
  fun ~hart ~addr ~value:_ ->
    if t.ready then begin
      t.mem_events := !(t.mem_events) + 1;
      charge t units;
      if check != Sanitizer.no_site then check ~hart ~addr
    end

(* The inline guard of the same instruction ({!Probe.guard}): offered
   only once the firmware is ready, at a pc that is not exempt, where
   exactly one plugin checks the access and declares that on a clean
   granule its site only bumps one counter.  A clean access then does
   what [access_site] would: one event, the mode's cost, that plugin's
   count.  [ready] is fixed here, so every change of it bumps the site
   generation. *)
let access_guard t ~pc ~size ~is_write ~is_atomic : Probe.guard =
  if not t.ready then Probe.no_guard
  else
    match checks t ~pc ~size ~is_write ~is_atomic with
    | [ (_, Some counter) ] ->
        let sh = t.shadow in
        {
          Probe.g_plane = sh.Shadow.kasan.Pages.bytes;
          g_base = sh.base;
          g_limit = sh.limit;
          g_shift = Shadow.granule_shift;
          g_events = t.mem_events;
          g_checks = counter;
          g_cost = t.event_units;
        }
    | _ -> Probe.no_guard

let set_ready t ready =
  if t.ready <> ready then begin
    t.ready <- ready;
    Probe.invalidate t.machine.probes
  end

(* --- Init routine ------------------------------------------------------------- *)

let shadow_code_of_string = function
  | "heap" -> Shadow.Heap_redzone
  | "stack" -> Shadow.Stack_redzone
  | "global" -> Shadow.Global_redzone
  | "freed" -> Shadow.Freed
  | s -> invalid_arg ("unknown poison code " ^ s)

let apply_init_action t (a : Dsl.init_action) =
  match a with
  | Dsl.Poison { addr; size; code } ->
      broadcast t
        (Sanitizer.Poison { addr; size; code = shadow_code_of_string code })
  | Unpoison { addr; size } -> broadcast t (Sanitizer.Unpoison { addr; size })
  | Alloc { ptr; size } ->
      run_event_plan t.alloc_plan
        (Sanitizer.Alloc { ptr; size; pc = 0; now = t.machine.total_insns })
  | Region { name = "global"; addr; size } ->
      broadcast t (Sanitizer.Register_global { addr; size })
  | Region _ -> ()
  | Note _ -> ()

let on_ready t () =
  if not t.ready then begin
    set_ready t true;
    List.iter (apply_init_action t) t.spec.Dsl.init;
    broadcast t Sanitizer.Ready
  end

(* --- Backends ------------------------------------------------------------------ *)

let install_mem_probes t =
  Probe.on_mem ~guard:(access_guard t) t.machine.probes (access_site t)

let install_call_interception t =
  (* allocator and free entry points; an allocator wins over a free at
     the same address *)
  let kinds = Machine.Pc_table.create 16 in
  List.iter
    (fun (f : Dsl.func_sig) ->
      match (f.f_kind, Machine.Pc_table.find_opt kinds f.f_addr) with
      | `Free _, Some (`Alloc _) -> ()
      | kind, _ -> Machine.Pc_table.replace kinds f.f_addr kind)
    t.spec.Dsl.functions;
  if Machine.Pc_table.length kinds > 0 then begin
    let harts = t.machine.harts in
    (* a call at [pc] to an allocator pushes the pending frame, one to a
       free runs the free plan *)
    let intercept ~pc ~hart kind =
      t.intercepted_calls <- t.intercepted_calls + 1;
      charge t Cost_model.embsan_d_probe;
      match kind with
      | `Alloc size_arg ->
          let size = Cpu.get harts.(hart) Reg.args.(size_arg) in
          pending_push t.pending ~hart ~ra:(pc + Insn.size) ~size
      | `Free ptr_arg ->
          let ptr = Cpu.get harts.(hart) Reg.args.(ptr_arg) in
          run_event_plan t.free_plan (Sanitizer.Free { ptr; pc; hart })
    in
    (* a direct call binds once, to nothing at all unless it calls an
       allocator or a free; an indirect one looks its target up per call,
       with no allocation on a miss *)
    Probe.on_call t.machine.probes (fun ~pc ~target ->
        match target with
        | Some target -> (
            match Machine.Pc_table.find_opt kinds target with
            | Some kind -> fun ~hart ~target:_ -> intercept ~pc ~hart kind
            | None -> Probe.no_call_site)
        | None -> (
            fun ~hart ~target ->
              match Machine.Pc_table.find_opt kinds target with
              | Some kind -> intercept ~pc ~hart kind
              | None -> ()));
    (* every return binds this one site, which returns at once when the
       hart has no allocator call in flight *)
    let ret_site ~hart ~target ~retval =
      if pending_depth_of t.pending ~hart <> 0 then
        match pending_pop t.pending ~hart ~ra:target with
        | Some size ->
            (* attribute the allocation to its call site, not to the
               allocator's return instruction *)
            run_event_plan t.alloc_plan
              (Sanitizer.Alloc
                 {
                   ptr = retval;
                   size;
                   pc = target - Insn.size;
                   now = t.machine.total_insns;
                 })
        | None -> ()
    in
    Probe.on_ret t.machine.probes (fun ~pc:_ -> ret_site)
  end

let install_callout_traps t =
  let m = t.machine in
  (* a check callout binds, per trap site, the plugin check of the
     instruction it checks: the trap number fixes (is_write, size), the
     trap's pc is the access's.  The handler is the access site written
     out: the runtime's count and cost, then the check, on [a0]. *)
  let units = t.event_units and a0 = Reg.to_int Reg.a0 in
  List.iter
    (fun num ->
      Machine.set_trap_site m num (fun ~pc ->
          match Hypercall.decode_check num with
          | Some (is_write, size) ->
              let check =
                compose_checks (checks t ~pc ~size ~is_write ~is_atomic:false)
              in
              fun _m cpu ->
                t.callouts <- t.callouts + 1;
                if t.ready then begin
                  t.mem_events := !(t.mem_events) + 1;
                  charge t units;
                  if check != Sanitizer.no_site then
                    check ~hart:cpu.Cpu.id
                      ~addr:(Array.unsafe_get cpu.Cpu.regs a0)
                end
          | None -> assert false))
    [ 16; 17; 18; 19; 20; 21 ];
  let update num f =
    Machine.set_trap_handler m num (fun _m cpu ->
        t.callouts <- t.callouts + 1;
        charge t Cost_model.embsan_c_hypercall;
        f cpu)
  in
  (* the trap sits in the san_* glue called from the allocator, so walk two
     frames up to attribute the event to the kernel function itself *)
  update Hypercall.san_alloc (fun cpu ->
      if Array.length t.alloc_plan > 0 then
        run_event_plan t.alloc_plan
          (Sanitizer.Alloc
             {
               ptr = Cpu.get cpu Reg.a0;
               size = Cpu.get cpu Reg.a1;
               pc = Unwind.caller_pc t.machine cpu ~depth:2;
               now = t.machine.total_insns;
             }));
  update Hypercall.san_free (fun cpu ->
      if Array.length t.free_plan > 0 then
        (* the glue reports (ptr, size); the tracked size wins *)
        run_event_plan t.free_plan
          (Sanitizer.Free
             {
               ptr = Cpu.get cpu Reg.a0;
               pc = Unwind.caller_pc t.machine cpu ~depth:2;
               hart = cpu.Cpu.id;
             }));
  update Hypercall.san_global (fun cpu ->
      run_event_plan t.global_plan
        (Sanitizer.Register_global
           { addr = Cpu.get cpu Reg.a0; size = Cpu.get cpu Reg.a1 }));
  update Hypercall.san_stack_poison (fun cpu ->
      run_event_plan t.stack_poison_plan
        (Sanitizer.Stack_poison
           { addr = Cpu.get cpu Reg.a0; size = Cpu.get cpu Reg.a1 }));
  update Hypercall.san_stack_unpoison (fun cpu ->
      run_event_plan t.stack_unpoison_plan
        (Sanitizer.Stack_unpoison
           { addr = Cpu.get cpu Reg.a0; size = Cpu.get cpu Reg.a1 }));
  update Hypercall.san_poison_region (fun cpu ->
      broadcast t
        (Sanitizer.Poison
           {
             addr = Cpu.get cpu Reg.a0;
             size = Cpu.get cpu Reg.a1;
             code = Shadow.Heap_redzone;
           }))

(* --- Attachment ---------------------------------------------------------------- *)

(* A report's location, memoized per pc: a repeat of a known bug's report
   looks its pc up once, not the whole symbol list again. *)
let symbolize_of_image (image : Image.t option) =
  match image with
  | None -> fun _ -> None
  | Some img ->
      let memo = Machine.Pc_table.create 64 in
      fun pc ->
        match Machine.Pc_table.find_opt memo pc with
        | Some name -> name
        | None ->
            let name =
              Option.map (fun (s : Image.symbol) -> s.name) (Image.symbol_at img pc)
            in
            Machine.Pc_table.replace memo pc name;
            name

(* Instances named by the intercept's handlers, in handler order, filtered
   to created instances that subscribe to the point; one slot per
   sanitizer. *)
let planned_instances instances spec point =
  match Dsl.find_intercept spec point with
  | None -> []
  | Some i ->
      let seen = Hashtbl.create 4 in
      List.filter_map
        (fun (h : Dsl.handler) ->
          if Hashtbl.mem seen h.h_san then None
          else begin
            Hashtbl.add seen h.h_san ();
            Array.find_opt
              (fun inst ->
                String.equal (Sanitizer.instance_name inst) h.h_san
                && Sanitizer.instance_supports inst point)
              instances
          end)
        i.i_handlers

(** Attach the runtime to a machine per the spec.  [image] (optional,
    un-stripped) provides report symbolization. *)
let attach ~spec ~mode ?image ?(sink = Report.create_sink ()) ?(tuning = [])
    (machine : Machine.t) =
  let shadow =
    Shadow.create ~ram_base:(Machine.ram_base machine)
      ~ram_size:(Machine.ram_size machine)
  in
  let symbolize = symbolize_of_image image in
  let ctx =
    {
      Sanitizer.machine;
      mode = (match mode with C -> `C | D -> `D);
      shadow;
      sink;
      symbolize;
      tuning;
    }
  in
  let instances =
    Array.of_list
      (List.filter_map
         (fun name ->
           match Plugins.find name with
           | Some p -> Some (Sanitizer.instantiate p ctx)
           | None ->
               Logs.debug (fun m ->
                   m "Runtime.attach: no plugin named %S; skipped" name);
               None)
         spec.Dsl.sanitizers)
  in
  let planned point = planned_instances instances spec point in
  let access_plan point =
    Array.of_list
      (List.map
         (fun i -> (Sanitizer.access i, Sanitizer.clean_count i))
         (planned point))
  in
  let event_plan point =
    Array.of_list (List.map (fun i -> Sanitizer.event i) (planned point))
  in
  let plan_index =
    List.map
      (fun point -> (point, List.map Sanitizer.instance_name (planned point)))
      [
        Api_spec.P_load;
        Api_spec.P_store;
        Api_spec.P_func_alloc;
        Api_spec.P_func_free;
        Api_spec.P_global_register;
        Api_spec.P_stack_poison;
        Api_spec.P_stack_unpoison;
      ]
  in
  let exempt_lo, exempt_hi =
    compile_exempts
      (List.map
         (fun (f : Dsl.func_sig) -> (f.f_addr, f.f_addr + f.f_size))
         spec.Dsl.functions
      @ List.map
          (fun (e : Dsl.exempt) -> (e.e_addr, e.e_addr + e.e_size))
          spec.Dsl.exempts)
  in
  let t =
    {
      spec;
      mode;
      machine;
      sink;
      shadow;
      instances;
      load_plan = access_plan Api_spec.P_load;
      store_plan = access_plan Api_spec.P_store;
      alloc_plan = event_plan Api_spec.P_func_alloc;
      free_plan = event_plan Api_spec.P_func_free;
      global_plan = event_plan Api_spec.P_global_register;
      stack_poison_plan = event_plan Api_spec.P_stack_poison;
      stack_unpoison_plan = event_plan Api_spec.P_stack_unpoison;
      plan_index;
      event_units =
        (match mode with
        | C -> Cost_model.embsan_c_hypercall
        | D -> Cost_model.embsan_d_probe);
      ready = false;
      pending = pending_create ~harts:(Array.length machine.Machine.harts);
      exempt_lo;
      exempt_hi;
      mem_events = ref 0;
      callouts = 0;
      intercepted_calls = 0;
    }
  in
  Services.install machine;
  (match mode with
  | C ->
      (* compile-time callouts: direct hypercall dispatch, no probes *)
      install_callout_traps t;
      (* C-mode state maintenance is live from boot; mark ready from boot *)
      t.ready <- true
  | D ->
      install_mem_probes t;
      install_call_interception t;
      machine.mailbox.on_ready <- on_ready t);
  t

(* --- Introspection ------------------------------------------------------------- *)

(** Sanitizer names in the compiled plan of [point], in dispatch order. *)
let plan_names t point =
  match List.assoc_opt point t.plan_index with Some l -> l | None -> []

let pending_depth t ~hart = pending_depth_of t.pending ~hart
let pending_capacity = pending_cap

(* --- Snapshot support ---------------------------------------------------------- *)

(** Capture the runtime's host-side sanitizer state -- shadow planes,
    every plugin instance's checkpoint, the report-dedup sink and the
    D-mode allocator-interception stacks -- and return the closure that
    restores this runtime to it.  Probe wiring, trap handlers and the
    compiled dispatch plans are structural (installed once by {!attach})
    and are not part of the state. *)
let checkpoint t =
  let shadow = Shadow.save t.shadow in
  let plugins = Array.map Sanitizer.checkpoint t.instances in
  let sink = Report.checkpoint_sink t.sink in
  let pending = pending_checkpoint t.pending in
  let ready = t.ready
  and mem_events = !(t.mem_events)
  and callouts = t.callouts
  and intercepted_calls = t.intercepted_calls in
  fun () ->
    Shadow.restore t.shadow shadow;
    Array.iter (fun restore -> restore ()) plugins;
    sink ();
    set_ready t ready;
    pending ();
    t.mem_events := mem_events;
    t.callouts <- callouts;
    t.intercepted_calls <- intercepted_calls

let reports t = Report.unique_reports t.sink

(** Run every plugin's detector pass now (typically after a test
    completes); returns the number of new reports. *)
let scan_leaks t =
  Array.fold_left
    (fun acc i -> acc + Sanitizer.scan i ~now:t.machine.total_insns)
    0 t.instances

(** Per-plugin counter snapshots, in instantiation order. *)
let plugin_stats t =
  Array.to_list
    (Array.map
       (fun i -> (Sanitizer.instance_name i, Sanitizer.stats i))
       t.instances)
