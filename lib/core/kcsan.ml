(* Host-side KCSAN runtime: soft watchpoints with stall windows.

   On a sampled access the runtime arms a watchpoint, snapshots the watched
   value, stalls the accessing hart (the emulator keeps running the other
   harts) and retries the access when the window closes.  A conflicting
   access from another hart during the window - or a changed value - is a
   data race. *)

type watchpoint = {
  w_addr : int;
  w_size : int;
  w_write : bool;
  w_hart : int;
  w_pc : int;
  w_before : int;
  mutable w_conflict : (int * int * bool) option; (* pc, hart, is_write *)
}

type t = {
  sink : Report.sink;
  symbolize : int -> string option;
  shadow : Shadow.t; (* unified shadow: KCSAN uses its sampling plane *)
  interval : int;
  stall_insns : int;
  mutable skip : int;
  mutable rng : int; (* xorshift state for sampling jitter *)
  mutable watch : watchpoint option;
  (* the (hart, pc) whose retried access must close the watchpoint *)
  mutable pending_close : (int * int) option;
  mutable access_events : int;
  mutable watchpoints_set : int;
  mutable races : int;
}

let create ?(interval = 120) ?(stall_insns = 1200) ~shadow ~sink ~symbolize () =
  {
    sink;
    symbolize;
    shadow;
    interval;
    stall_insns;
    skip = interval;
    rng = 0x2545F491;
    watch = None;
    pending_close = None;
    access_events = 0;
    watchpoints_set = 0;
    races = 0;
  }

let overlap a asize b bsize = a < b + bsize && b < a + asize

let report t (w : watchpoint) ~other =
  t.races <- t.races + 1;
  let detail =
    match other with
    | Some (pc, hart, is_write) ->
        Printf.sprintf "race with hart %d pc 0x%08x (%s)" hart pc
          (if is_write then "write" else "read")
    | None -> "value changed during watch window"
  in
  ignore
    (Report.add t.sink
       {
         kind = Report.Data_race;
         sanitizer = "kcsan";
         addr = w.w_addr;
         size = w.w_size;
         is_write = w.w_write;
         pc = w.w_pc;
         hart = w.w_hart;
         location = t.symbolize w.w_pc;
         detail;
       })

let read_watched machine ~addr ~size =
  Embsan_emu.Machine.read_mem machine ~addr ~width:(min size 4)

(** Process one memory access event.  May raise {!Embsan_emu.Fault.Retry_at}
    to stall the accessing hart (the access is re-executed when the stall
    window expires, which is what closes the watchpoint). *)
let on_access t machine ~addr ~size ~is_write ~pc ~hart =
  t.access_events <- t.access_events + 1;
  (* 1. closing a previously armed watchpoint? *)
  (match (t.watch, t.pending_close) with
  | Some w, Some (h, p) when h = hart && p = pc ->
      t.watch <- None;
      t.pending_close <- None;
      let after = read_watched machine ~addr:w.w_addr ~size:w.w_size in
      (match w.w_conflict with
      | Some _ as other -> report t w ~other
      | None -> if after <> w.w_before then report t w ~other:None)
  | _ -> ());
  (* 2. conflict detection against the active watchpoint *)
  (match t.watch with
  | Some w
    when w.w_hart <> hart
         && overlap w.w_addr w.w_size addr size
         && (w.w_write || is_write)
         && w.w_conflict = None ->
      w.w_conflict <- Some (pc, hart, is_write)
  | Some _ | None -> ());
  (* 3. sampling: arm a new watchpoint every [interval] accesses *)
  ignore (Shadow.kcsan_bump t.shadow addr);
  t.skip <- t.skip - 1;
  (* never watch device memory: MMIO registers are volatile by nature and
     re-reading them has side effects (like the kernel skipping ioremap) *)
  if t.skip <= 0 && Shadow.covers t.shadow addr then begin
    (* jittered interval: a fixed stride aliases with guest loop periods and
       keeps sampling the same access site, like real KCSAN's
       prandom-perturbed skip count avoids *)
    let x = t.rng in
    let x = x lxor (x lsl 13) land 0x3FFFFFFF in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land 0x3FFFFFFF in
    t.rng <- x;
    t.skip <- 1 + (t.interval / 2) + (x mod t.interval);
    if t.watch = None && t.pending_close = None then begin
      let before = read_watched machine ~addr ~size in
      t.watch <-
        Some
          {
            w_addr = addr;
            w_size = size;
            w_write = is_write;
            w_hart = hart;
            w_pc = pc;
            w_before = before;
            w_conflict = None;
          };
      t.watchpoints_set <- t.watchpoints_set + 1;
      t.pending_close <- Some (hart, pc);
      let cpu = machine.Embsan_emu.Machine.harts.(hart) in
      cpu.Embsan_emu.Cpu.stall_until <-
        machine.Embsan_emu.Machine.total_insns + t.stall_insns;
      raise (Embsan_emu.Fault.Retry_at pc)
    end
  end

(* --- Plugin ------------------------------------------------------------------ *)

module Plugin = struct
  let header =
    {|
/* Kernel Concurrency Sanitizer - interception interface */
sanitizer kcsan;
resource watchpoints;
check  load(addr, size, pc, hart) => access;
check  store(addr, size, value, pc, hart) => access;
|}

  type nonrec t = { k : t; machine : Embsan_emu.Machine.t; check_cost : int }

  let create (ctx : Sanitizer.ctx) =
    let interval = Sanitizer.tuned ctx "kcsan.interval" ~default:120 in
    let stall_insns = Sanitizer.tuned ctx "kcsan.stall" ~default:1200 in
    {
      k =
        create ~interval ~stall_insns ~shadow:ctx.shadow ~sink:ctx.sink
          ~symbolize:ctx.symbolize ();
      machine = ctx.machine;
      (* host-side race-check work is dearer on the D path (it rides the
         probe machinery); bake the mode into the compiled handler *)
      check_cost =
        (match ctx.mode with
        | `C -> Embsan_emu.Cost_model.kcsan_host_check_c
        | `D -> Embsan_emu.Cost_model.kcsan_host_check_d);
    }

  (* marked (atomic) accesses are never data races by definition, so
     their sites have nothing to do *)
  let access p ~pc ~size ~is_write ~is_atomic =
    if is_atomic then Sanitizer.no_site
    else fun ~hart ~addr ->
      let m = p.machine in
      m.external_cost <- m.external_cost + p.check_cost;
      on_access p.k m ~addr ~size ~is_write ~pc ~hart

  let clean_count _ = None
  let event _ _ = ()
  let scan _ ~now:_ = 0

  (* [watchpoint] has a mutable conflict field: copy it in both
     directions, so window activity after the capture or after a restore
     never reaches the checkpoint.  The stalled hart's [stall_until] is
     machine state and reverts with the hart. *)
  let checkpoint { k = t; _ } =
    let copy = Option.map (fun w -> { w with w_conflict = w.w_conflict }) in
    let skip = t.skip
    and rng = t.rng
    and watch = copy t.watch
    and pending_close = t.pending_close
    and access_events = t.access_events
    and watchpoints_set = t.watchpoints_set
    and races = t.races in
    fun () ->
      t.skip <- skip;
      t.rng <- rng;
      t.watch <- copy watch;
      t.pending_close <- pending_close;
      t.access_events <- access_events;
      t.watchpoints_set <- watchpoints_set;
      t.races <- races

  let stats p =
    [
      ("access_events", p.k.access_events);
      ("watchpoints_set", p.k.watchpoints_set);
      ("races", p.k.races);
    ]
end

let plugin = Sanitizer.make (module Plugin)
