(** Host-side KCSAN runtime: soft watchpoints with stall windows.  On a
    sampled access the runtime arms a watchpoint, snapshots the watched
    value, stalls the accessing hart (other harts keep running) and retries
    the access when the window closes; a conflicting access from another
    hart during the window - or a changed value - is a data race. *)

type watchpoint = {
  w_addr : int;
  w_size : int;
  w_write : bool;
  w_hart : int;
  w_pc : int;
  w_before : int;
  mutable w_conflict : (int * int * bool) option;  (** pc, hart, is_write *)
}

type t = {
  sink : Report.sink;
  symbolize : int -> string option;
  shadow : Shadow.t;
  interval : int;
  stall_insns : int;
  mutable skip : int;
  mutable rng : int;
  mutable watch : watchpoint option;
  mutable pending_close : (int * int) option;
  mutable access_events : int;
  mutable watchpoints_set : int;
  mutable races : int;
}

val create :
  ?interval:int ->
  ?stall_insns:int ->
  shadow:Shadow.t ->
  sink:Report.sink ->
  symbolize:(int -> string option) ->
  unit ->
  t

(** Process one memory access event.  May raise
    {!Embsan_emu.Fault.Retry_at} to stall the accessing hart; the retried
    access closes the watchpoint.  Atomic and MMIO accesses must be
    filtered out by the caller / are never watched. *)
val on_access :
  t ->
  Embsan_emu.Machine.t ->
  addr:int ->
  size:int ->
  is_write:bool ->
  pc:int ->
  hart:int ->
  unit

(** The plugin ({!Sanitizer.S} implementation, header included).  Its
    compiled access handler filters atomics and charges the mode's
    host-side race-check cost ([kcsan.interval] / [kcsan.stall] tuning
    keys). *)
val plugin : Sanitizer.plugin
