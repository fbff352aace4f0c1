(** Patchable instrumentation probe sites (EmbSan's core mechanism, paper
    section 3.3, Icicle-style "instrumentation without recompilation").

    Translated blocks compile in per-kind sites that consult the
    subscriber arrays at run time; the arrays are the shared site table,
    so subscribing/unsubscribing is an O(1) array swap observed by all
    already-translated code -- no translation-cache flush, no epoch.

    Subscribers live in arrays in registration order; a site's armed
    check is one array-length load, and [fire_*] has a dedicated
    single-subscriber fast path (the common one-sanitizer case). *)

(** A mem subscriber.  It receives the access as labelled arguments (no
    event record, so an armed load/store site allocates nothing): the
    hart, the instruction's pc, the address and width, whether it writes,
    [is_atomic] for AMO instructions (marked accesses for KCSAN), and
    [value], the value being written (stores, AMOs; 0 for loads).

    The subscriber sees the access before it happens: the translated
    site fires the subscribers, then performs the same width-specialized
    access an unarmed site runs ("fire, then fast").  It may raise (e.g.
    [Fault.Retry_at] to stall the hart; the access is then not
    performed), but must not write hart registers, because the access
    re-reads its operands after the call. *)
type mem_fn =
  hart:int ->
  pc:int ->
  addr:int ->
  size:int ->
  is_write:bool ->
  is_atomic:bool ->
  value:int ->
  unit

type call_event = { c_hart : int; c_pc : int; c_target : int }
type ret_event = { r_hart : int; r_pc : int; r_target : int; r_retval : int }
type block_event = { b_hart : int; b_pc : int }

type t = {
  mutable mem : mem_fn array;
  mutable calls : (call_event -> unit) array;
  mutable rets : (ret_event -> unit) array;
  mutable blocks : (block_event -> unit) array;
}

(** Subscription handle for {!unsubscribe}. *)
type sub

val create : unit -> t

(** [subscribe_*] append a subscriber (fire order = registration order)
    and return a handle; O(1) site patch, zero flushes. *)

val subscribe_mem : t -> mem_fn -> sub
val subscribe_call : t -> (call_event -> unit) -> sub
val subscribe_ret : t -> (ret_event -> unit) -> sub
val subscribe_block : t -> (block_event -> unit) -> sub

(** Remove exactly the subscriber the handle added; idempotent, O(1)
    patch, zero flushes.  A no-op on an already-dead handle. *)
val unsubscribe : sub -> unit

(** [on_*]: handle-free subscription for callers that never detach. *)

val on_mem : t -> mem_fn -> unit
val on_call : t -> (call_event -> unit) -> unit
val on_ret : t -> (ret_event -> unit) -> unit
val on_block : t -> (block_event -> unit) -> unit

(** Unsubscribe everything (also an O(1) site patch). *)
val clear : t -> unit

val has_mem : t -> bool
val has_calls : t -> bool
val has_rets : t -> bool
val has_blocks : t -> bool

val fire_mem : t -> mem_fn
val fire_call : t -> call_event -> unit
val fire_ret : t -> ret_event -> unit
val fire_block : t -> block_event -> unit
