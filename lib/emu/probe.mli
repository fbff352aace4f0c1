(** Patchable instrumentation probe sites (EmbSan's core mechanism, paper
    section 3.3, Icicle-style "instrumentation without recompilation").

    Translated blocks compile in per-kind sites that consult the
    subscriber arrays; the arrays are the shared site table, so
    subscribing/unsubscribing is an O(1) array swap observed by all
    already-translated code -- no translation-cache flush.

    Mem and call subscribers are {e site specializers}: given the facts
    the instruction fixes, they return the closure to run at that site
    (or {!no_site} / {!no_call_site} when there is nothing to do there).
    A translated site caches the composed closure with the generation
    {!field-gen} it was built under and asks again once [gen] has moved;
    every subscribe, unsubscribe, {!clear} and {!invalidate} bumps it.

    Return subscribers are specializers too; block subscribers are plain
    functions of the hart and the block's pc.  No site takes an event
    record, so firing one allocates nothing.

    {b Contract.}  A specializer's result may depend only on its static
    arguments and on state fixed when the subscriber was attached.
    Anything that can change later must be read by the returned closure
    at run time or bump a generation ({!invalidate}). *)

(** A mem site: the hart, the address and [value], the value being
    written (stores, AMOs; 0 for loads).  It runs before the access
    happens: the translated site runs it, then performs the same
    width-specialized access an unarmed site runs ("fire, then fast").
    It may raise (e.g. [Fault.Retry_at] to stall the hart; the access is
    then not performed), but must not write hart registers: on both
    engines the access uses the address and value read before the call.
    No event record is built, so an armed site allocates nothing. *)
type mem_site = hart:int -> addr:int -> value:int -> unit

(** A mem subscriber: the site specializer for an access at [pc] of
    [size] bytes, writing or not, [is_atomic] for AMO instructions
    (marked accesses for KCSAN). *)
type mem_fn = pc:int -> size:int -> is_write:bool -> is_atomic:bool -> mem_site

(** An inline clean-access guard, attached by a mem subscriber to the
    site it binds.  An access of [size] bytes at [addr] is {e clean} when
    [g_base <= addr], [addr + size <= g_limit], the access lies inside one
    granule ([1 lsl g_shift] bytes, counted from [g_base]), and that
    granule's byte in [g_plane] is 0.  On a clean access the fast
    templates bump [g_events] and [g_checks], add [g_cost] to the
    machine's external cost, and do not call the site: the subscriber
    promises that this is all its site would do there.  Every other
    access calls the site as usual.  Only the rule "a zero byte means the
    site would only count" lives here; what a non-zero byte means is the
    subscriber's business. *)
type guard = {
  g_plane : Bytes.t;
  g_base : int;
  g_limit : int;
  g_shift : int;
  g_events : int ref;
  g_checks : int ref;
  g_cost : int;
}

(** A guard specializer: the guard of the site the subscriber binds for
    the same instruction, or {!no_guard}.  The {!Probe} contract applies:
    what may change later bumps a generation. *)
type guard_fn = pc:int -> size:int -> is_write:bool -> is_atomic:bool -> guard

(** A call site, run after the transfer with the hart and the call's
    dynamic target. *)
type call_site = hart:int -> target:int -> unit

(** A call subscriber: the site specializer for a call at [pc];
    [target] is [Some] the target of a direct call and [None] for an
    indirect one. *)
type call_fn = pc:int -> target:int option -> call_site

(** A return site, run after the transfer with the hart, the return's
    target and the value in [a0]. *)
type ret_site = hart:int -> target:int -> retval:int -> unit

(** A return subscriber: the site specializer for a return at [pc]. *)
type ret_fn = pc:int -> ret_site

(** A block subscriber: run with the hart and the pc of each block it
    enters. *)
type block_fn = hart:int -> pc:int -> unit

type call_event = { c_hart : int; c_pc : int; c_target : int }
type ret_event = { r_hart : int; r_pc : int; r_target : int; r_retval : int }

(** A mem subscriber: its site and guard specializers. *)
type mem_sub = { m_site : mem_fn; m_guard : guard_fn }

type t = {
  mutable mem : mem_sub array;
  mutable calls : call_fn array;
  mutable rets : ret_fn array;
  mutable blocks : block_fn array;
  mutable gen : int;
      (** generation of every specialized site; bumped by each change to
          the subscriber arrays and by {!invalidate} *)
}

(** Subscription handle for {!unsubscribe}. *)
type sub

val create : unit -> t

(** The sentinels a specializer returns where it has nothing to do; a
    site bound to one makes no call. *)

val no_site : mem_site
val no_call_site : call_site
val no_ret_site : ret_site

(** The guard of no access: the inline test fails at its first compare. *)
val no_guard : guard

(** Bump the generation: every specialized site asks its specializers
    again on its next execution.  For site tables kept outside this
    module (the machine's trap table). *)
val invalidate : t -> unit

(** [subscribe_*] append a subscriber (fire order = registration order)
    and return a handle; O(1) site patch, zero flushes.  A mem
    subscriber's [guard] (default: none) is consulted only where its site
    is the only live one (see {!mem_binding}). *)

val subscribe_mem : ?guard:guard_fn -> t -> mem_fn -> sub
val subscribe_call : t -> call_fn -> sub
val subscribe_ret : t -> ret_fn -> sub
val subscribe_block : t -> block_fn -> sub

(** Remove exactly the subscriber the handle added; idempotent, O(1)
    patch, zero flushes.  A no-op on an already-dead handle. *)
val unsubscribe : sub -> unit

(** [on_*]: handle-free subscription for callers that never detach. *)

val on_mem : ?guard:guard_fn -> t -> mem_fn -> unit
val on_call : t -> call_fn -> unit
val on_ret : t -> ret_fn -> unit
val on_block : t -> block_fn -> unit

(** Unsubscribe everything (also an O(1) site patch). *)
val clear : t -> unit

val has_mem : t -> bool
val has_calls : t -> bool
val has_rets : t -> bool
val has_blocks : t -> bool

(** [compose ~none ~seq spec fs]: the one site of an instruction, built
    from the specializers [fs] through [spec], in order.  Sites physically
    equal to the sentinel [none] drop out; [none] itself when none is
    left, the one live site as is, else [seq] over the live ones.  The
    compose step of every specialized site, here and in the sanitizer
    runtime. *)
val compose : none:'s -> seq:('s array -> 's) -> ('f -> 's) -> 'f array -> 's

(** The subscribers' sites for one instruction composed in registration
    order, without those that returned a sentinel; the sentinel itself
    when none is left. *)

val mem_site :
  t -> pc:int -> size:int -> is_write:bool -> is_atomic:bool -> mem_site

(** [mem_site] together with the instruction's guard: the guard of the
    subscriber whose site is the only live one, {!no_guard} when none or
    several are live.  So a second live subscriber turns the guard off and
    sees every access.  What a fast-engine mem op caches. *)
val mem_binding :
  t ->
  pc:int ->
  size:int ->
  is_write:bool ->
  is_atomic:bool ->
  mem_site * guard

val call_site : t -> pc:int -> target:int option -> call_site
val ret_site : t -> pc:int -> ret_site

(** Specialize, then fire: the per-event path of the reference engine.
    [direct] says whether [target] is the call's static target. *)

val fire_mem :
  t ->
  pc:int ->
  size:int ->
  is_write:bool ->
  is_atomic:bool ->
  hart:int ->
  addr:int ->
  value:int ->
  unit

val fire_call : t -> pc:int -> target:int -> direct:bool -> hart:int -> unit

(** Adapters for subscribers that want every event with all its
    arguments: the specializer that binds every site to [f]. *)

val every_mem :
  (hart:int ->
  pc:int ->
  addr:int ->
  size:int ->
  is_write:bool ->
  is_atomic:bool ->
  value:int ->
  unit) ->
  mem_fn

val every_call : (call_event -> unit) -> call_fn
val every_ret : (ret_event -> unit) -> ret_fn

(** Specialize the return site at [r_pc], then fire it. *)
val fire_ret : t -> ret_event -> unit

val fire_block : t -> hart:int -> pc:int -> unit
