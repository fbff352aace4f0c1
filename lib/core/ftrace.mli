(** FastTrack happens-before race detector (EmbedSanitizer direction) —
    precise vector-clock race detection as a pure {!Sanitizer} plugin.
    Lives entirely outside the Common Sanitizer Runtime: this
    {!Sanitizer.S} implementation, header included, plus one line in the
    {!Plugins} table; no runtime/machine/probe edits.  Synchronization
    edges arrive through the guest's {!Embsan_emu.Hypercall.san_sync}
    trap, whose handler the plugin installs itself via the public
    [Machine.set_trap_handler] API. *)

(** Vector clocks over at most 8 harts, exposed so the algebraic laws the
    detector relies on (join upper bound / associativity / idempotence,
    pointwise happens-before order, epoch ordering) are testable. *)
module Vc : sig
  type t = int array

  val create : int -> t
  val copy : t -> t

  (** In-place pointwise maximum: [join a b] makes [a := a ⊔ b]. *)
  val join : t -> t -> unit

  (** Pointwise order: every component of [a] is [<=] that of [b]. *)
  val leq : t -> t -> bool

  (** Does epoch [e] happen before (or equal) the thread clock [v]? *)
  val hb_epoch : int -> t -> bool
end

(** Epoch packing: [(clock lsl 3) lor hart]; clock 0 reserved for "no
    access recorded". *)

val epoch : clock:int -> hart:int -> int

val epoch_hart : int -> int
val epoch_clock : int -> int

type t

val create :
  sink:Report.sink ->
  symbolize:(int -> string option) ->
  base:int ->
  limit:int ->
  harts:int ->
  unit ->
  t

(** The FastTrack read/write rules over the flat last-access shadow;
    marked ([is_atomic]) accesses and known sync words are excluded. *)
val on_access :
  t ->
  pc:int ->
  addr:int ->
  size:int ->
  is_write:bool ->
  is_atomic:bool ->
  hart:int ->
  unit

(** A {!Embsan_emu.Hypercall.san_sync} edge: op 0 = acquire, 1 = release,
    2 = irq_off, 3 = irq_on (the IRQ pseudo-lock). *)
val on_sync : t -> hart:int -> op:int -> addr:int -> unit

(** Capture the detector's full state and return the closure that
    restores it, any number of times.  Its four metadata planes are
    {!Embsan_emu.Pages} stores: a capture costs the pages written since
    the last capture or restore, and so does a restore of the state
    captured or restored last; restoring any other state copies every
    page. *)
val checkpoint : t -> unit -> unit

val plugin : Sanitizer.plugin
