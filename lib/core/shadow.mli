(** Unified host-side shadow memory (paper section 3.3): one byte of KASAN
    state per 8-byte granule of guest RAM using the kernel encoding, plus a
    parallel per-granule plane used by the KCSAN functionality.

    Both planes are zeroed on demand ({!Embsan_emu.Ram.zeroed}) and start
    synced to the all-zero {!state}, with every write tracked per chunk of
    512 granules (one 4 KiB guest page), so {!save} costs the chunks
    written since the last sync. *)

type code =
  | Addressable
  | Partial of int  (** first [k] bytes of the granule are addressable *)
  | Heap_redzone
  | Stack_redzone
  | Global_redzone
  | Freed

(** Smart constructor for [Partial]: raises [Invalid_argument] unless
    [k] is in 1..7 (0 is a redzone's business, 8 is [Addressable]). *)
val partial : int -> code

(** Raises [Invalid_argument] on [Partial k] with [k] outside 1..7 — the
    encoding would otherwise alias to a different code and break the
    [code_of_byte] round-trip. *)
val byte_of_code : code -> int

(** Inverse of {!byte_of_code}; raises [Invalid_argument] on unknown bytes. *)
val code_of_byte : int -> code

val code_name : code -> string

(** Snapshot of both shadow planes: one immutable buffer per chunk, shared
    with the state it was saved from wherever the chunk was not written
    since.  A saved [state] is immune to later mutation of the live
    shadow and survives repeated restores. *)
type state

(** The planes, readable anywhere but written only through this module:
    every write marks its chunks in [dirty] (one byte per 512 granules,
    i.e. per 4 KiB guest page), which is what lets {!restore} copy back
    only what changed since [synced]. *)
type t = private {
  base : int;
  limit : int;
  kasan : Bytes.t;
  kcsan_epoch : Bytes.t;
  dirty : Bytes.t;
  mutable synced : state;
}

val granule : int

val create : ram_base:int -> ram_size:int -> t

(** Is [addr] inside the shadowed guest RAM? *)
val covers : t -> int -> bool

(** Shadow state of the granule containing [addr]. *)
val get : t -> int -> code

(** Poison [addr, addr+size) with [code]; granule-rounded outward on the
    tail like the kernel implementation, clamped to the end of RAM. *)
val poison : t -> addr:int -> size:int -> code -> unit

(** Mark [addr, addr+size) addressable; a non-multiple-of-8 tail becomes a
    partial granule.  A range that runs past the end of RAM is clamped:
    every granule from [addr]'s to the last becomes addressable. *)
val unpoison : t -> addr:int -> size:int -> unit

type verdict = Valid | Invalid of code

(** Validate an access of [size] (1/2/4) bytes at [addr]; accesses outside
    guest RAM are [Valid] (MMIO and fault logic own them), and only the
    bytes of an access up to the end of RAM are checked. *)
val check : t -> addr:int -> size:int -> verdict

(** [fits_valid t ~size] is the one-shadow-byte test for accesses of
    [size] (1/2/4) bytes, specialized once per size: [true] at [addr] when
    the access starts outside RAM, or lies in one granule of RAM whose
    shadow makes all of it addressable -- {!check}'s [Valid], found from
    one byte.  [false] only means "ask {!check}". *)
val fits_valid : t -> size:int -> int -> bool

(** Bump and return the KCSAN sampling counter of [addr]'s granule. *)
val kcsan_bump : t -> int -> int

(** Copy the chunks written since the last sync into a new state that
    shares every other chunk with the synced state, and becomes it. *)
val save : t -> state

(** The buffer of chunk [c] in a state: its KASAN bytes, then its KCSAN
    bytes (compare with [==] to see sharing). *)
val chunk_of : state -> int -> string

(** Revert both planes to [state], which becomes the synced state.
    Restoring the synced state (the latest {!save}, or the state last
    restored) copies back only the dirty chunks; any other state costs a
    full copy of both planes. *)
val restore : t -> state -> unit
