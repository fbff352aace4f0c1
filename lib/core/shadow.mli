(** Unified host-side shadow memory (paper section 3.3): one byte of KASAN
    state per 8-byte granule of guest RAM using the kernel encoding, plus a
    parallel per-granule plane used by the KCSAN functionality.

    Each plane is an {!Embsan_emu.Pages} store of 512-granule pages (one
    page per 4 KiB of guest RAM): zeroed on demand, synced to the
    all-zero image, and marked by every write, so {!save} costs the
    pages written since the last sync. *)

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

(** Snapshot of both shadow planes: the KASAN plane's image, then the
    KCSAN plane's.  Each shares every page not written since the state it
    was saved from, is immune to later mutation of the live shadow and
    survives repeated restores. *)
type state = Embsan_emu.Pages.image * Embsan_emu.Pages.image

(** The planes, readable anywhere but written only through this module,
    whose every write marks its pages: that is what lets {!restore} copy
    back only what changed since the planes were synced. *)
type t = private {
  base : int;
  limit : int;
  kasan : Embsan_emu.Pages.t;  (** one byte per granule *)
  kcsan_epoch : Embsan_emu.Pages.t;
}

val granule : int

(** [granule = 1 lsl granule_shift]. *)
val granule_shift : int

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

(** Bump and return the KCSAN sampling counter of [addr]'s granule. *)
val kcsan_bump : t -> int -> int

(** {!Embsan_emu.Pages.capture} of each plane. *)
val save : t -> state

(** {!Embsan_emu.Pages.revert} of each plane: restoring the synced state
    (the latest {!save}, or the state last restored) copies back only the
    pages written since; any other state is a full copy. *)
val restore : t -> state -> unit
