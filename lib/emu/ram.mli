(** Physical RAM: a flat byte array mapped at [[base, base + size)].
    Accesses outside raise {!Fault.Memory_fault}; addresses below the
    first page are reported as null-pointer dereferences.

    The bytes are a {!Pages} store of 4 KiB pages, [mem], which holds
    the snapshot service's write set and synced image (DESIGN.md
    "Snapshot service"): every write below, and every translated store,
    marks its page(s).  RAM starts synced to the all-zero image, and
    {!load_image} makes the loaded firmware the synced image, so a
    capture after boot costs the pages the boot wrote. *)

type t = private { base : int; mem : Pages.t }

val page_shift : int
val page_size : int

(** Zeroed RAM, synced to the all-zero image. *)
val create : base:int -> size:int -> t

val base : t -> int
val size : t -> int
val limit : t -> int
val contains : t -> int -> size:int -> bool
val check : t -> Fault.access -> unit

(** Unchecked accessors: callers must have checked {!contains} first.
    The translator's allocation-free fast path selects a width-specialized
    one at translation time, so the per-access code has neither a width
    dispatch nor a {!Fault.access} record. *)

val read8 : t -> int -> int
val read16 : t -> int -> int
val read32 : t -> int -> int
val write8 : t -> int -> int -> unit
val write16 : t -> int -> int -> unit
val write32 : t -> int -> int -> unit
val read : t -> int -> int -> int
val write : t -> int -> int -> int -> unit
val blit_string : t -> addr:int -> string -> unit
val read_string : t -> addr:int -> len:int -> string

(** Load all sections of a firmware image (raises [Invalid_argument] if
    one does not fit); the loaded RAM becomes the synced image. *)
val load_image : t -> Embsan_isa.Image.t -> unit
