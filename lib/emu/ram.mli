(** Physical RAM: a flat byte array mapped at [[base, base + size)].
    Accesses outside raise {!Fault.Memory_fault}; addresses below the
    first page are reported as null-pointer dereferences.

    Dirty-page tracking is the snapshot service's write set (DESIGN.md
    "Snapshot service"): one byte per 4 KiB page, non-zero when the page
    was written since RAM was last captured into or reverted to an
    {!image} -- the synced image.  Tracking starts on, synced to the
    all-zero image, and {!load_image} makes the loaded firmware the
    synced image, so a capture after boot costs the pages the boot
    wrote.  The translated store templates read [track_dirty] at run
    time, so toggling it is one field write. *)

(** RAM contents at a capture: one immutable buffer per page.  Pages not
    written since the image they were captured from are shared with it,
    and never-written pages are one shared zero page, so an image costs
    the pages written and is safe to share across domains. *)
type image

type t = private {
  base : int;
  bytes : Bytes.t;
  mutable track_dirty : bool;
  dirty : Bytes.t;  (** one byte per page; non-zero = written since sync *)
  mutable synced : image option;
      (** the image RAM equals outside the dirty pages; [None] unless
          tracking stayed on since the last capture or revert *)
}

(** [zeroed n] is [Bytes.make n '\000'] whose pages the OS zero-fills on
    first touch, so an untouched page costs no memory.  Blocks under
    128 KiB, and every block off Linux, are cleared with [memset]: small
    blocks come from recycled, already-resident heap memory, which is
    cheaper to clear than to fault in again. *)
val zeroed : int -> Bytes.t

val page_shift : int
val page_size : int

(** Zeroed RAM with tracking on, synced to the all-zero image. *)
val create : base:int -> size:int -> t

val base : t -> int
val size : t -> int
val limit : t -> int
val page_count : t -> int
val track_dirty : t -> bool

(** Turning tracking off forgets the synced image: stores made while it
    is off leave no mark, so the next {!revert} and the next {!capture}
    each copy every page. *)
val set_track_dirty : t -> bool -> unit

val page_is_dirty : t -> int -> bool

(** Call [f i] for each non-zero byte [i] of [marks], in ascending order,
    clearing it first.  A restore typically finds a few marks among
    ~1024, so the bytes are scanned a word (eight marks) at a time.  The
    one scan behind {!capture}, {!revert} and the shadow planes' save and
    restore. *)
val drain_marks : Bytes.t -> (int -> unit) -> unit

(** An image of RAM, which becomes the synced image.  It copies the pages
    written since the last sync and shares every other page with the
    synced image, so it costs O(pages written) and never reads the
    others; without a synced image it copies every page. *)
val capture : t -> image

(** [true] when {!revert} [~from:image] would copy only the dirty pages:
    [image] is the synced image. *)
val is_synced : t -> image -> bool

(** Revert RAM to [from], which becomes the synced image.  Copies back
    only the dirty pages when [from] is already the synced image, every
    page otherwise; returns the number of pages copied. *)
val revert : t -> from:image -> int

(** Page [p] of an image (immutable; compare with [==] to see sharing). *)
val page : image -> int -> string

(** Number of pages of an image that are not the shared zero page: for a
    capture of RAM synced to the loaded firmware, the pages the loader
    and the guest wrote. *)
val private_pages : image -> int

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
    one does not fit).  While RAM is synced, the loaded RAM becomes the
    synced image. *)
val load_image : t -> Embsan_isa.Image.t -> unit
