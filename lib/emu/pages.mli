(** A byte plane that snapshots take: a buffer zeroed on demand, cut into
    pages of [1 lsl shift] bytes, with one dirty mark per page.  Guest
    RAM ({!Ram}, 4 KiB pages), the two shadow planes (512-byte pages) and
    ftrace's four metadata planes (4 KiB pages) are each one store, so
    the snapshot rule of DESIGN.md "Snapshot service" is coded once,
    here.

    A store is always synced to an {!image}: the image it was last
    captured into or reverted to, which it equals outside its dirty
    pages.  It starts synced to the all-zero image.  Every write to
    [bytes] must mark its pages in [dirty] -- through {!mark}, or with
    the same byte write inline on a per-access path. *)

(** The store's contents at a capture: one immutable buffer per page.
    Pages not written since the image they were captured from are
    shared with it, and never-written pages are one shared zero page, so
    an image costs the pages written and is safe to share across
    domains. *)
type image

type t = private {
  bytes : Bytes.t;
  shift : int;  (** log2 of the page size, at most 12 *)
  dirty : Bytes.t;
      (** one byte per page; non-zero = written since the store was
          synced *)
  mutable synced : image;
}

(** [zeroed n] is [Bytes.make n '\000'] whose pages the OS zero-fills on
    first touch, so an untouched page costs no memory.  Blocks under
    128 KiB, and every block off Linux, are cleared with [memset]: small
    blocks come from recycled, already-resident heap memory, which is
    cheaper to clear than to fault in again. *)
val zeroed : int -> Bytes.t

(** [create ~shift size]: [size] zeroed bytes in pages of
    [1 lsl shift] bytes (the last one possibly short), synced to the
    all-zero image.  Raises [Invalid_argument] unless [0 <= shift <=
    12]. *)
val create : shift:int -> int -> t

val page_count : t -> int

(** Mark the pages of the byte range [[off, off + len)] written. *)
val mark : t -> off:int -> len:int -> unit

(** Was page [p] written since the store was synced? *)
val is_dirty : t -> int -> bool

(** An image of the store, which becomes the synced image.  It copies
    the pages written since the last sync and shares every other page
    with the synced image, so it costs O(pages written) and never reads
    the others. *)
val capture : t -> image

(** [true] when {!revert} [~from:image] would copy only the dirty pages:
    [image] is the synced image. *)
val is_synced : t -> image -> bool

(** Revert the store to [from], which becomes the synced image.  Copies
    back only the dirty pages when [from] is already the synced image,
    every page otherwise; returns the number of pages copied. *)
val revert : t -> from:image -> int

(** Page [p] of an image (immutable; compare with [==] to see sharing). *)
val page : image -> int -> string

(** Number of pages of an image that are not the shared zero page: for a
    capture of RAM synced to the loaded firmware, the pages the loader
    and the guest wrote. *)
val private_pages : image -> int
