(** Sanitizer bug reports: structured records, deduplication and
    kernel-style pretty printing. *)

type bug_kind =
  | Oob_access
  | Use_after_free
  | Double_free
  | Invalid_free
  | Null_deref
  | Wild_access
  | Data_race
  | Memory_leak
  | Unaligned_access

val kind_name : bug_kind -> string

type t = {
  kind : bug_kind;
  sanitizer : string;  (** "kasan" | "kcsan" | "kmemleak" *)
  addr : int;
  size : int;
  is_write : bool;
  pc : int;
  hart : int;
  location : string option;  (** symbolized function, when available *)
  detail : string;  (** free-form: allocation info, racing pc, ... *)
}

(** Deduplication key of a [kind] bug at a symbolized [location] (or, when
    unsymbolized, at [pc]), like syzbot's crash titles. *)
val key : bug_kind -> location:string option -> pc:int -> string

(** [key] of a report. *)
val dedup_key : t -> string

(** One-line title, e.g. ["KASAN: use-after-free in tc_filter_stats"]. *)
val title : t -> string

(** Kernel-oops-style multi-line rendering. *)
val pp : Format.formatter -> t -> unit

(** A collection sink with duplicate suppression.  It keeps the first
    10,000 unique reports; later new bugs are only counted. *)
type sink = { mutable reports : t list; seen : (string, int) Hashtbl.t }

val create_sink : unit -> sink

(** Add a report; returns [true] iff it is a new (non-duplicate) bug. *)
val add : sink -> t -> bool

(** [bump sink key] counts one more hit of an already-seen bug and returns
    [true]; for an unseen [key] it returns [false] and changes nothing.
    Lets a sanitizer skip building the report of a known bug. *)
val bump : sink -> string -> bool

(** Unique reports in arrival order. *)
val unique_reports : sink -> t list

(** Number of unique bugs seen. *)
val count : sink -> int

(** Hit count for one dedup key. *)
val hits : sink -> string -> int

(** Total report events including duplicates of already-seen bugs. *)
val total_hits : sink -> int

val clear : sink -> unit

(** Capture the sink (report list plus dedup table) and return the
    closure that reverts both the unique reports and the per-key hit
    counts to it, any number of times. *)
val checkpoint_sink : sink -> unit -> unit
