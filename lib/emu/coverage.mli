(** Basic-block coverage collection with the two paths the paper's fuzzers
    use: OS-agnostic translated-block probes (Tardis) and guest-assisted
    kcov hypercalls (Syzkaller). *)

(** Fields are readable but only this module writes them: the touched list
    must name exactly the non-zero bytes of [bitmap]. *)
type t = private {
  bitmap : Bytes.t;  (** 64 KiB AFL-style edge bitmap *)
  touched : Bytes.t;
      (** native-endian uint16 slots; the first [n_touched] hold the
          indices of the non-zero [bitmap] bytes, in first-hit order *)
  mutable n_touched : int;
  last_loc : int array;
  mutable blocks_seen : int;
}

val bitmap_size : int
val create : harts:int -> t
val record : t -> hart:int -> pc:int -> unit

(** Subscribe to translated-block events (works on any firmware). *)
val attach_tcg : t -> Machine.t -> unit

(** Hypercall number reserved for guest kcov reporting. *)
val kcov_trap : int

(** Install the kcov hypercall handler (requires a kcov-built guest). *)
val attach_kcov : t -> Machine.t -> unit

(** Zero the hit edges and the per-hart previous locations; O(edges hit). *)
val reset_edges : t -> unit

(** Non-zero edges bucketed into AFL-style hit-count classes, in strictly
    ascending index order (callers append {!Cmplog.features} after it and
    rely on that order).  O(k log k) in the k edges hit. *)
val signature : t -> (int * int) list

(** Number of non-zero edges, [List.length (signature t)]; O(1). *)
val edge_count : t -> int
