(** Compare-operand coverage (cmplog): branch/compare sites in the fast
    engine record (pc, lhs, rhs) triples into a bounded deduplicated
    table.  Each recording window yields (a) frontier features -- (index,
    bucket) pairs disjoint from {!Coverage.signature}'s edge indices,
    keyed by (pc, matched-low-bytes agreement level) -- and (b) a bounded
    operand dictionary for input-to-state mutation.  Toggling [enabled]
    patches live sites; no translation-cache flush. *)

type t = {
  mutable enabled : bool;  (** read at run time by compiled sites *)
  triples : int array;
  features : Bytes.t;
  dict : int array;
  mutable dict_n : int;
  dict_seen : (int, unit) Hashtbl.t;
  pair_key : int array;
  pair_val : int array;
}

(** First feature index; everything below is {!Coverage} edge space. *)
val feature_base : int

(** Number of feature slots: every feature index lies in
    [\[feature_base, feature_base + feature_slots)]. *)
val feature_slots : int

val create : unit -> t

(** Record one compare.  O(1), allocation-free; dedups the exact triple
    within the current window. *)
val record : t -> pc:int -> lhs:int -> rhs:int -> unit

(** Start a new recording window (per fuzzing execution).  The operand
    dictionary persists across windows. *)
val reset : t -> unit

(** The window's features, ascending index order, bucket = 1. *)
val features : t -> (int * int) list

(** Dictionary values in first-insertion order. *)
val dict_values : t -> int array

val dict_size : t -> int

(** Input-to-state lookup: the value [v] was most recently compared
    against, if still cached.  Persists across windows, like the
    dictionary. *)
val counterpart : t -> int -> int option

(** Number of equal low-order bytes of two 32-bit values (0..4). *)
val agreement : int -> int -> int
