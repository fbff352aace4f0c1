(** Coverage-triaged corpus, AFL-style: a program joins when its execution
    produced an (edge, hit-bucket) pair never seen before.  Entries carry
    the schedule seed the program ran under (when schedule fuzzing is
    on) and the rehost seed (when the model-free rehosting layer is
    armed), since coverage can depend on the interleaving and on the
    MMIO responses / injected interrupts. *)

type t

val create : unit -> t

(** Record an execution's coverage signature; [true] iff it contributed new
    coverage (the program was added).  Indices lie below
    [Cmplog.feature_base + Cmplog.feature_slots] and buckets in 1..8
    ([Invalid_argument] otherwise); admission is a bit test per pair. *)
val consider : t -> Prog.t -> ?sched:int -> ?rehost:int -> (int * int) list -> bool

(** Number of programs; O(1). *)
val size : t -> int

(** Number of distinct (index, bucket) pairs admitted. *)
val coverage : t -> int

(** A uniformly drawn entry: one [Rng.below rng (size t)] draw, with
    index 0 the newest entry; O(1). *)
val pick : Rng.t -> t -> (Prog.t * int option * int option) option

(** All programs, oldest first (the "merged corpus"). *)
val programs : t -> Prog.t list
