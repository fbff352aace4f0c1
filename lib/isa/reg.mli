(** EVA-32 register file: 16 general-purpose registers.

    ABI: r0 zero, r1 ra, r2 sp, r3..r6 a0..a3 (a0 = return value),
    r7..r10 + r15 caller-saved temporaries, r11..r14 callee-saved. *)

type t

val count : int

(** Raises [Invalid_argument] outside [0, 15]. *)
val of_int : int -> t

val to_int : t -> int
val zero : t
val ra : t
val sp : t
val a0 : t
val a1 : t
val a2 : t
val a3 : t
val t0 : t
val t1 : t
val t2 : t
val t3 : t
val s0 : t
val s1 : t
val s2 : t
val s3 : t
val t4 : t

(** Argument registers a0..a3, by position. *)
val args : t array

val saved : t array
val name : t -> string
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
