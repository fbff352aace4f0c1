(* EVA-32 register file: 16 general-purpose registers.

   ABI conventions:
     r0          hardwired zero
     r1  (ra)    return address
     r2  (sp)    stack pointer
     r3..r6      a0..a3, arguments; a0 holds the return value
     r7..r10     t0..t3, caller-saved temporaries
     r11..r14    s0..s3, callee-saved
     r15 (t4)    extra caller-saved temporary *)

type t = int

let count = 16

let of_int n =
  if n < 0 || n >= count then invalid_arg "Reg.of_int";
  n

let to_int r = r

let zero = 0
let ra = 1
let sp = 2
let a0 = 3
let a1 = 4
let a2 = 5
let a3 = 6
let t0 = 7
let t1 = 8
let t2 = 9
let t3 = 10
let s0 = 11
let s1 = 12
let s2 = 13
let s3 = 14
let t4 = 15

let args = [| a0; a1; a2; a3 |]
let saved = [| s0; s1; s2; s3 |]

let name r =
  match r with
  | 0 -> "zero"
  | 1 -> "ra"
  | 2 -> "sp"
  | 3 -> "a0"
  | 4 -> "a1"
  | 5 -> "a2"
  | 6 -> "a3"
  | 7 -> "t0"
  | 8 -> "t1"
  | 9 -> "t2"
  | 10 -> "t3"
  | 11 -> "s0"
  | 12 -> "s1"
  | 13 -> "s2"
  | 14 -> "s3"
  | 15 -> "t4"
  | _ -> invalid_arg "Reg.name"

let equal = Int.equal
let pp fmt r = Fmt.string fmt (name r)
