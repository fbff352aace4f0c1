(* Pure helpers of the benchmark: order statistics, span self time, the
   metric-name rule and JSON numbers.  Kept apart from the drivers so the
   benchmark's own tests exercise them without booting firmware. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least a [p] share of all samples at or below it. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* Samples of the ascending array [s] strictly above [v]: a tail
   percentile is only reported when at least ten samples lie beyond it. *)
let beyond s v =
  let lo = ref 0 and hi = ref (Array.length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  Array.length s - !lo

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* A span is one timed call into a layer; [parent] is the index of the
   span that caused it in the same array, or -1 for a root. *)
type span = {
  name : string;
  parent : int;
  exec : int;  (** exec id, -1 for set-up *)
  t0 : int;  (** ns *)
  t1 : int;
}

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover (children clipped to the parent, their
   overlaps counted once). *)
let self_times (spans : span array) =
  let n = Array.length spans in
  let kids = Array.make n [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then kids.(s.parent) <- i :: kids.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let ivs =
        List.filter_map
          (fun k ->
            let c = spans.(k) in
            let a = max c.t0 s.t0 and b = min c.t1 s.t1 in
            if b > a then Some (a, b) else None)
          kids.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      s.t1 - s.t0 - covered)
    spans

(* Metric and workload names: 1 to 64 of [A-Za-z0-9_.-], starting with a
   letter or a digit. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

(* A JSON number with every digit of the double; [None] for nan and
   infinities, which JSON cannot carry. *)
let json_number f =
  if Float.is_finite f then Some (Printf.sprintf "%.17g" f) else None
