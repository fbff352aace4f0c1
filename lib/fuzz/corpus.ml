(* Coverage-triaged corpus, AFL-style: a program joins the corpus when its
   execution produced an (edge, hit-bucket) pair never seen before.  When
   schedule fuzzing is on, the schedule seed the program ran under is part
   of the entry: coverage reached only under a particular interleaving is
   replayed and mutated under that interleaving.  Likewise for the rehost
   seed (MMIO response stream + interrupt-injection plan) when the
   model-free rehosting layer is armed.

   Admission hashes nothing: [seen] holds one byte per signature index
   (edges below [Cmplog.feature_base], compare features above it), with
   bit [b - 1] set once the pair (index, bucket [b]) was seen.  Entries
   live in a growable array, oldest first, so [size] and [pick] are
   O(1). *)

type entry = { e_prog : Prog.t; e_sched : int option; e_rehost : int option }

type t = {
  seen : Bytes.t; (* per signature index: one bit per bucket 1..8 *)
  mutable entries : entry array; (* oldest first; the first [n] are live *)
  mutable n : int;
  mutable total_pairs : int;
}

let create () =
  {
    seen =
      Bytes.make
        (Embsan_emu.Cmplog.feature_base + Embsan_emu.Cmplog.feature_slots)
        '\000';
    entries = [||];
    n = 0;
    total_pairs = 0;
  }

let bucket_bit b =
  if b < 1 || b > 8 then invalid_arg (Printf.sprintf "Corpus: bucket %d" b)
  else 1 lsl (b - 1)

(* The pairs of [signature] not seen before; a pair listed twice counts
   twice, as it always has. *)
let rec fresh seen acc = function
  | [] -> acc
  | (i, b) :: rest ->
      let acc = if Bytes.get_uint8 seen i land bucket_bit b = 0 then acc + 1 else acc in
      fresh seen acc rest

let rec mark seen = function
  | [] -> ()
  | (i, b) :: rest ->
      Bytes.set_uint8 seen i (Bytes.get_uint8 seen i lor bucket_bit b);
      mark seen rest

let push t e =
  if t.n = Array.length t.entries then begin
    let a = Array.make (max 16 (2 * t.n)) e in
    Array.blit t.entries 0 a 0 t.n;
    t.entries <- a
  end;
  t.entries.(t.n) <- e;
  t.n <- t.n + 1

(** Record an execution's coverage signature; if it contributed new
    coverage, add the program (with the schedule and rehost seeds it ran
    under) and return [true]. *)
let consider t prog ?sched ?rehost (signature : (int * int) list) =
  let n = fresh t.seen 0 signature in
  if n = 0 then false
  else begin
    mark t.seen signature;
    t.total_pairs <- t.total_pairs + n;
    push t { e_prog = prog; e_sched = sched; e_rehost = rehost };
    true
  end

let size t = t.n
let coverage t = t.total_pairs

(* Draws as [Rng.pick] does from the newest-first list of entries. *)
let pick rng t =
  if t.n = 0 then None
  else
    let e = t.entries.(t.n - 1 - Rng.below rng t.n) in
    Some (e.e_prog, e.e_sched, e.e_rehost)

(** All programs, oldest first (the "merged corpus" replayed by the
    overhead experiment). *)
let programs t = List.init t.n (fun i -> t.entries.(i).e_prog)
