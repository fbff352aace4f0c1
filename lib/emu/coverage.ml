(* Basic-block coverage collection.

   Two collection paths mirror the paper's fuzzers:
   - [attach_tcg]: OS-agnostic coverage from translator block probes, the
     Tardis mechanism (works on any firmware, including closed-source);
   - [attach_kcov]: kernel-assisted coverage where the *guest* reports
     covered PCs through a kcov-style hypercall, the Syzkaller mechanism
     (requires guest support compiled in).

   Signature indices live below 65536 (the bitmap size); {!Cmplog}
   compare features are emitted at [Cmplog.feature_base] and above, so a
   campaign can append them to the same signature without collision.

   Beside the bitmap sits the touched list: every index whose counter
   went from 0 to 1 since the last reset.  Counters saturate at 255 and
   never wrap back to 0, so an index is pushed at most once per reset and
   the list never outgrows [bitmap_size].  Reset and signature cost
   O(edges hit), not O(bitmap_size). *)

type t = {
  bitmap : Bytes.t; (* 64 KiB edge bitmap, AFL-style *)
  touched : Bytes.t; (* uint16 slots; the first [n_touched] hold non-zero indices *)
  mutable n_touched : int;
  last_loc : int array; (* per-hart previous location *)
  mutable blocks_seen : int;
}

let bitmap_size = 1 lsl 16

let create ~harts =
  {
    bitmap = Bytes.make bitmap_size '\000';
    (* left uninitialized: only slots below [n_touched] are read, so its
       pages are faulted in as the list grows rather than zeroed here *)
    touched = Bytes.create (2 * bitmap_size);
    n_touched = 0;
    last_loc = Array.make harts 0;
    blocks_seen = 0;
  }

let touched_at t k = Bytes.get_uint16_ne t.touched (2 * k)

let mix pc = (pc lsr 3) * 0x9E3779B1 land 0xFFFF_FFFF

let record t ~hart ~pc =
  let loc = mix pc land (bitmap_size - 1) in
  let prev = if hart >= 0 && hart < Array.length t.last_loc then t.last_loc.(hart) else 0 in
  let idx = (loc lxor prev) land (bitmap_size - 1) in
  let v = Bytes.get_uint8 t.bitmap idx in
  if v = 0 then begin
    Bytes.set_uint16_ne t.touched (2 * t.n_touched) idx;
    t.n_touched <- t.n_touched + 1
  end;
  if v < 255 then Bytes.set_uint8 t.bitmap idx (v + 1);
  if hart >= 0 && hart < Array.length t.last_loc then t.last_loc.(hart) <- loc lsr 1;
  t.blocks_seen <- t.blocks_seen + 1

let attach_tcg t (m : Machine.t) =
  Probe.on_block m.probes (fun ~hart ~pc -> record t ~hart ~pc)

(** Hypercall number reserved for guest kcov reporting. *)
let kcov_trap = 9

let attach_kcov t (m : Machine.t) =
  Machine.set_trap_handler m kcov_trap (fun _m cpu ->
      record t ~hart:cpu.Cpu.id ~pc:(Cpu.get cpu Embsan_isa.Reg.a0))

let reset_edges t =
  for k = 0 to t.n_touched - 1 do
    Bytes.set_uint8 t.bitmap (touched_at t k) 0
  done;
  t.n_touched <- 0;
  Array.fill t.last_loc 0 (Array.length t.last_loc) 0;
  t.blocks_seen <- 0

(* AFL-style hit-count class of a non-zero counter. *)
let bucket v =
  if v = 1 then 1
  else if v = 2 then 2
  else if v = 3 then 3
  else if v <= 7 then 4
  else if v <= 15 then 5
  else if v <= 31 then 6
  else if v <= 127 then 7
  else 8

(* Shell sort gaps (Ciura's, then x2.25), largest first. *)
let gaps = [| 40412; 17961; 7983; 3548; 1577; 701; 301; 132; 57; 23; 10; 4; 1 |]

(* Sort [a.(0 .. n-1)] ascending in place: int compares, no closure and
   no merge buffer.  An exec's ~20 indices take the last two or three
   gaps, mostly the final insertion pass. *)
let sort_ints (a : int array) n =
  for g = 0 to Array.length gaps - 1 do
    let gap = Array.unsafe_get gaps g in
    for i = gap to n - 1 do
      let v = a.(i) in
      let j = ref i in
      while !j >= gap && a.(!j - gap) > v do
        a.(!j) <- a.(!j - gap);
        j := !j - gap
      done;
      a.(!j) <- v
    done
  done

(** Touched indices in ascending order, each with its hit-count bucket. *)
let signature t =
  let n = t.n_touched in
  let idx = Array.make n 0 in
  for k = 0 to n - 1 do
    idx.(k) <- touched_at t k
  done;
  sort_ints idx n;
  let acc = ref [] in
  for k = n - 1 downto 0 do
    let i = idx.(k) in
    acc := (i, bucket (Bytes.get_uint8 t.bitmap i)) :: !acc
  done;
  !acc

let edge_count t = t.n_touched
