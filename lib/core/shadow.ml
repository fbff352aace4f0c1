(* Unified host-side shadow memory (S3.3).

   One byte of KASAN state per 8-byte granule of guest RAM, using the kernel
   encoding, plus a parallel per-granule plane used by the KCSAN
   functionality for its sampling state.  Keeping both planes in one
   structure is the paper's "unified shadow memory that records information
   for multiple sanitizer functionalities". *)

type code =
  | Addressable
  | Partial of int (* first k bytes of the granule are addressable *)
  | Heap_redzone
  | Stack_redzone
  | Global_redzone
  | Freed

(* A [Partial k] granule is only meaningful for k in 1..7: k = 0 would be
   fully poisoned (a redzone byte says which kind) and k = 8 is
   [Addressable].  The old [k land 7] silently aliased out-of-range
   constructions — [Partial 8] encoded as [Addressable] and survived a
   round-trip as a different code — so out-of-range is rejected loudly
   instead. *)
let partial k =
  if k >= 1 && k <= 7 then Partial k
  else invalid_arg (Printf.sprintf "Shadow.partial %d (want 1..7)" k)

let byte_of_code = function
  | Addressable -> 0x00
  | Partial k ->
      if k >= 1 && k <= 7 then k
      else invalid_arg (Printf.sprintf "Shadow.byte_of_code: Partial %d (want 1..7)" k)
  | Heap_redzone -> 0xF1
  | Stack_redzone -> 0xF3
  | Global_redzone -> 0xF9
  | Freed -> 0xFB

let code_of_byte = function
  | 0x00 -> Addressable
  | k when k >= 1 && k <= 7 -> Partial k
  | 0xF1 -> Heap_redzone
  | 0xF3 -> Stack_redzone
  | 0xF9 -> Global_redzone
  | 0xFB -> Freed
  | b -> invalid_arg (Printf.sprintf "Shadow.code_of_byte 0x%x" b)

let code_name = function
  | Addressable -> "addressable"
  | Partial k -> Printf.sprintf "partial(%d)" k
  | Heap_redzone -> "heap-redzone"
  | Stack_redzone -> "stack-redzone"
  | Global_redzone -> "global-redzone"
  | Freed -> "freed"

(* Snapshot of both planes (immutable once taken). *)
type state = { s_kasan : Bytes.t; s_kcsan_epoch : Bytes.t }

(* Dirty chunks make restoring the latest snapshot cost what the exec
   wrote: every write below marks the chunks of the granules it touches,
   and [restore] of the state the planes were last synced with copies back
   only those chunks.  Only this module writes the planes, which is what
   keeps [dirty] exact ([t] is private). *)
type t = {
  base : int; (* guest RAM base *)
  limit : int;
  kasan : Bytes.t; (* one byte per granule *)
  kcsan_epoch : Bytes.t; (* sampling state plane for KCSAN *)
  dirty : Bytes.t; (* one byte per chunk; non-zero = written since sync *)
  mutable synced : state option;
      (* the state the planes equal outside the dirty chunks *)
}

let granule = 8

(* 512 granules per chunk: one dirty byte per 4 KiB guest page. *)
let chunk_shift = 9
let chunk = 1 lsl chunk_shift

let create ~ram_base ~ram_size =
  let granules = (ram_size + granule - 1) / granule in
  {
    base = ram_base;
    limit = ram_base + ram_size;
    kasan = Bytes.make granules '\000';
    kcsan_epoch = Bytes.make granules '\000';
    dirty = Bytes.make ((granules + chunk - 1) lsr chunk_shift) '\000';
    synced = None;
  }

let covers t addr = addr >= t.base && addr < t.limit
let index t addr = (addr - t.base) / granule

(* Mark the chunks of granules [first, last] written. *)
let touch t first last =
  let c = first lsr chunk_shift in
  Bytes.fill t.dirty c ((last lsr chunk_shift) - c + 1) '\001'

let get t addr = code_of_byte (Bytes.get_uint8 t.kasan (index t addr))

(** Poison [addr, addr+size) with [code]; granule-rounded outward on the
    tail like the kernel implementation, clamped to the end of RAM. *)
let poison t ~addr ~size code =
  if size > 0 && covers t addr then begin
    let b = byte_of_code code in
    let first = index t addr in
    let last = index t (min (addr + size - 1) (t.limit - 1)) in
    touch t first last;
    Bytes.fill t.kasan first (last - first + 1) (Char.chr b)
  end

(** Mark [addr, addr+size) addressable; a non-multiple-of-8 tail becomes a
    partial granule.  A range that runs past the end of RAM is clamped:
    every granule from [addr]'s to the last becomes addressable. *)
let unpoison t ~addr ~size =
  if size > 0 && covers t addr then begin
    let first = index t addr in
    let clamped = addr + size > t.limit in
    let full =
      if clamped then Bytes.length t.kasan - first else size / granule
    in
    let tail = if clamped then 0 else size mod granule in
    let written = if tail = 0 then full else full + 1 in
    touch t first (first + written - 1);
    Bytes.fill t.kasan first full '\000';
    if tail <> 0 then Bytes.set_uint8 t.kasan (first + full) tail
  end

type verdict = Valid | Invalid of code

(** Validate an access of [size] (1/2/4) bytes at [addr].  Accesses outside
    guest RAM are not the shadow's business (MMIO and fault logic handle
    them), and neither is the part of an access that runs past its end. *)
let check t ~addr ~size =
  if not (covers t addr) then Valid
  else begin
    let last = addr + size - 1 in
    let last = if last < t.limit then last else t.limit - 1 in
    let sh = Bytes.get_uint8 t.kasan (index t last) in
    if sh >= 8 || (sh <> 0 && last land (granule - 1) >= sh) then
      Invalid (code_of_byte sh)
    else if index t addr = index t last then Valid
    else begin
      (* the last granule is fine up to [last], but the access may start
         in a different, poisoned granule *)
      let sh0 = Bytes.get_uint8 t.kasan (index t addr) in
      if sh0 = 0 then Valid else Invalid (code_of_byte sh0)
    end
  end

(** The one-shadow-byte test for accesses of [size] bytes: [true] at
    [addr] when the access starts outside RAM, or lies in one granule of
    RAM whose shadow makes all of it addressable -- {!check}'s [Valid],
    found from one byte.  [false] only means "ask {!check}". *)
let fits_valid t ~size =
  let tail = size - 1 in
  fun addr ->
    let last = addr + tail in
    (not (covers t addr))
    || last < t.limit
       && index t addr = index t last
       &&
       (* [addr..last] lies in RAM *)
       let sh = Char.code (Bytes.unsafe_get t.kasan (index t last)) in
       sh = 0 || (sh < 8 && last land (granule - 1) < sh)

(* --- Snapshot support --------------------------------------------------------- *)

let sync t s =
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.synced <- Some s

(** Deep copy of both shadow planes for the snapshot service. *)
let save t =
  let s =
    { s_kasan = Bytes.copy t.kasan; s_kcsan_epoch = Bytes.copy t.kcsan_epoch }
  in
  sync t s;
  s

(* Restoring the synced state (the latest [save], or the state last
   restored) copies back only the dirty chunks; any other state is a full
   copy of both planes. *)
let restore t (s : state) =
  if
    Bytes.length s.s_kasan <> Bytes.length t.kasan
    || Bytes.length s.s_kcsan_epoch <> Bytes.length t.kcsan_epoch
  then invalid_arg "Shadow.restore: size mismatch";
  let n = Bytes.length t.kasan in
  match t.synced with
  | Some synced when synced == s ->
      Embsan_emu.Ram.drain_marks t.dirty (fun c ->
          let off = c lsl chunk_shift in
          let len = min chunk (n - off) in
          Bytes.blit s.s_kasan off t.kasan off len;
          Bytes.blit s.s_kcsan_epoch off t.kcsan_epoch off len)
  | _ ->
      Bytes.blit s.s_kasan 0 t.kasan 0 n;
      Bytes.blit s.s_kcsan_epoch 0 t.kcsan_epoch 0 n;
      sync t s

(* --- KCSAN plane -------------------------------------------------------------- *)

(** Per-granule monotonically wrapping access counter, used by the host
    KCSAN runtime to diversify watchpoint selection across addresses. *)
let kcsan_bump t addr =
  if covers t addr then begin
    let i = index t addr in
    Bytes.unsafe_set t.dirty (i lsr chunk_shift) '\001';
    let v = Bytes.get_uint8 t.kcsan_epoch i in
    Bytes.set_uint8 t.kcsan_epoch i ((v + 1) land 0xFF);
    v
  end
  else 0
