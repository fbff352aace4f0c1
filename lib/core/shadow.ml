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

(* 512 granules per chunk: one dirty byte per 4 KiB guest page. *)
let chunk_shift = 9
let chunk = 1 lsl chunk_shift

(* Snapshot of both planes: one immutable buffer per chunk, its KASAN
   bytes then its KCSAN bytes.  Chunks not written since the state they
   were saved from share its buffer; never-written chunks share
   [zero_chunk]. *)
type state = string array

let zero_chunk = String.make (2 * chunk) '\000'

(* Dirty chunks make saving and restoring cost what the guest wrote:
   every write below marks the chunks of the granules it touches, [save]
   copies only those chunks and [restore] of the state the planes were
   last synced with copies back only those.  Only this module writes the
   planes, which is what keeps [dirty] exact ([t] is private). *)
type t = {
  base : int; (* guest RAM base *)
  limit : int;
  kasan : Bytes.t; (* one byte per granule *)
  kcsan_epoch : Bytes.t; (* sampling state plane for KCSAN *)
  dirty : Bytes.t; (* one byte per chunk; non-zero = written since sync *)
  mutable synced : state;
      (* the state the planes equal outside the dirty chunks *)
}

let granule_shift = 3
let granule = 1 lsl granule_shift

(* Both planes start zeroed on demand (see {!Embsan_emu.Ram.zeroed}) and
   synced to the all-zero state. *)
let create ~ram_base ~ram_size =
  let granules = (ram_size + granule - 1) / granule in
  let chunks = (granules + chunk - 1) lsr chunk_shift in
  {
    base = ram_base;
    limit = ram_base + ram_size;
    kasan = Embsan_emu.Ram.zeroed granules;
    kcsan_epoch = Embsan_emu.Ram.zeroed granules;
    dirty = Bytes.make chunks '\000';
    synced = Array.make chunks zero_chunk;
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

(* --- Snapshot support --------------------------------------------------------- *)

let sync t s =
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.synced <- s

let chunk_len t c = min chunk (Bytes.length t.kasan - (c lsl chunk_shift))

let copy_chunk t c =
  let off = c lsl chunk_shift and len = chunk_len t c in
  let b = Bytes.create (2 * len) in
  Bytes.blit t.kasan off b 0 len;
  Bytes.blit t.kcsan_epoch off b len len;
  Bytes.unsafe_to_string b

(* The synced state with its dirty chunks replaced. *)
let save t =
  let s = Array.copy t.synced in
  Embsan_emu.Ram.drain_marks t.dirty (fun c -> s.(c) <- copy_chunk t c);
  sync t s;
  s

let chunk_of (s : state) c = s.(c)

(* Restoring the synced state (the latest [save], or the state last
   restored) copies back only the dirty chunks; any other state is a full
   copy of both planes. *)
let restore t (s : state) =
  if Array.length s <> Bytes.length t.dirty then
    invalid_arg "Shadow.restore: size mismatch";
  let copy c =
    let off = c lsl chunk_shift and len = chunk_len t c in
    Bytes.blit_string s.(c) 0 t.kasan off len;
    Bytes.blit_string s.(c) len t.kcsan_epoch off len
  in
  if t.synced == s then Embsan_emu.Ram.drain_marks t.dirty copy
  else begin
    for c = 0 to Array.length s - 1 do
      copy c
    done;
    sync t s
  end

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
