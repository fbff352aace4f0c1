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

(* Both planes are {!Embsan_emu.Pages} stores of 512-granule pages (one
   page per 4 KiB of guest RAM), so saving and restoring cost what the
   guest wrote.  Only this module writes the planes, and every write
   below marks the pages of the granules it touches. *)
module Pages = Embsan_emu.Pages

type t = {
  base : int; (* guest RAM base *)
  limit : int;
  kasan : Pages.t; (* one byte per granule *)
  kcsan_epoch : Pages.t; (* sampling state plane for KCSAN *)
}

let granule_shift = 3
let granule = 1 lsl granule_shift
let page_shift = 9

let create ~ram_base ~ram_size =
  let granules = (ram_size + granule - 1) / granule in
  {
    base = ram_base;
    limit = ram_base + ram_size;
    kasan = Pages.create ~shift:page_shift granules;
    kcsan_epoch = Pages.create ~shift:page_shift granules;
  }

let covers t addr = addr >= t.base && addr < t.limit
let index t addr = (addr - t.base) / granule

let get t addr =
  code_of_byte (Bytes.get_uint8 t.kasan.Pages.bytes (index t addr))

(** Poison [addr, addr+size) with [code]; granule-rounded outward on the
    tail like the kernel implementation, clamped to the end of RAM. *)
let poison t ~addr ~size code =
  if size > 0 && covers t addr then begin
    let b = byte_of_code code in
    let first = index t addr in
    let last = index t (min (addr + size - 1) (t.limit - 1)) in
    Pages.mark t.kasan ~off:first ~len:(last - first + 1);
    Bytes.fill t.kasan.Pages.bytes first (last - first + 1) (Char.chr b)
  end

(** Mark [addr, addr+size) addressable; a non-multiple-of-8 tail becomes a
    partial granule.  A range that runs past the end of RAM is clamped:
    every granule from [addr]'s to the last becomes addressable. *)
let unpoison t ~addr ~size =
  if size > 0 && covers t addr then begin
    let plane = t.kasan.Pages.bytes in
    let first = index t addr in
    let clamped = addr + size > t.limit in
    let full = if clamped then Bytes.length plane - first else size / granule in
    let tail = if clamped then 0 else size mod granule in
    Pages.mark t.kasan ~off:first ~len:(if tail = 0 then full else full + 1);
    Bytes.fill plane first full '\000';
    if tail <> 0 then Bytes.set_uint8 plane (first + full) tail
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
    let plane = t.kasan.Pages.bytes in
    let sh = Bytes.get_uint8 plane (index t last) in
    if sh >= 8 || (sh <> 0 && last land (granule - 1) >= sh) then
      Invalid (code_of_byte sh)
    else if index t addr = index t last then Valid
    else begin
      (* the last granule is fine up to [last], but the access may start
         in a different, poisoned granule *)
      let sh0 = Bytes.get_uint8 plane (index t addr) in
      if sh0 = 0 then Valid else Invalid (code_of_byte sh0)
    end
  end

(* --- Snapshot support --------------------------------------------------------- *)

(* The KASAN image, then the KCSAN one. *)
type state = Pages.image * Pages.image

let save t = (Pages.capture t.kasan, Pages.capture t.kcsan_epoch)

let restore t ((kasan, kcsan) : state) =
  ignore (Pages.revert t.kasan ~from:kasan : int);
  ignore (Pages.revert t.kcsan_epoch ~from:kcsan : int)

(* --- KCSAN plane -------------------------------------------------------------- *)

(** Per-granule monotonically wrapping access counter, used by the host
    KCSAN runtime to diversify watchpoint selection across addresses. *)
let kcsan_bump t addr =
  if covers t addr then begin
    let i = index t addr in
    let plane = t.kcsan_epoch in
    Bytes.unsafe_set plane.Pages.dirty (i lsr page_shift) '\xFF';
    let v = Bytes.get_uint8 plane.Pages.bytes i in
    Bytes.set_uint8 plane.Pages.bytes i ((v + 1) land 0xFF);
    v
  end
  else 0
