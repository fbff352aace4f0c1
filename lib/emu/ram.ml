(* Physical RAM (see ram.mli): addresses, bounds and width accessors
   over one {!Pages} store, whose dirty marks and synced image are the
   snapshot service's (DESIGN.md "Snapshot service").  A store marks its
   page(s) with a single unconditional byte write, so the fast path stays
   allocation-free. *)

type t = { base : int; mem : Pages.t }

let page_shift = 12
let page_size = 1 lsl page_shift

let create ~base ~size = { base; mem = Pages.create ~shift:page_shift size }

let base t = t.base
let size t = Bytes.length t.mem.Pages.bytes
let limit t = t.base + size t

(* Mark the page(s) covered by a write of [size] bytes at byte offset
   [off] dirty.  Callers have bounds-checked, so both page indices are in
   range; a write can straddle at most one page boundary
   (size <= 4 << page_size). *)
let[@inline] mark_off t off size =
  let dirty = t.mem.Pages.dirty in
  Bytes.unsafe_set dirty (off lsr page_shift) '\xFF';
  let last = (off + size - 1) lsr page_shift in
  if last <> off lsr page_shift then Bytes.unsafe_set dirty last '\xFF'

let contains t addr ~size:n =
  addr >= t.base && addr + n <= limit t

let fault (acc : Fault.access) t =
  let reason =
    if acc.addr < 0x1000 then "null pointer dereference"
    else if
      (* Either the access starts past the end of RAM, or it starts inside
         RAM and straddles the end ([addr < limit] but [addr+size > limit]).
         Both are "beyond RAM"; only accesses that start outside the mapped
         window entirely (below base, above the null page) are "unmapped". *)
      acc.addr >= limit t
      || (acc.addr >= t.base && acc.addr + acc.size > limit t)
    then "access beyond RAM"
    else "unmapped address"
  in
  raise (Fault.Memory_fault (acc, reason))

let check t (acc : Fault.access) =
  if not (contains t acc.addr ~size:acc.size) then fault acc t

let read8 t addr =
  Char.code (Bytes.unsafe_get t.mem.Pages.bytes (addr - t.base))

let write8 t addr v =
  Bytes.unsafe_set t.mem.Pages.bytes (addr - t.base)
    (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set t.mem.Pages.dirty ((addr - t.base) lsr page_shift) '\xFF'

let read16 t addr = Bytes.get_uint16_le t.mem.Pages.bytes (addr - t.base)

let read32 t addr =
  Int32.to_int (Bytes.get_int32_le t.mem.Pages.bytes (addr - t.base))
  land 0xFFFF_FFFF

let write16 t addr v =
  Bytes.set_uint16_le t.mem.Pages.bytes (addr - t.base) (v land 0xFFFF);
  mark_off t (addr - t.base) 2

let write32 t addr v =
  Bytes.set_int32_le t.mem.Pages.bytes (addr - t.base)
    (Int32.of_int (v land 0xFFFF_FFFF));
  mark_off t (addr - t.base) 4

let read t addr width =
  match width with
  | 1 -> read8 t addr
  | 2 -> read16 t addr
  | 4 -> read32 t addr
  | _ -> invalid_arg "Ram.read"

let write t addr width v =
  match width with
  | 1 -> write8 t addr v
  | 2 -> write16 t addr v
  | 4 -> write32 t addr v
  | _ -> invalid_arg "Ram.write"

let blit_string t ~addr s =
  Bytes.blit_string s 0 t.mem.Pages.bytes (addr - t.base) (String.length s);
  Pages.mark t.mem ~off:(addr - t.base) ~len:(String.length s)

let read_string t ~addr ~len =
  Bytes.sub_string t.mem.Pages.bytes (addr - t.base) len

let load_image t (image : Embsan_isa.Image.t) =
  List.iter
    (fun (s : Embsan_isa.Image.section) ->
      if not (contains t s.base ~size:(String.length s.data)) then
        invalid_arg
          (Printf.sprintf "Ram.load_image: section %s does not fit" s.sec_name);
      blit_string t ~addr:s.base s.data)
    image.sections;
  ignore (Pages.capture t.mem : Pages.image)
