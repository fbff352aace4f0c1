(* Physical RAM with dirty-page tracking (see ram.mli and DESIGN.md
   "Snapshot service").  A store marks its page(s) with a single
   unconditional byte write, so the tracked fast path stays
   allocation-free. *)

(* One immutable buffer per page.  Pages no capture has copied are
   [zero_page]; strings, so images are safe to share across domains. *)
type image = string array

type t = {
  base : int;
  bytes : Bytes.t;
  mutable track_dirty : bool;
  dirty : Bytes.t; (* one byte per page; non-zero = written since sync *)
  mutable synced : image option;
      (* the image RAM equals outside the dirty pages; [None] unless
         tracking stayed on since the last capture or revert *)
}

external zeroed_stub : int -> Bytes.t = "embsan_ram_zeroed"

let zeroed n =
  if n < 0 || n > Sys.max_string_length then invalid_arg "Ram.zeroed";
  zeroed_stub n

let page_shift = 12
let page_size = 1 lsl page_shift
let zero_page = String.make page_size '\000'

let create ~base ~size =
  let pages = (size + page_size - 1) / page_size in
  {
    base;
    bytes = zeroed size;
    track_dirty = true;
    dirty = Bytes.make pages '\000';
    synced = Some (Array.make pages zero_page);
  }

let base t = t.base
let size t = Bytes.length t.bytes
let limit t = t.base + Bytes.length t.bytes
let page_count t = Bytes.length t.dirty

let track_dirty t = t.track_dirty

let set_track_dirty t on =
  t.track_dirty <- on;
  if not on then t.synced <- None

(* Mark the page(s) covered by a write of [size] bytes at byte offset
   [off] dirty.  Callers have bounds-checked, so both page indices are in
   range; a write can straddle at most one page boundary
   (size <= 4 << page_size). *)
let[@inline] mark_off t off size =
  Bytes.unsafe_set t.dirty (off lsr page_shift) '\xFF';
  let last = (off + size - 1) lsr page_shift in
  if last <> off lsr page_shift then Bytes.unsafe_set t.dirty last '\xFF'

(* Mark [addr, addr+size) dirty (used by bulk writes like {!blit_string};
   the per-access paths mark inline). *)
let mark_dirty_range t ~addr ~size =
  if size > 0 then begin
    let first = (addr - t.base) lsr page_shift in
    let last = (addr - t.base + size - 1) lsr page_shift in
    Bytes.fill t.dirty first (last - first + 1) '\xFF'
  end

let page_is_dirty t page = Bytes.get t.dirty page <> '\000'

let drain_marks marks f =
  let n = Bytes.length marks in
  let w = ref 0 in
  while !w < n do
    if !w + 8 > n || Bytes.get_int64_ne marks !w <> 0L then
      for i = !w to min (!w + 8) n - 1 do
        if Bytes.unsafe_get marks i <> '\000' then begin
          Bytes.unsafe_set marks i '\000';
          f i
        end
      done;
    w := !w + 8
  done

let sync t image =
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.synced <- (if t.track_dirty then Some image else None)

let page_len t p = min page_size (Bytes.length t.bytes - (p lsl page_shift))
let copy_page t p = Bytes.sub_string t.bytes (p lsl page_shift) (page_len t p)

(* The synced image with its dirty pages replaced: O(pages written).  It
   never reads the other pages, since reading a page the guest never
   touched faults it in as much as writing it.  Without a synced image
   every page is copied. *)
let capture t =
  let image =
    match t.synced with
    | Some synced ->
        let image = Array.copy synced in
        drain_marks t.dirty (fun p -> image.(p) <- copy_page t p);
        image
    | None -> Array.init (page_count t) (copy_page t)
  in
  sync t image;
  image

let page image p = image.(p)

let private_pages image =
  Array.fold_left (fun n pg -> if pg == zero_page then n else n + 1) 0 image

let is_synced t image =
  match t.synced with Some s -> s == image | None -> false

let revert t ~from =
  if Array.length from <> page_count t then
    invalid_arg "Ram.revert: size mismatch";
  let copy p =
    Bytes.blit_string from.(p) 0 t.bytes (p lsl page_shift) (page_len t p)
  in
  if is_synced t from then begin
    let reverted = ref 0 in
    drain_marks t.dirty (fun p ->
        copy p;
        incr reverted);
    !reverted
  end
  else begin
    for p = 0 to page_count t - 1 do
      copy p
    done;
    sync t from;
    page_count t
  end

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

let read8 t addr = Char.code (Bytes.unsafe_get t.bytes (addr - t.base))

let write8 t addr v =
  Bytes.unsafe_set t.bytes (addr - t.base) (Char.unsafe_chr (v land 0xFF));
  if t.track_dirty then
    Bytes.unsafe_set t.dirty ((addr - t.base) lsr page_shift) '\xFF'

let read16 t addr = Bytes.get_uint16_le t.bytes (addr - t.base)

let read32 t addr =
  Int32.to_int (Bytes.get_int32_le t.bytes (addr - t.base)) land 0xFFFF_FFFF

let write16 t addr v =
  Bytes.set_uint16_le t.bytes (addr - t.base) (v land 0xFFFF);
  if t.track_dirty then mark_off t (addr - t.base) 2

let write32 t addr v =
  Bytes.set_int32_le t.bytes (addr - t.base) (Int32.of_int (v land 0xFFFF_FFFF));
  if t.track_dirty then mark_off t (addr - t.base) 4

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
  Bytes.blit_string s 0 t.bytes (addr - t.base) (String.length s);
  if t.track_dirty then mark_dirty_range t ~addr ~size:(String.length s)

let read_string t ~addr ~len = Bytes.sub_string t.bytes (addr - t.base) len

let load_image t (image : Embsan_isa.Image.t) =
  List.iter
    (fun (s : Embsan_isa.Image.section) ->
      if not (contains t s.base ~size:(String.length s.data)) then
        invalid_arg
          (Printf.sprintf "Ram.load_image: section %s does not fit" s.sec_name);
      blit_string t ~addr:s.base s.data)
    image.sections;
  if Option.is_some t.synced then ignore (capture t : image)
