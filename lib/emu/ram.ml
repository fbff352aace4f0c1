(* Physical RAM: a flat byte array mapped at [base, base + size).
   Accesses outside raise {!Fault.Memory_fault}; addresses below the first
   page are reported as null-pointer dereferences.

   Dirty-page tracking (the snapshot service's write set, DESIGN.md
   "Snapshot service"): one byte per 4 KiB page, each bit a consumer
   channel.  A store marks its page(s) dirty on *every* channel with a
   single unconditional byte write, so the tracked fast path stays
   allocation-free; consumers (snapshot restore, incremental digests)
   clear only their own bit.  Tracking is off by default -- the translated
   store templates specialize the marking in at translation time, so the
   untracked hot path is byte-identical to the pre-snapshot engine. *)

type t = {
  base : int;
  bytes : Bytes.t;
  mutable track_dirty : bool;
  dirty : Bytes.t; (* one byte per page; bit = dirty on that channel *)
}

let page_shift = 12
let page_size = 1 lsl page_shift

(* Consumer channels of the dirty bitmap. *)
let snap_channel = 0 (* Snap.capture/restore write set *)
let digest_channel = 1 (* Check.Snapshot incremental RAM digest *)

let create ~base ~size =
  {
    base;
    bytes = Bytes.make size '\000';
    track_dirty = false;
    dirty = Bytes.make ((size + page_size - 1) / page_size) '\000';
  }

let base t = t.base
let size t = Bytes.length t.bytes
let limit t = t.base + Bytes.length t.bytes
let page_count t = Bytes.length t.dirty

let track_dirty t = t.track_dirty
let set_track_dirty t on = t.track_dirty <- on

(* Mark the page(s) covered by a write of [size] bytes at byte offset
   [off] dirty on every channel.  Callers have bounds-checked, so both
   page indices are in range; a write can straddle at most one page
   boundary (size <= 4 << page_size). *)
let[@inline] mark_off t off size =
  Bytes.unsafe_set t.dirty (off lsr page_shift) '\xFF';
  let last = (off + size - 1) lsr page_shift in
  if last <> off lsr page_shift then Bytes.unsafe_set t.dirty last '\xFF'

(** Mark [addr, addr+size) dirty (used by bulk writes like {!blit_string};
    the per-access paths mark inline). *)
let mark_dirty_range t ~addr ~size =
  if size > 0 then begin
    let first = (addr - t.base) lsr page_shift in
    let last = (addr - t.base + size - 1) lsr page_shift in
    Bytes.fill t.dirty first (last - first + 1) '\xFF'
  end

let page_is_dirty t ~channel page =
  Char.code (Bytes.get t.dirty page) land (1 lsl channel) <> 0

let dirty_count t ~channel =
  let mask = 1 lsl channel in
  let n = ref 0 in
  for p = 0 to Bytes.length t.dirty - 1 do
    if Char.code (Bytes.unsafe_get t.dirty p) land mask <> 0 then incr n
  done;
  !n

(** Clear [channel]'s dirty bit on every page (other channels keep
    theirs). *)
let clear_dirty t ~channel =
  let keep = lnot (1 lsl channel) land 0xFF in
  for p = 0 to Bytes.length t.dirty - 1 do
    let b = Char.code (Bytes.unsafe_get t.dirty p) in
    if b land (1 lsl channel) <> 0 then
      Bytes.unsafe_set t.dirty p (Char.unsafe_chr (b land keep))
  done

(** Iterate the pages dirty on [channel], in ascending page order. *)
let iter_dirty t ~channel f =
  let mask = 1 lsl channel in
  for p = 0 to Bytes.length t.dirty - 1 do
    if Char.code (Bytes.unsafe_get t.dirty p) land mask <> 0 then f p
  done

(** Revert every page dirty on [channel] to its contents in [from] (a full
    RAM-sized copy), clear that channel's bit and mark the reverted pages
    dirty on every *other* channel (the revert is itself a write those
    consumers must observe).  O(pages touched) data movement; returns the
    number of pages reverted. *)
let revert_dirty t ~channel ~from =
  if Bytes.length from <> Bytes.length t.bytes then
    invalid_arg "Ram.revert_dirty: size mismatch";
  let mask = 1 lsl channel in
  let others = Char.unsafe_chr (lnot mask land 0xFF) in
  let reverted = ref 0 in
  let total = Bytes.length t.bytes in
  (* a restore typically finds a few pages among ~1024, so the bitmap is
     scanned a word (eight pages) at a time *)
  let word_mask = Int64.mul 0x0101_0101_0101_0101L (Int64.of_int mask) in
  let n = Bytes.length t.dirty in
  let w = ref 0 in
  while !w < n do
    if
      !w + 8 > n
      || Int64.logand (Bytes.get_int64_ne t.dirty !w) word_mask <> 0L
    then
      for p = !w to min (!w + 8) n - 1 do
        if Char.code (Bytes.unsafe_get t.dirty p) land mask <> 0 then begin
          let off = p lsl page_shift in
          let len = min page_size (total - off) in
          Bytes.blit from off t.bytes off len;
          Bytes.unsafe_set t.dirty p others;
          incr reverted
        end
      done;
    w := !w + 8
  done;
  !reverted

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

(* Width-specialized accessors.  The translator's allocation-free fast
   path selects one of these at translation time, so the per-access code
   has neither a width dispatch nor a {!Fault.access} record.  Callers
   must have checked {!contains} first. *)

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

(** Load all sections of a firmware image.  Raises if a section does not fit. *)
let load_image t (image : Embsan_isa.Image.t) =
  List.iter
    (fun (s : Embsan_isa.Image.section) ->
      if not (contains t s.base ~size:(String.length s.data)) then
        invalid_arg
          (Printf.sprintf "Ram.load_image: section %s does not fit" s.sec_name);
      blit_string t ~addr:s.base s.data)
    image.sections
