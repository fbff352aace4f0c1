(* Physical RAM: a flat byte array mapped at [base, base + size).
   Accesses outside raise {!Fault.Memory_fault}; addresses below the first
   page are reported as null-pointer dereferences.

   Dirty-page tracking (the snapshot service's write set, DESIGN.md
   "Snapshot service"): one byte per 4 KiB page, non-zero when the page
   was written since RAM was last captured into or reverted to an image
   -- the synced image.  A store marks its page(s) with a single
   unconditional byte write, so the tracked fast path stays
   allocation-free.  {!revert} to the synced image copies back only the
   dirty pages; any other image, or any image once tracking has been off
   (untracked stores leave no mark), is a full copy.  Tracking is off by
   default -- the translated store templates read the flag at run time,
   so toggling it is one field write. *)

type t = {
  base : int;
  bytes : Bytes.t;
  mutable track_dirty : bool;
  dirty : Bytes.t; (* one byte per page; non-zero = written since sync *)
  mutable synced : Bytes.t option;
      (* the image RAM equals outside the dirty pages; [None] unless
         tracking stayed on since the last capture or revert *)
}

let page_shift = 12
let page_size = 1 lsl page_shift

let create ~base ~size =
  {
    base;
    bytes = Bytes.make size '\000';
    track_dirty = false;
    dirty = Bytes.make ((size + page_size - 1) / page_size) '\000';
    synced = None;
  }

let base t = t.base
let size t = Bytes.length t.bytes
let limit t = t.base + Bytes.length t.bytes
let page_count t = Bytes.length t.dirty

let track_dirty t = t.track_dirty

(* Turning tracking off forgets the synced image: stores made while it is
   off leave no mark, so the next revert must copy every page. *)
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

(** Mark [addr, addr+size) dirty (used by bulk writes like {!blit_string};
    the per-access paths mark inline). *)
let mark_dirty_range t ~addr ~size =
  if size > 0 then begin
    let first = (addr - t.base) lsr page_shift in
    let last = (addr - t.base + size - 1) lsr page_shift in
    Bytes.fill t.dirty first (last - first + 1) '\xFF'
  end

let page_is_dirty t page = Bytes.get t.dirty page <> '\000'

(** Call [f i] for each non-zero byte [i] of [marks], in ascending order,
    clearing it first.  A restore typically finds a few marks among
    ~1024, so the bytes are scanned a word (eight marks) at a time.  The
    one scan behind both {!revert} and the shadow planes' restore. *)
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

(** A copy of RAM, which becomes the synced image. *)
let capture t =
  let image = Bytes.copy t.bytes in
  sync t image;
  image

(** [true] when {!revert} [~from:image] would copy only the dirty pages:
    [image] is the synced image. *)
let is_synced t image =
  match t.synced with Some s -> s == image | None -> false

(** Revert RAM to [from] (a full RAM-sized image), which becomes the
    synced image.  Copies back only the dirty pages when [from] is already
    the synced image, every page otherwise; returns the number of pages
    copied. *)
let revert t ~from =
  if Bytes.length from <> Bytes.length t.bytes then
    invalid_arg "Ram.revert: size mismatch";
  let total = Bytes.length t.bytes in
  if is_synced t from then begin
    let reverted = ref 0 in
    drain_marks t.dirty (fun p ->
        let off = p lsl page_shift in
        Bytes.blit from off t.bytes off (min page_size (total - off));
        incr reverted);
    !reverted
  end
  else begin
    Bytes.blit from 0 t.bytes 0 total;
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
