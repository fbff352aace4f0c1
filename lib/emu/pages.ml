(* Snapshot-able byte planes (see pages.mli and DESIGN.md "Snapshot
   service"): guest RAM, the shadow planes and ftrace's planes are each
   one of these, so the capture/revert rule lives here alone. *)

(* One immutable buffer per page.  Pages no capture has copied are
   [zero_page]; strings, so images are safe to share across domains. *)
type image = string array

type t = {
  bytes : Bytes.t;
  shift : int;
  dirty : Bytes.t; (* one byte per page; non-zero = written since sync *)
  mutable synced : image; (* what [bytes] equals outside the dirty pages *)
}

external zeroed_stub : int -> Bytes.t = "embsan_pages_zeroed"

let zeroed n =
  if n < 0 || n > Sys.max_string_length then invalid_arg "Pages.zeroed";
  zeroed_stub n

(* Every store's pages are at most this big, so one zero page serves
   them all: reverting a page copies only its own length out of it. *)
let max_shift = 12
let zero_page = String.make (1 lsl max_shift) '\000'

let create ~shift size =
  if shift < 0 || shift > max_shift then invalid_arg "Pages.create: shift";
  let pages = (size + (1 lsl shift) - 1) lsr shift in
  {
    bytes = zeroed size;
    shift;
    dirty = Bytes.make pages '\000';
    synced = Array.make pages zero_page;
  }

let page_count t = Bytes.length t.dirty

let mark t ~off ~len =
  if len > 0 then begin
    let first = off lsr t.shift in
    Bytes.fill t.dirty first (((off + len - 1) lsr t.shift) - first + 1) '\xFF'
  end

let is_dirty t p = Bytes.get t.dirty p <> '\000'

(* Call [f p] for each dirty page [p], in ascending order, clearing its
   mark first.  A restore typically finds a few marks among ~1024, so the
   marks are tested 32 at a time, four words per step. *)
let drain t f =
  let d = t.dirty in
  let n = Bytes.length d in
  let w = ref 0 in
  while !w < n do
    let i = !w in
    if
      i + 32 > n
      || Int64.logor
           (Int64.logor (Bytes.get_int64_ne d i) (Bytes.get_int64_ne d (i + 8)))
           (Int64.logor
              (Bytes.get_int64_ne d (i + 16))
              (Bytes.get_int64_ne d (i + 24)))
         <> 0L
    then
      for p = i to min (i + 32) n - 1 do
        if Bytes.unsafe_get d p <> '\000' then begin
          Bytes.unsafe_set d p '\000';
          f p
        end
      done;
    w := i + 32
  done

let page_len t p =
  min (1 lsl t.shift) (Bytes.length t.bytes - (p lsl t.shift))

let copy_page t p =
  Bytes.sub_string t.bytes (p lsl t.shift) (page_len t p)

(* The synced image with its dirty pages replaced: O(pages written).  It
   never reads the other pages, since reading a page the guest never
   touched faults it in as much as writing it. *)
let capture t =
  let image = Array.copy t.synced in
  drain t (fun p -> image.(p) <- copy_page t p);
  t.synced <- image;
  image

let is_synced t image = t.synced == image

let revert t ~from =
  if Array.length from <> page_count t then
    invalid_arg "Pages.revert: size mismatch";
  let copy p =
    Bytes.blit_string from.(p) 0 t.bytes (p lsl t.shift) (page_len t p)
  in
  if is_synced t from then begin
    let reverted = ref 0 in
    drain t (fun p ->
        copy p;
        incr reverted);
    !reverted
  end
  else begin
    for p = 0 to page_count t - 1 do
      copy p
    done;
    Bytes.fill t.dirty 0 (page_count t) '\000';
    t.synced <- from;
    page_count t
  end

let page image p = image.(p)

let private_pages image =
  Array.fold_left (fun n pg -> if pg == zero_page then n else n + 1) 0 image
