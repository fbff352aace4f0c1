(* Patchable instrumentation probe sites for the translated code
   templates.

   This is the mechanism EmbSan's Common Sanitizer Runtime relies on
   (S3.3), redesigned Icicle-style ("instrumentation without
   recompilation"): translated blocks compile in per-kind *sites* that
   consult the subscriber arrays below at run time.  The arrays ARE the
   shared site table -- subscribing or unsubscribing swaps an array in
   O(1) and every already-translated block observes the change on its
   next dispatch.  No epoch, no translation-cache flush, no
   retranslation.

   Subscribers are stored in arrays, appended in registration order.
   Registration is rare and cold; dispatch is the hot path, so a site's
   armed check is one array-length load and [fire_*] special-cases the
   common one-sanitizer case into a direct closure call.

   Mem subscribers take the access as labelled arguments rather than an
   event record, so an armed load/store site allocates nothing: it fires
   the subscribers and then runs the same width-specialized access as an
   unarmed site ("fire, then fast").  A mem subscriber therefore sees the
   access before it happens and may raise (e.g. [Fault.Retry_at] to stall
   the hart), but must not write hart registers: the access re-reads its
   operands after the call. *)

(* [is_atomic]: AMO instructions, marked accesses for KCSAN.  [value]: the
   value being written (stores, AMOs); 0 for loads (pre-access). *)
type mem_fn =
  hart:int ->
  pc:int ->
  addr:int ->
  size:int ->
  is_write:bool ->
  is_atomic:bool ->
  value:int ->
  unit

type call_event = { c_hart : int; c_pc : int; c_target : int }

type ret_event = { r_hart : int; r_pc : int; r_target : int; r_retval : int }

type block_event = { b_hart : int; b_pc : int }

type t = {
  mutable mem : mem_fn array;
  mutable calls : (call_event -> unit) array;
  mutable rets : (ret_event -> unit) array;
  mutable blocks : (block_event -> unit) array;
}

(* A subscription handle: an idempotent removal thunk closing over the
   exact subscriber it added. *)
type sub = { mutable live : bool; remove : unit -> unit }

let create () = { mem = [||]; calls = [||]; rets = [||]; blocks = [||] }

(* Append preserving registration (fire) order.  O(n) copy, but n is the
   number of *subscribers* (a handful), not events, and registration is
   once per attach -- unlike the old [l @ [f]] list representation this
   keeps dispatch allocation-free and cache-friendly. *)
let append a f = Array.append a [| f |]

(* Remove the first physical occurrence of [f], preserving the order of
   everything else; the array swap is the whole "unpatch" -- sites see
   the new table on their next check. *)
let remove_first a f =
  let rec go = function
    | [] -> []
    | g :: rest -> if g == f then rest else g :: go rest
  in
  Array.of_list (go (Array.to_list a))

let subscribe_mem t f =
  t.mem <- append t.mem f;
  { live = true; remove = (fun () -> t.mem <- remove_first t.mem f) }

let subscribe_call t f =
  t.calls <- append t.calls f;
  { live = true; remove = (fun () -> t.calls <- remove_first t.calls f) }

let subscribe_ret t f =
  t.rets <- append t.rets f;
  { live = true; remove = (fun () -> t.rets <- remove_first t.rets f) }

let subscribe_block t f =
  t.blocks <- append t.blocks f;
  { live = true; remove = (fun () -> t.blocks <- remove_first t.blocks f) }

let unsubscribe (s : sub) =
  if s.live then begin
    s.live <- false;
    s.remove ()
  end

(* Handle-free subscription, kept for callers that never detach. *)
let on_mem t f = ignore (subscribe_mem t f : sub)
let on_call t f = ignore (subscribe_call t f : sub)
let on_ret t f = ignore (subscribe_ret t f : sub)
let on_block t f = ignore (subscribe_block t f : sub)

let clear t =
  t.mem <- [||];
  t.calls <- [||];
  t.rets <- [||];
  t.blocks <- [||]

let has_mem t = Array.length t.mem > 0
let has_calls t = Array.length t.calls > 0
let has_rets t = Array.length t.rets > 0
let has_blocks t = Array.length t.blocks > 0

(* Dedicated single-subscriber fast path: one sanitizer attached is the
   overwhelmingly common configuration, and a direct closure call beats a
   generic iteration. *)

let fire_mem t ~hart ~pc ~addr ~size ~is_write ~is_atomic ~value =
  let a = t.mem in
  if Array.length a = 1 then
    (Array.unsafe_get a 0) ~hart ~pc ~addr ~size ~is_write ~is_atomic ~value
  else
    for i = 0 to Array.length a - 1 do
      (Array.unsafe_get a i) ~hart ~pc ~addr ~size ~is_write ~is_atomic ~value
    done

let fire_call t ev =
  let a = t.calls in
  if Array.length a = 1 then (Array.unsafe_get a 0) ev
  else
    for i = 0 to Array.length a - 1 do
      (Array.unsafe_get a i) ev
    done

let fire_ret t ev =
  let a = t.rets in
  if Array.length a = 1 then (Array.unsafe_get a 0) ev
  else
    for i = 0 to Array.length a - 1 do
      (Array.unsafe_get a i) ev
    done

let fire_block t ev =
  let a = t.blocks in
  if Array.length a = 1 then (Array.unsafe_get a 0) ev
  else
    for i = 0 to Array.length a - 1 do
      (Array.unsafe_get a i) ev
    done
