(* Patchable instrumentation probe sites for the translated code
   templates.

   This is the mechanism EmbSan's Common Sanitizer Runtime relies on
   (S3.3), redesigned Icicle-style ("instrumentation without
   recompilation"): translated blocks compile in per-kind *sites* that
   consult the subscriber arrays below.  The arrays ARE the shared site
   table -- subscribing or unsubscribing swaps an array in O(1) and every
   already-translated block observes the change on its next dispatch.  No
   translation-cache flush, no retranslation.

   Mem and call subscribers are *site specializers*, in the style of an
   inlined reference monitor: given what the instruction fixes (pc, width,
   direction and atomicity of an access; pc and, for a direct call, the
   target) a subscriber returns the closure to run at that site, having
   evaluated whatever those facts decide -- or [no_site] /
   [no_call_site] when it has nothing to do there.  A translated site asks
   once and caches the composed result ([mem_site], [call_site]) together
   with the generation [gen] it was built under; every subscribe,
   unsubscribe and [clear] (and, through [invalidate], every trap-table
   change) bumps [gen], and a site whose generation is stale asks again on
   its next execution.  A site whose specialization is "nothing to do"
   makes no call.

   The contract that keeps cached sites exact: a specializer's result may
   depend only on its static arguments and on state fixed when the
   subscriber was attached.  Anything that can change later must either
   be read by the returned closure at run time or bump a generation.
   (The mem-site contract -- runs before the access, may raise, must not
   write hart registers -- is in probe.mli.) *)

(* [value]: the value being written (stores, AMOs); 0 for loads
   (pre-access). *)
type mem_site = hart:int -> addr:int -> value:int -> unit

(* [is_atomic]: AMO instructions, marked accesses for KCSAN. *)
type mem_fn = pc:int -> size:int -> is_write:bool -> is_atomic:bool -> mem_site

(* [target] is the call's dynamic target (equal to the static one of a
   direct call). *)
type call_site = hart:int -> target:int -> unit

(* [target]: [Some] the target of a direct call, [None] for an indirect
   one. *)
type call_fn = pc:int -> target:int option -> call_site

type call_event = { c_hart : int; c_pc : int; c_target : int }

type ret_event = { r_hart : int; r_pc : int; r_target : int; r_retval : int }

type block_event = { b_hart : int; b_pc : int }

type t = {
  mutable mem : mem_fn array;
  mutable calls : call_fn array;
  mutable rets : (ret_event -> unit) array;
  mutable blocks : (block_event -> unit) array;
  mutable gen : int;
}

(* A subscription handle: an idempotent removal thunk closing over the
   exact subscriber it added. *)
type sub = { mutable live : bool; remove : unit -> unit }

let create () =
  { mem = [||]; calls = [||]; rets = [||]; blocks = [||]; gen = 0 }

let no_site ~hart:_ ~addr:_ ~value:_ = ()
let no_call_site ~hart:_ ~target:_ = ()

let invalidate t = t.gen <- t.gen + 1

(* Append preserving registration (fire) order.  O(n) copy, but n is the
   number of *subscribers* (a handful), not events, and registration is
   once per attach. *)
let append a f = Array.append a [| f |]

(* Remove the first physical occurrence of [f], preserving the order of
   everything else; the array swap plus the generation bump is the whole
   "unpatch". *)
let remove_first a f =
  let rec go = function
    | [] -> []
    | g :: rest -> if g == f then rest else g :: go rest
  in
  Array.of_list (go (Array.to_list a))

(* Append [f] to the array behind [get]/[set]; the handle removes exactly
   it.  Both bump the generation. *)
let subscribe t get set f =
  set (append (get ()) f);
  invalidate t;
  {
    live = true;
    remove =
      (fun () ->
        set (remove_first (get ()) f);
        invalidate t);
  }

let subscribe_mem t f = subscribe t (fun () -> t.mem) (fun a -> t.mem <- a) f

let subscribe_call t f =
  subscribe t (fun () -> t.calls) (fun a -> t.calls <- a) f

let subscribe_ret t f = subscribe t (fun () -> t.rets) (fun a -> t.rets <- a) f

let subscribe_block t f =
  subscribe t (fun () -> t.blocks) (fun a -> t.blocks <- a) f

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
  t.blocks <- [||];
  invalidate t

let has_mem t = Array.length t.mem > 0
let has_calls t = Array.length t.calls > 0
let has_rets t = Array.length t.rets > 0
let has_blocks t = Array.length t.blocks > 0

(* The one site of an instruction, from the specializers [fs] through
   [spec], in registration order: [none] when each has nothing to do
   there, the one live site as is (the common one-sanitizer case: a direct
   closure call), else [seq] over the live sites. *)
let compose ~none ~seq spec fs =
  match
    Array.of_list
      (List.filter (fun s -> s != none) (List.map spec (Array.to_list fs)))
  with
  | [||] -> none
  | [| s |] -> s
  | a -> seq a

let mem_site t ~pc ~size ~is_write ~is_atomic =
  compose ~none:no_site
    ~seq:(fun a ~hart ~addr ~value ->
      for i = 0 to Array.length a - 1 do
        (Array.unsafe_get a i) ~hart ~addr ~value
      done)
    (fun (f : mem_fn) -> f ~pc ~size ~is_write ~is_atomic)
    t.mem

let call_site t ~pc ~target =
  compose ~none:no_call_site
    ~seq:(fun a ~hart ~target ->
      for i = 0 to Array.length a - 1 do
        (Array.unsafe_get a i) ~hart ~target
      done)
    (fun (f : call_fn) -> f ~pc ~target)
    t.calls

(* Specialize and fire in one go: the per-event path of the reference
   engine, and of callers outside translated code. *)

let fire_mem t ~pc ~size ~is_write ~is_atomic ~hart ~addr ~value =
  (mem_site t ~pc ~size ~is_write ~is_atomic) ~hart ~addr ~value

let fire_call t ~pc ~target ~direct ~hart =
  (call_site t ~pc ~target:(if direct then Some target else None))
    ~hart ~target

(* Adapters for subscribers that want every event with all its arguments.
   [Sys.opaque_identity] keeps ocamlopt from fusing the specializer and
   the site it returns into one function of all the arguments, which
   would redo the specialization on every event. *)

let every_mem f ~pc ~size ~is_write ~is_atomic =
  let site ~hart ~addr ~value =
    f ~hart ~pc ~addr ~size ~is_write ~is_atomic ~value
  in
  Sys.opaque_identity site

let every_call f ~pc ~target:_ =
  let site ~hart ~target = f { c_hart = hart; c_pc = pc; c_target = target } in
  Sys.opaque_identity site

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
