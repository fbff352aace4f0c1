(* Patchable instrumentation probe sites for the translated code
   templates.

   This is the mechanism EmbSan's Common Sanitizer Runtime relies on
   (S3.3), redesigned Icicle-style ("instrumentation without
   recompilation"): translated blocks compile in per-kind *sites* that
   consult the subscriber arrays below.  The arrays ARE the shared site
   table -- subscribing or unsubscribing swaps an array in O(1) and every
   already-translated block observes the change on its next dispatch.  No
   translation-cache flush, no retranslation.

   Mem, call and return subscribers are *site specializers*, in the style
   of an inlined reference monitor: given what the instruction fixes (pc,
   width, direction and atomicity of an access; pc and, for a direct call,
   the target) a subscriber returns the closure to run at that site,
   having evaluated whatever those facts decide -- or [no_site] /
   [no_call_site] / [no_ret_site] when it has nothing to do there.  Block
   subscribers are plain functions of the hart and the block's pc.  No
   site takes an event record, so firing one allocates nothing.  A
   translated site asks once and caches the composed result
   ([mem_binding], [call_site], [ret_site]) together with the generation
   [gen] it was built under; every subscribe, unsubscribe and [clear]
   (and, through [invalidate], every trap-table change) bumps [gen], and
   a site whose generation is stale asks again on its next execution.  A
   site whose specialization is "nothing to do" makes no call.

   The contract that keeps cached sites exact: a specializer's result may
   depend only on its static arguments and on state fixed when the
   subscriber was attached.  Anything that can change later must either
   be read by the returned closure at run time or bump a generation.
   (The mem-site contract -- runs before the access, may raise, must not
   write hart registers -- is in probe.mli.)

   A mem subscriber may also attach a *guard* to the site it binds: a
   byte plane over an address range, and what the site does on an access
   that lies inside one granule of it whose byte is 0 -- bump two
   counters and charge a cost, nothing else.  The fast templates test
   that inline and make no call when it holds.  This module knows only
   that rule; what a non-zero byte means stays with the subscriber.  A
   guard survives composition only where its subscriber's site is the
   only live one, so any other live subscriber still sees every
   access. *)

(* [value]: the value being written (stores, AMOs); 0 for loads
   (pre-access). *)
type mem_site = hart:int -> addr:int -> value:int -> unit

(* [is_atomic]: AMO instructions, marked accesses for KCSAN. *)
type mem_fn = pc:int -> size:int -> is_write:bool -> is_atomic:bool -> mem_site

(* The inline clean-access test a mem subscriber may attach to its site:
   an access of [size] bytes at [addr] is clean when
   [g_base <= addr], [addr + size <= g_limit], it lies inside one granule
   ([1 lsl g_shift] bytes, counted from [g_base]) and that granule's
   [g_plane] byte is 0.  A clean access bumps [g_events] and [g_checks]
   and adds [g_cost] to the machine's external cost, and the site is not
   called: that is the subscriber's promise of what its site does
   there. *)
type guard = {
  g_plane : Bytes.t;
  g_base : int;
  g_limit : int;
  g_shift : int;
  g_events : int ref;
  g_checks : int ref;
  g_cost : int;
}

type guard_fn = pc:int -> size:int -> is_write:bool -> is_atomic:bool -> guard

(* [target] is the call's dynamic target (equal to the static one of a
   direct call). *)
type call_site = hart:int -> target:int -> unit

(* [target]: [Some] the target of a direct call, [None] for an indirect
   one. *)
type call_fn = pc:int -> target:int option -> call_site

(* A return site, run after the transfer: the hart, the return's target
   and the value in [a0]. *)
type ret_site = hart:int -> target:int -> retval:int -> unit

type ret_fn = pc:int -> ret_site

(* A block subscriber: the hart and the pc of the block it enters. *)
type block_fn = hart:int -> pc:int -> unit

type call_event = { c_hart : int; c_pc : int; c_target : int }

type ret_event = { r_hart : int; r_pc : int; r_target : int; r_retval : int }

(* A mem subscriber: its site specializer and its guard specializer. *)
type mem_sub = { m_site : mem_fn; m_guard : guard_fn }

type t = {
  mutable mem : mem_sub array;
  mutable calls : call_fn array;
  mutable rets : ret_fn array;
  mutable blocks : block_fn array;
  mutable gen : int;
}

(* A subscription handle: an idempotent removal thunk closing over the
   exact subscriber it added. *)
type sub = { mutable live : bool; remove : unit -> unit }

let create () =
  { mem = [||]; calls = [||]; rets = [||]; blocks = [||]; gen = 0 }

let no_site ~hart:_ ~addr:_ ~value:_ = ()
let no_call_site ~hart:_ ~target:_ = ()
let no_ret_site ~hart:_ ~target:_ ~retval:_ = ()

(* The guard of no access: its base lies above every address, so the
   inline test fails at its first compare. *)
let no_guard =
  {
    g_plane = Bytes.empty;
    g_base = max_int;
    g_limit = 0;
    g_shift = 0;
    g_events = ref 0;
    g_checks = ref 0;
    g_cost = 0;
  }

let unguarded ~pc:_ ~size:_ ~is_write:_ ~is_atomic:_ = no_guard

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

let subscribe_mem ?(guard = unguarded) t f =
  subscribe t (fun () -> t.mem) (fun a -> t.mem <- a) { m_site = f; m_guard = guard }

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
let on_mem ?guard t f = ignore (subscribe_mem ?guard t f : sub)
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

let seq_mem a ~hart ~addr ~value =
  for i = 0 to Array.length a - 1 do
    (Array.unsafe_get a i) ~hart ~addr ~value
  done

let mem_site t ~pc ~size ~is_write ~is_atomic =
  compose ~none:no_site ~seq:seq_mem
    (fun m -> m.m_site ~pc ~size ~is_write ~is_atomic)
    t.mem

(* The site and the guard of one instruction: the composed site, and the
   guard of its subscriber when that subscriber's site is the only live
   one. *)
let mem_binding t ~pc ~size ~is_write ~is_atomic =
  let live =
    List.filter
      (fun (s, _) -> s != no_site)
      (List.map
         (fun m -> (m.m_site ~pc ~size ~is_write ~is_atomic, m))
         (Array.to_list t.mem))
  in
  match live with
  | [] -> (no_site, no_guard)
  | [ (s, m) ] -> (s, m.m_guard ~pc ~size ~is_write ~is_atomic)
  | l -> (seq_mem (Array.of_list (List.map fst l)), no_guard)

let call_site t ~pc ~target =
  compose ~none:no_call_site
    ~seq:(fun a ~hart ~target ->
      for i = 0 to Array.length a - 1 do
        (Array.unsafe_get a i) ~hart ~target
      done)
    (fun (f : call_fn) -> f ~pc ~target)
    t.calls

let ret_site t ~pc =
  compose ~none:no_ret_site
    ~seq:(fun a ~hart ~target ~retval ->
      for i = 0 to Array.length a - 1 do
        (Array.unsafe_get a i) ~hart ~target ~retval
      done)
    (fun (f : ret_fn) -> f ~pc)
    t.rets

(* Specialize and fire in one go: the per-event path of the reference
   engine, and of callers outside translated code.  Guards play no part
   here: the site runs on every access. *)

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

let every_ret f ~pc =
  let site ~hart ~target ~retval =
    f { r_hart = hart; r_pc = pc; r_target = target; r_retval = retval }
  in
  Sys.opaque_identity site

let fire_ret t ev =
  (ret_site t ~pc:ev.r_pc) ~hart:ev.r_hart ~target:ev.r_target
    ~retval:ev.r_retval

let fire_block t ~hart ~pc =
  let a = t.blocks in
  if Array.length a = 1 then (Array.unsafe_get a 0) ~hart ~pc
  else
    for i = 0 to Array.length a - 1 do
      (Array.unsafe_get a i) ~hart ~pc
    done
