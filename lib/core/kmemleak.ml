(* Host-side kmemleak-style leak detector: the "third sanitizer" that
   demonstrates S5's adaptability claim.  It consumes only the allocator
   interception points the Distiller already knows (func_alloc/func_free),
   so plugging it in required a header describing its interface, this
   runtime, and nothing else.

   Detection is scan-based like the kernel's kmemleak: at a scan point
   (typically after a test completes), live allocations older than the
   grace window whose allocation site keeps accumulating live blocks are
   reported as leaks. *)

type alloc_rec = { l_size : int; l_pc : int; l_at : int (* insns at alloc *) }

type t = {
  sink : Report.sink;
  symbolize : int -> string option;
  live : (int, alloc_rec) Hashtbl.t; (* ptr -> record *)
  mutable allocs : int;
  mutable frees : int;
}

(* Blocks younger than this many insns are not suspicious. *)
let grace_insns = 50_000

(* Live blocks per allocation site to report. *)
let site_threshold = 4

let create ~sink ~symbolize () =
  { sink; symbolize; live = Hashtbl.create 256; allocs = 0; frees = 0 }

let on_alloc t ~ptr ~size ~pc ~now =
  t.allocs <- t.allocs + 1;
  if ptr <> 0 then
    Hashtbl.replace t.live ptr { l_size = size; l_pc = pc; l_at = now }

let on_free t ~ptr =
  t.frees <- t.frees + 1;
  Hashtbl.remove t.live ptr

let live_blocks t = Hashtbl.length t.live

(** Scan for leaks: allocation sites holding [site_threshold]+ live blocks
    all older than the grace window.  Returns the number of new reports. *)
let scan t ~now =
  let sites : (int, int * alloc_rec) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ptr (r : alloc_rec) ->
      if now - r.l_at > grace_insns then
        let n, oldest =
          match Hashtbl.find_opt sites r.l_pc with
          | Some (n, oldest) -> (n, oldest)
          | None -> (0, r)
        in
        Hashtbl.replace sites r.l_pc
          ((n + 1), if r.l_at < oldest.l_at then r else oldest))
    t.live;
  let fresh = ref 0 in
  Hashtbl.iter
    (fun pc (n, oldest) ->
      if n >= site_threshold then
        let added =
          Report.add t.sink
            {
              kind = Report.Memory_leak;
              sanitizer = "kmemleak";
              addr = 0;
              size = oldest.l_size;
              is_write = false;
              pc;
              hart = 0;
              location = t.symbolize pc;
              detail =
                Printf.sprintf "%d live blocks from this site, oldest %d insns"
                  n (now - oldest.l_at);
            }
        in
        if added then incr fresh)
    sites;
  !fresh

(* --- Plugin ------------------------------------------------------------------ *)

module Plugin = struct
  let header =
    {|
/* kmemleak-style leak detector - interception interface */
sanitizer kmemleak;
resource alloc_tracking;
update func_alloc(ptr, size, pc) => track_alloc;
update func_free(ptr) => track_free;
|}

  type nonrec t = t

  let create (ctx : Sanitizer.ctx) =
    create ~sink:ctx.sink ~symbolize:ctx.symbolize ()

  (* never planned at P_load/P_store *)
  let access _ ~pc:_ ~size:_ ~is_write:_ ~is_atomic:_ = Sanitizer.no_site
  let clean_count _ = None

  let event t = function
    | Sanitizer.Alloc { ptr; size; pc; now } -> on_alloc t ~ptr ~size ~pc ~now
    | Free { ptr; pc = _; hart = _ } -> on_free t ~ptr
    | Poison _ | Unpoison _ | Register_global _ | Stack_poison _
    | Stack_unpoison _ | Ready ->
        ()

  let scan t ~now = scan t ~now

  (* [alloc_rec] is immutable, so the bindings are shared.  [scan]
     iterates the live table, so every restore rebuilds it in the same
     order. *)
  let checkpoint t =
    let live = Hashtbl.fold (fun p r acc -> (p, r) :: acc) t.live [] in
    let allocs = t.allocs and frees = t.frees in
    fun () ->
      Hashtbl.reset t.live;
      List.iter (fun (p, r) -> Hashtbl.replace t.live p r) live;
      t.allocs <- allocs;
      t.frees <- frees

  let stats t =
    [ ("allocs", t.allocs); ("frees", t.frees); ("live", live_blocks t) ]
end

let plugin = Sanitizer.make (module Plugin)
