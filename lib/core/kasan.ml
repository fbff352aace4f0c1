(* Host-side KASAN runtime: shadow state maintenance and access validation.

   De-coupled from the guest: runs at native host speed on events delivered
   by the Common Sanitizer Runtime (S3.3).  Detects out-of-bounds accesses
   (heap via poisoned free space and redzones, globals and stack via
   compile-time redzones when available), use-after-free, double-free and
   null dereferences. *)

type alloc_info = { a_size : int; a_pc : int; mutable freed_pc : int option }

type t = {
  shadow : Shadow.t;
  allocs : (int, alloc_info) Hashtbl.t; (* live and recently freed, by ptr *)
  sink : Report.sink;
  symbolize : int -> string option;
  quarantine : int Queue.t; (* recently freed pointers, FIFO *)
  quarantine_max : int; (* bounded tracking of freed blocks *)
  mutable redzone : int;
  access_checks : int ref;
      (* a cell, so an inline guard in the translated template can bump
         it (see [Plugin.clean_count]) *)
  mutable alloc_events : int;
  mutable free_events : int;
}

let create ?(quarantine_max = 512) ~shadow ~sink ~symbolize () =
  {
    shadow;
    allocs = Hashtbl.create 256;
    sink;
    symbolize;
    quarantine = Queue.create ();
    quarantine_max;
    redzone = 16;
    access_checks = ref 0;
    alloc_events = 0;
    free_events = 0;
  }

(* The dedup key comes first: a repeat of a known bug only bumps its hit
   count, so [detail] (which may scan the allocation table) is built for
   new findings only. *)
let report t ~kind ~addr ~size ~is_write ~pc ~hart ~detail =
  let location = t.symbolize pc in
  if not (Report.bump t.sink (Report.key kind ~location ~pc)) then
    ignore
      (Report.add t.sink
         {
           kind;
           sanitizer = "kasan";
           addr;
           size;
           is_write;
           pc;
           hart;
           location;
           detail = detail ();
         })

(* --- State maintenance ------------------------------------------------------- *)

let on_poison t ~addr ~size code = Shadow.poison t.shadow ~addr ~size code

let on_unpoison t ~addr ~size = Shadow.unpoison t.shadow ~addr ~size

let on_alloc t ~ptr ~size ~pc =
  t.alloc_events <- t.alloc_events + 1;
  if ptr <> 0 then begin
    Hashtbl.replace t.allocs ptr { a_size = size; a_pc = pc; freed_pc = None };
    Shadow.unpoison t.shadow ~addr:ptr ~size
  end

let on_free t ~ptr ~pc ~hart =
  t.free_events <- t.free_events + 1;
  if ptr <> 0 then
    match Hashtbl.find_opt t.allocs ptr with
    | Some info when info.freed_pc = None ->
        info.freed_pc <- Some pc;
        Shadow.poison t.shadow ~addr:ptr ~size:info.a_size Shadow.Freed;
        Queue.push ptr t.quarantine;
        if Queue.length t.quarantine > t.quarantine_max then begin
          (* stop tracking the oldest freed block (its shadow stays freed
             until the allocator reuses the address) *)
          let old = Queue.pop t.quarantine in
          match Hashtbl.find_opt t.allocs old with
          | Some i when i.freed_pc <> None -> Hashtbl.remove t.allocs old
          | Some _ | None -> ()
        end
    | Some _ ->
        report t ~kind:Report.Double_free ~addr:ptr ~size:0 ~is_write:true ~pc
          ~hart ~detail:(fun () -> "block already freed")
    | None ->
        report t ~kind:Report.Invalid_free ~addr:ptr ~size:0 ~is_write:true ~pc
          ~hart ~detail:(fun () -> "pointer was never allocated")

let on_register_global t ~addr ~size =
  let rz = t.redzone in
  Shadow.poison t.shadow ~addr:(addr - rz) ~size:rz Shadow.Global_redzone;
  let end_ = addr + size in
  let rz_start = (end_ + 7) land lnot 7 in
  Shadow.poison t.shadow ~addr:rz_start ~size:(rz + rz_start - end_)
    Shadow.Global_redzone;
  (* partial granule at the object tail *)
  if size land 7 <> 0 then Shadow.unpoison t.shadow ~addr ~size

let on_stack_poison t ~addr ~size =
  Shadow.poison t.shadow ~addr ~size Shadow.Stack_redzone

let on_stack_unpoison t ~addr ~size = Shadow.unpoison t.shadow ~addr ~size

(* --- Validation ------------------------------------------------------------------ *)

let describe_owner t addr =
  (* find the allocation record covering or nearest-below addr *)
  let best = ref None in
  Hashtbl.iter
    (fun ptr (info : alloc_info) ->
      if addr >= ptr && addr < ptr + info.a_size + 64 then
        match !best with
        | Some (p, _) when p >= ptr -> ()
        | _ -> best := Some (ptr, info))
    t.allocs;
  match !best with
  | Some (ptr, info) ->
      Printf.sprintf "block 0x%08x size %d alloc_pc 0x%08x%s" ptr info.a_size
        info.a_pc
        (match info.freed_pc with
        | Some pc -> Printf.sprintf " freed_pc 0x%08x" pc
        | None -> "")
  | None -> "no nearby allocation"

let null_page_end = 0x1000

let on_access t ~addr ~size ~is_write ~pc ~hart =
  incr t.access_checks;
  if addr < null_page_end then
    report t ~kind:Report.Null_deref ~addr ~size ~is_write ~pc ~hart
      ~detail:(fun () -> "dereference in the first page")
  else
    match Shadow.check t.shadow ~addr ~size with
    | Shadow.Valid -> ()
    | Invalid code ->
        let kind =
          match code with
          | Shadow.Freed -> Report.Use_after_free
          | Heap_redzone | Stack_redzone | Global_redzone | Partial _ ->
              Report.Oob_access
          | Addressable -> assert false
        in
        report t ~kind ~addr ~size ~is_write ~pc ~hart
          ~detail:(fun () ->
            Printf.sprintf "shadow: %s; %s" (Shadow.code_name code)
              (describe_owner t addr))

(* The specialized check of an access of [size] bytes at [pc].  Above the
   null page, an access that one shadow byte shows valid only counts the
   check: one that starts outside RAM (MMIO and fault logic own it), or
   lies in one granule of RAM whose shadow byte makes all of it
   addressable -- {!Shadow.check}'s [Valid], found from one byte, with no
   call.  Anything else takes [on_access]'s full path, which counts,
   re-checks and reports. *)
let site t ~pc ~size ~is_write : Sanitizer.site =
  let sh = t.shadow in
  let plane = sh.Shadow.kasan.Embsan_emu.Pages.bytes in
  let base = sh.base and limit = sh.limit in
  let shift = Shadow.granule_shift and gmask = Shadow.granule - 1 in
  let tail = size - 1 in
  let checks = t.access_checks in
  fun ~hart ~addr ->
    let last = addr + tail in
    if
      addr >= null_page_end
      && (addr < base || addr >= limit
         || last < limit
            && (addr - base) lsr shift = (last - base) lsr shift
            &&
            let b =
              Char.code (Bytes.unsafe_get plane ((last - base) lsr shift))
            in
            b = 0 || (b < 8 && last land gmask < b))
    then checks := !checks + 1
    else on_access t ~addr ~size ~is_write ~pc ~hart

(* --- Plugin ------------------------------------------------------------------ *)

module Plugin = struct
  let header =
    {|
/* Kernel Address Sanitizer - interception interface */
sanitizer kasan;
resource shadow_memory;
resource alloc_tracking;
resource quarantine;
check  load(addr, size) => check_access;
check  store(addr, size) => check_access;
update func_alloc(ptr, size) => alloc;
update func_free(ptr) => free;
update global(addr, size) => register_global;
update stack_poison(addr, size) => poison_stack;
update stack_unpoison(addr, size) => unpoison_stack;
|}

  type nonrec t = t

  let create (ctx : Sanitizer.ctx) =
    create ~shadow:ctx.shadow ~sink:ctx.sink ~symbolize:ctx.symbolize ()

  let access t ~pc ~size ~is_write ~is_atomic:_ = site t ~pc ~size ~is_write

  (* On a clean granule above the null page [site] only counts; a shadow
     that reaches into the null page promises nothing. *)
  let clean_count t =
    if t.shadow.Shadow.base >= null_page_end then Some t.access_checks
    else None

  let event t = function
    | Sanitizer.Alloc { ptr; size; pc; now = _ } -> on_alloc t ~ptr ~size ~pc
    | Free { ptr; pc; hart } -> on_free t ~ptr ~pc ~hart
    | Poison { addr; size; code } -> on_poison t ~addr ~size code
    | Unpoison { addr; size } -> on_unpoison t ~addr ~size
    | Register_global { addr; size } -> on_register_global t ~addr ~size
    | Stack_poison { addr; size } -> on_stack_poison t ~addr ~size
    | Stack_unpoison { addr; size } -> on_stack_unpoison t ~addr ~size
    | Ready ->
        (* re-establish live allocations made during boot: EmbSan-D
           intercepts them before the heap-poison init action replays *)
        Hashtbl.iter
          (fun ptr (info : alloc_info) ->
            if info.freed_pc = None then
              Shadow.unpoison t.shadow ~addr:ptr ~size:info.a_size)
          t.allocs

  let scan _ ~now:_ = 0

  (* [alloc_info] has a mutable field, so both directions copy the
     records: the capture, so later frees don't mutate the checkpoint,
     and every restore, so frees after it don't either.  The table is
     kept as bindings and rebuilt in the same order by every restore. *)
  let checkpoint t =
    let copy (i : alloc_info) = { i with freed_pc = i.freed_pc } in
    let allocs =
      Hashtbl.fold (fun p i acc -> (p, copy i) :: acc) t.allocs []
    in
    let quarantine = Queue.copy t.quarantine in
    let redzone = t.redzone
    and access_checks = !(t.access_checks)
    and alloc_events = t.alloc_events
    and free_events = t.free_events in
    fun () ->
      Hashtbl.reset t.allocs;
      List.iter (fun (p, i) -> Hashtbl.replace t.allocs p (copy i)) allocs;
      Queue.clear t.quarantine;
      Queue.iter (fun p -> Queue.push p t.quarantine) quarantine;
      t.redzone <- redzone;
      t.access_checks := access_checks;
      t.alloc_events <- alloc_events;
      t.free_events <- free_events

  let stats t =
    [
      ("access_checks", !(t.access_checks));
      ("alloc_events", t.alloc_events);
      ("free_events", t.free_events);
    ]
end

let plugin = Sanitizer.make (module Plugin)
