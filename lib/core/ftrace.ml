(* FastTrack happens-before race detector (EmbedSanitizer direction): the
   fifth sanitizer, and the hard stress of the zero-core-edit plugin claim.

   Where KCSAN samples watchpoints and only sees the races it stalls on,
   ftrace maintains the full happens-before partial order and reports
   every conflicting access pair it observes, on the first occurrence:

   - per-hart vector clocks, with the FastTrack epoch optimization: most
     metadata is one packed (clock, hart) epoch word, and the common
     same-epoch access is a single compare;
   - per-address last-write / last-read metadata in flat shadow planes
     keyed off the existing 8-byte shadow granule, at two 4-byte slots per
     granule so adjacent 32-bit guest variables never false-share a cell;
     each slot also records the byte range touched, so sub-word accesses
     only race when their ranges actually overlap;
   - synchronization edges learned from the guest: locking primitives
     announce acquire/release (and irq_off/irq_on, modeled as a global
     pseudo-lock) through the {!Embsan_emu.Hypercall.san_sync} trap.  The
     handler is installed by the plugin itself via the public
     [Machine.set_trap_handler] API -- like everything else here, entirely
     outside runtime.ml / machine.ml / probe.ml (pinned by grep tests,
     like ualign);
   - snapshot restores through the plugin checkpoint, in the metadata
     pages written since (the planes are {!Pages} stores).

   Addresses that ever appear as sync objects (lock words) are treated as
   marked accesses and excluded from race checking, exactly as TSan
   excludes atomics: the lock implementation's own plain release store
   would otherwise race with every later acquire. *)

open Embsan_isa
open Embsan_emu

(* --- Epochs ------------------------------------------------------------------ *)

(* An epoch packs (clock, hart) as [clock lsl 3 lor hart]: at most 8 harts,
   clock saturating below 2^28 so the word stays a 31-bit immediate.
   Clock 0 is reserved, so 0 means "no access recorded" and the all-ones
   word is free to mean "read-shared". *)

let max_harts = 8
let none = 0
let shared = 0xFFFF_FFFF
let epoch ~clock ~hart = (clock lsl 3) lor hart
let epoch_hart e = e land 7
let epoch_clock e = e lsr 3

(* --- Vector clocks ----------------------------------------------------------- *)

(* Exposed (also via the mli) so the QCheck suite can pin the algebraic
   laws the detector relies on: join is an upper bound, associative,
   commutative and idempotent; happens-before is the pointwise order. *)
module Vc = struct
  type t = int array

  let create n : t = Array.make n 0
  let copy (v : t) = Array.copy v

  let join (a : t) (b : t) =
    for i = 0 to Array.length a - 1 do
      if b.(i) > a.(i) then a.(i) <- b.(i)
    done

  let leq (a : t) (b : t) =
    let n = Array.length a in
    let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
    go 0

  (* Does epoch [e] happen before (or equal) the thread clock [v]? *)
  let hb_epoch e (v : t) = epoch_clock e <= v.(epoch_hart e)
end

(* --- Per-slot access metadata ------------------------------------------------- *)

(* Two 4-byte slots per 8-byte shadow granule; four Bytes planes of one
   32-bit little-endian word per slot:
     we  last-write epoch (0 = none)
     wi  last-write info: pc lsl 5 | lo lsl 3 | hi   (byte range [lo,hi))
     re  last-read epoch (0 = none, 0xFFFFFFFF = read-shared)
     ri  last-read info, same packing
   Read-shared slots spill to a side table holding a full vector clock
   plus per-hart info words; write bursts collapse them back. *)

let pack_info ~pc ~lo ~hi = (pc lsl 5) lor (lo lsl 3) lor hi
let info_pc i = i lsr 5
let info_lo i = (i lsr 3) land 3
let info_hi i = i land 7

let overlaps i ~lo ~hi =
  let lo' = info_lo i and hi' = info_hi i in
  lo < hi' && lo' < hi

type shared_reads = { sr_clocks : Vc.t; sr_info : int array }

type t = {
  sink : Report.sink;
  symbolize : int -> string option;
  base : int; (* shadowed RAM window, from the shared shadow resource *)
  limit : int;
  nslots : int;
  we : Pages.t;
  wi : Pages.t;
  re : Pages.t;
  ri : Pages.t;
  shared_tbl : (int, shared_reads) Hashtbl.t;
  vc : Vc.t array; (* per-hart clocks, C_t *)
  locks : (int, Vc.t) Hashtbl.t; (* per-sync-object clocks, L_m *)
  sync_slots : (int, unit) Hashtbl.t; (* slots of known lock words *)
  reported : (int, unit) Hashtbl.t; (* (pc, other_pc) pairs already reported *)
  mutable checks : int;
  mutable races : int;
  mutable acquires : int;
  mutable releases : int;
  mutable promotions : int;
}

(* Each plane is a {!Pages} store of 4 KiB pages: zeroed on demand, and
   saved and restored in what was written since.  A slot never straddles
   a page, so [set32] marks one. *)
let plane_shift = 12

let get32 (p : Pages.t) i =
  Int32.to_int (Bytes.get_int32_le p.bytes (i * 4)) land 0xFFFF_FFFF

let set32 (p : Pages.t) i v =
  Bytes.set_int32_le p.bytes (i * 4) (Int32.of_int v);
  Bytes.unsafe_set p.dirty ((i * 4) lsr plane_shift) '\xFF'

(* The IRQ pseudo-lock: interrupts-disabled sections synchronize with each
   other globally, so irq_off acquires and irq_on releases this key. *)
let irq_lock = -1

let create ~sink ~symbolize ~base ~limit ~harts () =
  let harts = min harts max_harts in
  let nslots = ((limit - base) + 3) / 4 in
  let vc =
    Array.init harts (fun h ->
        let v = Vc.create harts in
        v.(h) <- 1;
        v)
  in
  {
    sink;
    symbolize;
    base;
    limit;
    nslots;
    we = Pages.create ~shift:plane_shift (nslots * 4);
    wi = Pages.create ~shift:plane_shift (nslots * 4);
    re = Pages.create ~shift:plane_shift (nslots * 4);
    ri = Pages.create ~shift:plane_shift (nslots * 4);
    shared_tbl = Hashtbl.create 16;
    vc;
    locks = Hashtbl.create 16;
    sync_slots = Hashtbl.create 16;
    reported = Hashtbl.create 16;
    checks = 0;
    races = 0;
    acquires = 0;
    releases = 0;
    promotions = 0;
  }

let slot_of t addr = (addr - t.base) lsr 2
let in_window t addr = addr >= t.base && addr < t.limit

(* --- Reporting --------------------------------------------------------------- *)

let report t ~pc ~addr ~size ~is_write ~hart ~other_pc ~other_hart
    ~other_write =
  let key = (pc lsl 26) lxor other_pc in
  if not (Hashtbl.mem t.reported key) then begin
    Hashtbl.add t.reported key ();
    t.races <- t.races + 1;
    let kind w = if w then "write" else "read" in
    let where p =
      match t.symbolize p with Some s -> Printf.sprintf " (%s)" s | None -> ""
    in
    ignore
      (Report.add t.sink
         {
           kind = Report.Data_race;
           sanitizer = "ftrace";
           addr;
           size;
           is_write;
           pc;
           hart;
           location = t.symbolize pc;
           detail =
             Printf.sprintf "%s races with hart %d %s at pc 0x%08x%s"
               (kind is_write) other_hart (kind other_write) other_pc
               (where other_pc);
         })
  end

(* --- The FastTrack access rules ---------------------------------------------- *)

let check_write t ~hart ~pc ~addr ~size ~slot ~lo ~hi =
  let c = t.vc.(hart) in
  let e_t = epoch ~clock:c.(hart) ~hart in
  let we = get32 t.we slot in
  if we = e_t then begin
    (* same-epoch write: widen the recorded byte range *)
    let i = get32 t.wi slot in
    if info_pc i = pc then
      set32 t.wi slot
        (pack_info ~pc ~lo:(min lo (info_lo i)) ~hi:(max hi (info_hi i)))
  end
  else begin
    (if we <> none && epoch_hart we <> hart && not (Vc.hb_epoch we c) then
       let i = get32 t.wi slot in
       if overlaps i ~lo ~hi then
         report t ~pc ~addr ~size ~is_write:true ~hart ~other_pc:(info_pc i)
           ~other_hart:(epoch_hart we) ~other_write:true);
    let re = get32 t.re slot in
    (if re = shared then begin
       match Hashtbl.find_opt t.shared_tbl slot with
       | None -> ()
       | Some sr ->
           for u = 0 to Array.length sr.sr_clocks - 1 do
             if u <> hart && sr.sr_clocks.(u) > c.(u) then
               let i = sr.sr_info.(u) in
               if overlaps i ~lo ~hi then
                 report t ~pc ~addr ~size ~is_write:true ~hart
                   ~other_pc:(info_pc i) ~other_hart:u ~other_write:false
           done
     end
     else if re <> none && epoch_hart re <> hart && not (Vc.hb_epoch re c) then
       let i = get32 t.ri slot in
       if overlaps i ~lo ~hi then
         report t ~pc ~addr ~size ~is_write:true ~hart ~other_pc:(info_pc i)
           ~other_hart:(epoch_hart re) ~other_write:false);
    set32 t.we slot e_t;
    set32 t.wi slot (pack_info ~pc ~lo ~hi);
    (* a write that passed the checks dominates the read set *)
    if re <> none then begin
      set32 t.re slot none;
      if re = shared then Hashtbl.remove t.shared_tbl slot
    end
  end

let check_read t ~hart ~pc ~addr ~size ~slot ~lo ~hi =
  let c = t.vc.(hart) in
  let e_t = epoch ~clock:c.(hart) ~hart in
  let re = get32 t.re slot in
  if re = e_t then begin
    let i = get32 t.ri slot in
    if info_pc i = pc then
      set32 t.ri slot
        (pack_info ~pc ~lo:(min lo (info_lo i)) ~hi:(max hi (info_hi i)))
  end
  else begin
    (let we = get32 t.we slot in
     if we <> none && epoch_hart we <> hart && not (Vc.hb_epoch we c) then
       let i = get32 t.wi slot in
       if overlaps i ~lo ~hi then
         report t ~pc ~addr ~size ~is_write:false ~hart ~other_pc:(info_pc i)
           ~other_hart:(epoch_hart we) ~other_write:true);
    if re = shared then begin
      (* already read-shared: the marker is not an epoch, so test it first *)
      match Hashtbl.find_opt t.shared_tbl slot with
      | None -> () (* unreachable; be robust *)
      | Some sr ->
          sr.sr_clocks.(hart) <- c.(hart);
          sr.sr_info.(hart) <- pack_info ~pc ~lo ~hi
    end
    else if re = none || Vc.hb_epoch re c then begin
      (* exclusive read, or exclusive handoff: keep the epoch representation *)
      set32 t.re slot e_t;
      set32 t.ri slot (pack_info ~pc ~lo ~hi)
    end
    else begin
      (* concurrent reads from two harts: promote to read-shared *)
      t.promotions <- t.promotions + 1;
      let n = Array.length t.vc in
      let sr = { sr_clocks = Vc.create n; sr_info = Array.make n 0 } in
      let u = epoch_hart re in
      sr.sr_clocks.(u) <- epoch_clock re;
      sr.sr_info.(u) <- get32 t.ri slot;
      sr.sr_clocks.(hart) <- c.(hart);
      sr.sr_info.(hart) <- pack_info ~pc ~lo ~hi;
      Hashtbl.replace t.shared_tbl slot sr;
      set32 t.re slot shared
    end
  end

let on_access t ~pc ~addr ~size ~is_write ~is_atomic ~hart =
  if
    (not is_atomic)
    && hart < Array.length t.vc
    && in_window t addr
    && not (Hashtbl.mem t.sync_slots (slot_of t addr))
  then begin
    t.checks <- t.checks + 1;
    (* split the access per 4-byte slot (a 4-byte access at an odd offset
       spans two); record the byte range within each slot *)
    let fin = addr + size in
    let s0 = slot_of t addr and s1 = slot_of t (fin - 1) in
    for slot = s0 to min s1 (t.nslots - 1) do
      let slot_base = t.base + (slot lsl 2) in
      let lo = max addr slot_base - slot_base in
      let hi = min fin (slot_base + 4) - slot_base in
      if is_write then check_write t ~hart ~pc ~addr ~size ~slot ~lo ~hi
      else check_read t ~hart ~pc ~addr ~size ~slot ~lo ~hi
    done
  end

(* --- Synchronization edges ---------------------------------------------------- *)

let lock_vc t key =
  match Hashtbl.find_opt t.locks key with
  | Some v -> v
  | None ->
      let v = Vc.create (Array.length t.vc) in
      Hashtbl.add t.locks key v;
      v

(* A lock word is a sync object, not data: exclude its slot from race
   checking and drop any metadata recorded before we learned that. *)
let mark_sync_word t addr =
  if in_window t addr then begin
    let slot = slot_of t addr in
    if not (Hashtbl.mem t.sync_slots slot) then begin
      Hashtbl.add t.sync_slots slot ();
      set32 t.we slot none;
      set32 t.re slot none;
      Hashtbl.remove t.shared_tbl slot
    end
  end

let acquire t ~hart ~key =
  if hart < Array.length t.vc then begin
    t.acquires <- t.acquires + 1;
    Vc.join t.vc.(hart) (lock_vc t key)
  end

let release t ~hart ~key =
  if hart < Array.length t.vc then begin
    t.releases <- t.releases + 1;
    let c = t.vc.(hart) in
    let l = lock_vc t key in
    Array.blit c 0 l 0 (Array.length c);
    (* advance into a fresh epoch, saturating the 28-bit clock *)
    if c.(hart) < 0x0FFF_FFFF then c.(hart) <- c.(hart) + 1
  end

let on_sync t ~hart ~op ~addr =
  match op with
  | 0 ->
      mark_sync_word t addr;
      acquire t ~hart ~key:addr
  | 1 ->
      mark_sync_word t addr;
      release t ~hart ~key:addr
  | 2 -> acquire t ~hart ~key:irq_lock
  | 3 -> release t ~hart ~key:irq_lock
  | _ -> ()

(* --- Snapshot support --------------------------------------------------------- *)

(* The planes are captured as {!Pages} images; the mutable side tables
   and clocks are copied in both directions and rebuilt in the same order
   by every restore. *)
let checkpoint t =
  let copy_sr sr =
    { sr_clocks = Vc.copy sr.sr_clocks; sr_info = Array.copy sr.sr_info }
  in
  let bindings copy tbl =
    Hashtbl.fold (fun k v acc -> (k, copy v) :: acc) tbl []
  in
  let rebuild copy tbl l =
    Hashtbl.reset tbl;
    List.iter (fun (k, v) -> Hashtbl.replace tbl k (copy v)) l
  in
  let planes =
    List.map (fun p -> (p, Pages.capture p)) [ t.we; t.wi; t.re; t.ri ]
  in
  let shared = bindings copy_sr t.shared_tbl
  and vc = Array.map Vc.copy t.vc
  and locks = bindings Vc.copy t.locks
  and sync = bindings Fun.id t.sync_slots
  and reported = bindings Fun.id t.reported
  and checks = t.checks
  and races = t.races
  and acquires = t.acquires
  and releases = t.releases
  and promotions = t.promotions in
  fun () ->
    List.iter (fun (p, from) -> ignore (Pages.revert p ~from : int)) planes;
    rebuild copy_sr t.shared_tbl shared;
    Array.iteri (fun i v -> Array.blit v 0 t.vc.(i) 0 (Array.length v)) vc;
    rebuild Vc.copy t.locks locks;
    rebuild Fun.id t.sync_slots sync;
    rebuild Fun.id t.reported reported;
    t.checks <- checks;
    t.races <- races;
    t.acquires <- acquires;
    t.releases <- releases;
    t.promotions <- promotions

(* --- Plugin ------------------------------------------------------------------- *)

module Plugin = struct
  (* synchronization edges arrive out-of-band through the guest's
     san_sync hypercall, so the header only declares the two hot-path
     access checks *)
  let header =
    {|
/* FastTrack happens-before race detector - interception interface */
sanitizer ftrace;
resource vector_clocks;
resource sync_objects;
check  load(addr, size, pc) => hb_read;
check  store(addr, size, pc) => hb_write;
|}

  type nonrec t = t

  let create (ctx : Sanitizer.ctx) =
    let machine = ctx.machine in
    let t =
      create ~sink:ctx.sink ~symbolize:ctx.symbolize
        ~base:ctx.shadow.Shadow.base ~limit:ctx.shadow.Shadow.limit
        ~harts:(Array.length machine.Machine.harts)
        ()
    in
    (* the sync-edge channel: installed here, through the same public
       trap-handler API the guest services use -- no core edits *)
    Machine.set_trap_handler machine Hypercall.san_sync (fun _m cpu ->
        on_sync t ~hart:cpu.Cpu.id ~op:(Cpu.get cpu Reg.a0)
          ~addr:(Cpu.get cpu Reg.a1));
    t

  (* marked accesses are excluded from the rules: nothing to do there *)
  let access t ~pc ~size ~is_write ~is_atomic =
    if is_atomic then Sanitizer.no_site
    else fun ~hart ~addr ->
      on_access t ~pc ~addr ~size ~is_write ~is_atomic:false ~hart

  let clean_count _ = None
  let event _ _ = ()
  let scan _ ~now:_ = 0

  let checkpoint = checkpoint

  let stats t =
    [
      ("checks", t.checks);
      ("races", t.races);
      ("acquires", t.acquires);
      ("releases", t.releases);
      ("shared_promotions", t.promotions);
    ]
end

let plugin = Sanitizer.make (module Plugin)
