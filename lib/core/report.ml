(* Sanitizer bug reports: structured records, deduplication and kernel-style
   pretty printing. *)

type bug_kind =
  | Oob_access
  | Use_after_free
  | Double_free
  | Invalid_free
  | Null_deref
  | Wild_access
  | Data_race
  | Memory_leak
  | Unaligned_access

let kind_name = function
  | Oob_access -> "out-of-bounds access"
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Invalid_free -> "invalid-free"
  | Null_deref -> "null-ptr-deref"
  | Wild_access -> "wild-memory-access"
  | Data_race -> "data-race"
  | Memory_leak -> "memory-leak"
  | Unaligned_access -> "unaligned-access"

type t = {
  kind : bug_kind;
  sanitizer : string; (* "kasan" | "kcsan" | "embsan" *)
  addr : int;
  size : int;
  is_write : bool;
  pc : int;
  hart : int;
  location : string option; (* symbolized function, when available *)
  detail : string; (* free-form: allocation info, racing pc, ... *)
}

(** Deduplication key: bug class at a location, like syzbot's crash titles.
    [pc] stands in for an unsymbolized [location]. *)
let key kind ~location ~pc =
  Printf.sprintf "%s:%s" (kind_name kind)
    (match location with Some l -> l | None -> Printf.sprintf "pc_0x%x" pc)

let dedup_key r = key r.kind ~location:r.location ~pc:r.pc

let title r =
  Printf.sprintf "%s: %s in %s"
    (String.uppercase_ascii r.sanitizer)
    (kind_name r.kind)
    (match r.location with Some l -> l | None -> Printf.sprintf "0x%08x" r.pc)

let pp fmt r =
  Fmt.pf fmt
    "@[<v>==================================================================@,\
     BUG: %s@,\
     %s of size %d at addr 0x%08x by hart %d pc 0x%08x@,\
     %s@,\
     ==================================================================@]"
    (title r)
    (if r.is_write then "Write" else "Read")
    r.size r.addr r.hart r.pc r.detail

(* --- Collection sink with dedup ------------------------------------------------ *)

type sink = {
  mutable reports : t list; (* newest first *)
  seen : (string, int) Hashtbl.t; (* dedup key -> hit count *)
}

(* Unique reports kept in full; later new bugs are only counted. *)
let report_limit = 10_000

let create_sink () = { reports = []; seen = Hashtbl.create 64 }

(** Count one more hit of the bug with dedup key [key]; [false], and no
    change, when no such bug has been seen yet. *)
let bump sink key =
  match Hashtbl.find_opt sink.seen key with
  | Some n ->
      Hashtbl.replace sink.seen key (n + 1);
      true
  | None -> false

(** Add a report; returns [true] if it is a new (non-duplicate) bug. *)
let add sink r =
  let key = dedup_key r in
  if bump sink key then false
  else begin
    Hashtbl.replace sink.seen key 1;
    if List.length sink.reports < report_limit then
      sink.reports <- r :: sink.reports;
    true
  end

let unique_reports sink = List.rev sink.reports
let count sink = Hashtbl.length sink.seen

(** Total report events including duplicates of already-seen bugs. *)
let total_hits sink = Hashtbl.fold (fun _ n acc -> acc + n) sink.seen 0
let hits sink key = Option.value ~default:0 (Hashtbl.find_opt sink.seen key)
let clear sink =
  sink.reports <- [];
  Hashtbl.reset sink.seen

(* --- Snapshot support -------------------------------------------------------- *)

(* Reports are immutable records, so the list can be shared; the dedup
   table is kept as bindings and rebuilt in the same order by every
   restore. *)
let checkpoint_sink sink =
  let reports = sink.reports in
  let seen = Hashtbl.fold (fun k n acc -> (k, n) :: acc) sink.seen [] in
  fun () ->
    sink.reports <- reports;
    Hashtbl.reset sink.seen;
    List.iter (fun (k, n) -> Hashtbl.replace sink.seen k n) seen
