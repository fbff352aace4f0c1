(** Host-side kmemleak-style leak detector: the "third sanitizer"
    demonstrating the paper's section-5 adaptability claim.  It consumes
    only the allocator interception points and reports allocation sites
    that accumulate live blocks past a grace window when {!scan} runs:
    four or more blocks, each allocated over 50,000 insns earlier. *)

type alloc_rec = { l_size : int; l_pc : int; l_at : int }

type t = {
  sink : Report.sink;
  symbolize : int -> string option;
  live : (int, alloc_rec) Hashtbl.t;
  mutable allocs : int;
  mutable frees : int;
}

val create :
  sink:Report.sink -> symbolize:(int -> string option) -> unit -> t

val on_alloc : t -> ptr:int -> size:int -> pc:int -> now:int -> unit
val on_free : t -> ptr:int -> unit

(** Number of currently tracked live blocks. *)
val live_blocks : t -> int

(** Scan for leaks at instruction count [now]; returns the number of new
    reports added to the sink. *)
val scan : t -> now:int -> int

(** The plugin ({!Sanitizer.S} implementation, header included); its
    [scan] hook is the leak pass {!Runtime.scan_leaks} sums over. *)
val plugin : Sanitizer.plugin
