(* Shared definitions for guest kernels: syscall descriptors (consumed by
   the fuzzers), kernel module descriptions and injected-bug records. *)

(* Argument domains for syscall fuzzing, syzlang-style. *)
type arg_domain =
  | Flag of int list (* one of these values *)
  | Range of int * int (* inclusive *)
  | Len (* a length-like value: small, occasionally huge *)
  | Any32

type syscall_desc = {
  sc_nr : int;
  sc_name : string;
  sc_args : arg_domain list; (* at most 3 *)
}

(* How a bug is detectable - decides the EmbSan-C / EmbSan-D capability
   matrix of Table 2. *)
type bug_class =
  | Heap_bug (* detectable by C and D (poisoned heap / freed memory) *)
  | Global_bug (* needs compile-time global redzones: C and native only *)
  | Stack_bug (* needs compile-time stack redzones: C and native only *)
  | Null_bug (* architectural fault; reported by every configuration *)
  | Race_bug (* needs the KCSAN functionality *)

type bug = {
  b_id : string; (* unique, e.g. "linux/ringbuf_map_alloc" *)
  b_paper_location : string; (* the paper's Location column *)
  b_symbol : string; (* guest function containing the bad access *)
  b_alt_symbols : string list; (* other functions the same bug manifests in *)
  b_kind : Embsan_core.Report.bug_kind;
  b_class : bug_class;
  b_syscalls : (int * int array) list; (* reproducer: calls in order *)
  b_benign : (int * int array) list; (* same path, no violation *)
}

let bug_symbols b = b.b_symbol :: b.b_alt_symbols

(* An out-of-bounds write that lands in an adjacent *freed* object is
   classified use-after-free by the shadow (exactly like real KASAN), and a
   double free whose first free aged out of tracking reports as an invalid
   free; the matcher accepts these manifestations. *)
let kind_matches (b : bug) (k : Embsan_core.Report.bug_kind) =
  b.b_kind = k
  ||
  match (b.b_kind, k) with
  | Embsan_core.Report.Oob_access, Embsan_core.Report.Use_after_free -> true
  | Embsan_core.Report.Double_free, Embsan_core.Report.Invalid_free -> true
  | _ -> false

type module_def = {
  m_name : string;
  m_source : string; (* MiniC compilation unit *)
  m_init : string option; (* init function called from kmain *)
  m_syscalls : syscall_desc list;
  m_bugs : bug list;
}

let reproducer b = b.b_syscalls

(* Syscall number allocation (per-kernel table of 96 entries):
   0..7    core (getpid-ish, nop, ...)
   8..31   fs
   32..55  net
   56..79  drivers
   80..95  os-specific *)
