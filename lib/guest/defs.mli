(** Shared definitions for guest kernels: syscall descriptors (consumed by
    the fuzzers), kernel-module descriptions and injected-bug records. *)

(** Argument domains for syscall fuzzing, syzlang-style. *)
type arg_domain =
  | Flag of int list  (** one of these values *)
  | Range of int * int  (** inclusive *)
  | Len  (** length-like: small, occasionally a boundary constant *)
  | Any32

type syscall_desc = {
  sc_nr : int;
  sc_name : string;
  sc_args : arg_domain list;  (** at most 3 *)
}

(** Detectability class - decides the EmbSan-C/EmbSan-D capability matrix
    of Table 2. *)
type bug_class =
  | Heap_bug  (** detectable by C and D (poisoned heap / freed memory) *)
  | Global_bug  (** needs compile-time global redzones: C and native only *)
  | Stack_bug  (** needs compile-time stack redzones: C and native only *)
  | Null_bug  (** architectural fault; caught by every configuration *)
  | Race_bug  (** needs the KCSAN functionality *)

type bug = {
  b_id : string;
  b_paper_location : string;  (** the paper's Location column *)
  b_symbol : string;  (** guest function containing the bad access *)
  b_alt_symbols : string list;
  b_kind : Embsan_core.Report.bug_kind;
  b_class : bug_class;
  b_syscalls : (int * int array) list;  (** reproducer: calls in order *)
  b_benign : (int * int array) list;  (** same path, no violation *)
}

val bug_symbols : bug -> string list

(** Does a report of kind [k] match this bug?  Accepts the real-world
    manifestations: an OOB landing in freed memory reports as UAF, a
    double free of an untracked block as invalid-free. *)
val kind_matches : bug -> Embsan_core.Report.bug_kind -> bool

type module_def = {
  m_name : string;
  m_source : string;  (** MiniC compilation unit *)
  m_init : string option;  (** init function called from kmain *)
  m_syscalls : syscall_desc list;
  m_bugs : bug list;
}

val reproducer : bug -> (int * int array) list
