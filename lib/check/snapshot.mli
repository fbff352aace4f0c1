(** Architectural-state snapshots and minimized diffs for the differential
    harness: exactly the state the guest can observe (per-hart registers,
    pc, retired counts, machine totals, one [Digest] of the RAM bytes,
    console, stop record) and none of the engine-private state the two
    engines are allowed to disagree on. *)

type hart = {
  h_id : int;
  h_pc : int;
  h_regs : int array;
  h_insns : int;
  h_status : string;
}

type t = {
  harts : hart array;
  total_insns : int;
  cost : int;
  ram_digest : string;
  console : string;
  stop : string option;  (** rendered stop; [None] while still running *)
}

val stop_string : Embsan_emu.Machine.stop -> string

(** Capture the architectural state of [m]; pass [?stop] once the machine
    has reported a definitive stop so it is compared too. *)
val capture : ?stop:Embsan_emu.Machine.stop -> Embsan_emu.Machine.t -> t

(** Minimized field-by-field diff, one line per differing observable;
    [[]] means architecturally identical. *)
val diff : t -> t -> string list

val equal : t -> t -> bool

(** The first eight differing RAM words of two live machines (used to
    enrich a digest-mismatch diff line). *)
val ram_delta : Embsan_emu.Machine.t -> Embsan_emu.Machine.t -> string list
