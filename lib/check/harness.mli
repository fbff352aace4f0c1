(** Campaign driver for the differential oracles: seeded program
    generation per arch flavor, every program through every oracle, with a
    stop histogram and the first five divergences collected.  Deterministic
    given [config]. *)

type config = {
  seed : int;
  execs : int;  (** programs per arch flavor *)
  sync : int;  (** retired instructions between state comparisons *)
  max_insns : int;  (** instruction budget per run *)
  archs : Embsan_isa.Arch.t list;
  oracles : string list;  (** oracle-name filter; [[]] runs all *)
}

(** seed 1, 1000 execs, sync 512, 4096 insns, all arch flavors, all
    oracles. *)
val default_config : config

type summary = {
  s_programs : int;
  s_runs : int;  (** oracle pair-runs (two machine executions each) *)
  s_stops : (string * int) list;  (** reference-run stop histogram *)
  s_divergences : Oracle.divergence list;
}

(** The oracles [config] selects (all when the filter is empty); raises
    [Invalid_argument] naming the known oracles on an unknown name. *)
val selected_oracles :
  config ->
  (string
  * (cfg:Oracle.cfg ->
    Progen.t ->
    Oracle.divergence option * Embsan_emu.Machine.stop))
  list

val stop_class : Embsan_emu.Machine.stop -> string
val run : config -> summary
val pp_summary : Format.formatter -> summary -> unit
