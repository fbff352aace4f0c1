(** Execution-engine counters: translation-cache behaviour and block
    chaining (serialized into BENCH_emu.json). *)

type t = {
  mutable translations : int;  (** blocks translated (misses + stale) *)
  mutable cache_hits : int;  (** lookups that found a live block *)
  mutable cache_misses : int;
      (** lookups that found no live block: translated, or revived after
          [Machine.revalidate_tcg] *)
  mutable chained : int;  (** transfers served by a chain link *)
  mutable flushes_load : int;  (** [load_image] flushes *)
  mutable flushes_invalidate : int;
      (** [flush_tcg] / [set_engine] / restore flushes.  Probe and
          dirty-tracking toggles patch sites in place and count as neither
          kind. *)
  mutable super_transfers : int;
      (** always 0 and not rendered by {!pp} or {!to_json}: kept only
          because the fuzzing benchmark's traced loop reads it, until
          that loop's next change *)
  mutable rehost_reads : int;
      (** unmapped-MMIO reads served by the rehost layer *)
  mutable irq_injected : int;  (** interrupts vectored by the rehost layer *)
}

val create : unit -> t
val reset : t -> unit

(** Total flushes of either kind (the pre-split [flushes] counter). *)
val flushes : t -> int

(** Fraction of non-chained block lookups served from the cache. *)
val hit_rate : t -> float

(** Fraction of all block-to-block transfers served by a chain link. *)
val chain_rate : t -> float

val pp : Format.formatter -> t -> unit

(** Version tag of the JSON rendering; bumped on any field change. *)
val schema : string

(** Render as one schema-versioned JSON object holding every raw counter
    (chaining, split flush counts, rehosting) plus the derived rates (used
    by the bench pipeline). *)
val to_json : t -> string

(** Parse {!to_json} output back into a record ([to_json]/[of_json]
    round-trips on all rendered counters).  Raises [Invalid_argument] on a
    missing field or a schema mismatch. *)
val of_json : string -> t
