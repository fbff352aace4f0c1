(** Execution-engine counters: translation-cache behaviour and block
    chaining (serialized into BENCH_emu.json). *)

type t = {
  mutable translations : int;  (** blocks translated *)
  mutable cache_hits : int;  (** lookups that found the block cached *)
  mutable cache_misses : int;
      (** lookups that found no block and translated one; a restore that
          [Machine.revalidate_tcg] keeps the cache across adds none *)
  mutable chained : int;  (** transfers served by a chain link *)
  mutable flushes_load : int;  (** [load_image] flushes *)
  mutable flushes_invalidate : int;
      (** [flush_tcg] / [set_engine] / restore flushes.  Probe and
          cmplog toggles patch sites in place and count as neither
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
