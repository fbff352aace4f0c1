(* Tests for the fuzzing library: PRNG determinism, program generation and
   mutation invariants (property-based), corpus triage, and campaign
   determinism / effectiveness on a small firmware. *)

open Embsan_guest
open Embsan_fuzz
module Embsan = Embsan_core.Embsan

let descs =
  [
    { Defs.sc_nr = 1; sc_name = "a"; sc_args = [ Defs.Flag [ 0; 1; 2 ] ] };
    { Defs.sc_nr = 2; sc_name = "b"; sc_args = [ Defs.Range (0, 15); Defs.Len ] };
    { Defs.sc_nr = 7; sc_name = "c"; sc_args = [ Defs.Any32; Defs.Any32; Defs.Len ] };
  ]

(* --- PRNG ----------------------------------------------------------------------- *)

let rng_deterministic () =
  let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create ~seed:6 in
  Alcotest.(check bool) "different seed differs" true
    (List.init 10 (fun _ -> Rng.next a) <> List.init 10 (fun _ -> Rng.next c))

let rng_ranges =
  QCheck2.Test.make ~name:"Rng.range stays in bounds" ~count:200
    QCheck2.Gen.(triple int (int_range 0 100) (int_range 0 100))
    (fun (seed, lo, d) ->
      let rng = Rng.create ~seed in
      let v = Rng.range rng lo (lo + d) in
      v >= lo && v <= lo + d)

(* --- splittable streams (the orchestrator's per-worker seeding) ------------------ *)

let stream rng n = List.init n (fun _ -> Rng.next rng)

let split_reproducible =
  QCheck2.Test.make ~name:"Rng.split: same (seed, shard) same stream" ~count:200
    QCheck2.Gen.(pair int (int_range 0 1024))
    (fun (seed, shard) ->
      let a = Rng.split (Rng.create ~seed) ~shard in
      let b = Rng.split (Rng.create ~seed) ~shard in
      stream a 16 = stream b 16)

let split_distinct_shards =
  QCheck2.Test.make ~name:"Rng.split: distinct shards distinct streams"
    ~count:500
    QCheck2.Gen.(triple int (int_range 0 4096) (int_range 0 4096))
    (fun (seed, i, j) ->
      QCheck2.assume (i <> j);
      let a = Rng.split (Rng.create ~seed) ~shard:i in
      let b = Rng.split (Rng.create ~seed) ~shard:j in
      stream a 16 <> stream b 16)

let split_independent_of_parent =
  QCheck2.Test.make ~name:"Rng.split: child differs from parent, parent intact"
    ~count:200
    QCheck2.Gen.(pair int (int_range 0 64))
    (fun (seed, shard) ->
      let parent = Rng.create ~seed in
      let child = Rng.split parent ~shard in
      (* splitting must not advance the parent stream *)
      let parent' = Rng.create ~seed in
      stream child 16 <> stream parent' 16
      && stream parent 16 = stream (Rng.create ~seed) 16)

let split_seed_collision_free () =
  (* exhaustive within a small grid: the campaign-seed x shard plane the
     orchestrator actually uses must be collision-free *)
  let seen = Hashtbl.create 4096 in
  for seed = 0 to 63 do
    for shard = 0 to 63 do
      let s = Rng.split_seed ~seed ~shard in
      (match Hashtbl.find_opt seen s with
      | Some (seed', shard') ->
          Alcotest.failf "collision: (%d,%d) and (%d,%d) -> %d" seed shard
            seed' shard' s
      | None -> ());
      Hashtbl.add seen s (seed, shard)
    done
  done

(* --- named streams (the scheduler's dedicated draw stream) ----------------------- *)

let stream_names = [ "sched"; "mut"; "dict"; "havoc" ]

let split_stream_reproducible =
  QCheck2.Test.make ~name:"Rng.split_stream: same (seed, shard, stream) same \
                           stream"
    ~count:200
    QCheck2.Gen.(triple int (int_range 0 1024) (int_range 0 3))
    (fun (seed, shard, k) ->
      let name = List.nth stream_names k in
      let a = Rng.split_stream (Rng.create ~seed) ~shard ~stream:name in
      let b = Rng.split_stream (Rng.create ~seed) ~shard ~stream:name in
      stream a 16 = stream b 16)

let split_stream_independent =
  QCheck2.Test.make
    ~name:"Rng.split_stream: distinct (shard, stream) distinct streams"
    ~count:500
    QCheck2.Gen.(
      pair int (pair (pair (int_range 0 512) (int_range 0 3))
                  (pair (int_range 0 512) (int_range 0 3))))
    (fun (seed, ((i, ki), (j, kj))) ->
      QCheck2.assume ((i, ki) <> (j, kj));
      let a =
        Rng.split_stream (Rng.create ~seed) ~shard:i
          ~stream:(List.nth stream_names ki)
      in
      let b =
        Rng.split_stream (Rng.create ~seed) ~shard:j
          ~stream:(List.nth stream_names kj)
      in
      stream a 16 <> stream b 16)

let split_stream_leaves_parent_intact =
  QCheck2.Test.make
    ~name:"Rng.split_stream: parent stream not advanced, distinct from child"
    ~count:200
    QCheck2.Gen.(pair int (int_range 0 64))
    (fun (seed, shard) ->
      let parent = Rng.create ~seed in
      let child = Rng.split_stream parent ~shard ~stream:"sched" in
      stream child 16 <> stream (Rng.create ~seed) 16
      && stream parent 16 = stream (Rng.create ~seed) 16)

let split_stream_collision_free_grid () =
  (* exhaustive within the plane campaigns actually use: for every
     campaign seed, all (shard, stream) streams -- plus the unnamed
     {!Rng.split} per-shard stream -- must be pairwise distinct *)
  let prefix r = List.init 8 (fun _ -> Rng.next r) in
  for seed = 0 to 15 do
    let seen = Hashtbl.create 1024 in
    let add key r =
      let p = prefix r in
      (match Hashtbl.find_opt seen p with
      | Some key' -> Alcotest.failf "stream collision: %s and %s" key key'
      | None -> ());
      Hashtbl.add seen p key
    in
    for shard = 0 to 15 do
      add
        (Printf.sprintf "(%d,unnamed)" shard)
        (Rng.split (Rng.create ~seed) ~shard);
      List.iter
        (fun name ->
          add
            (Printf.sprintf "(%d,%s)" shard name)
            (Rng.split_stream (Rng.create ~seed) ~shard ~stream:name))
        stream_names
    done
  done

let stream_tag_distinct () =
  (* the FNV-1a name tags behind the named axis must separate the names
     in use (and stay stable: a tag change would silently reseed every
     schedule in the corpus) *)
  let tags = List.map Rng.stream_tag stream_names in
  Alcotest.(check int) "distinct tags" (List.length stream_names)
    (List.length (List.sort_uniq compare tags));
  Alcotest.(check bool) "tag deterministic" true
    (Rng.stream_tag "sched" = Rng.stream_tag "sched")

(* --- program generation / mutation ----------------------------------------------- *)

let prog_gen_valid =
  QCheck2.Test.make ~name:"generated programs use declared syscalls" ~count:100
    QCheck2.Gen.int (fun seed ->
      let rng = Rng.create ~seed in
      let p = Prog.gen rng descs in
      List.length p >= 1
      && List.length p <= Prog.max_len
      && List.for_all
           (fun (c : Prog.call) ->
             List.exists (fun d -> d.Defs.sc_nr = c.nr) descs
             && Array.length c.args = 3)
           p)

let mutate_preserves_validity =
  QCheck2.Test.make ~name:"mutation keeps programs well-formed" ~count:200
    QCheck2.Gen.(pair int int)
    (fun (seed1, seed2) ->
      let rng = Rng.create ~seed:seed1 in
      let p = Prog.gen rng descs in
      let rng2 = Rng.create ~seed:seed2 in
      let other = Prog.gen rng2 descs in
      let q =
        Prog.mutate rng2 descs ~corpus_pick:(fun () -> Some other) p
      in
      List.length q >= 1
      && List.length q <= Prog.max_len
      && List.for_all (fun (c : Prog.call) -> Array.length c.args = 3) q)

let flag_domain_respected () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 200 do
    let v = Prog.gen_arg rng (Defs.Flag [ 3; 5; 9 ]) in
    Alcotest.(check bool) "flag value" true (List.mem v [ 3; 5; 9 ])
  done

(* --- corpus ---------------------------------------------------------------------- *)

let corpus_triage () =
  let c = Corpus.create () in
  let p1 = [ { Prog.nr = 1; args = [| 0; 0; 0 |] } ] in
  let p2 = [ { Prog.nr = 2; args = [| 1; 2; 3 |] } ] in
  Alcotest.(check bool) "new coverage admits" true
    (Corpus.consider c p1 [ (10, 1); (11, 1) ]);
  Alcotest.(check bool) "duplicate coverage rejected" false
    (Corpus.consider c p1 [ (10, 1) ]);
  Alcotest.(check bool) "new bucket admits" true
    (Corpus.consider c p2 [ (10, 2) ]);
  Alcotest.(check int) "size" 2 (Corpus.size c);
  Alcotest.(check int) "coverage pairs" 3 (Corpus.coverage c);
  Alcotest.(check int) "programs retained" 2 (List.length (Corpus.programs c))

(* The corpus against the hashtable-and-list corpus it replaced: random
   signatures (buckets 1-8, edge indices and cmplog features, repeats
   included) admit exactly what a [Hashtbl] of (index, bucket) pairs
   admits, with the same size and coverage, and [pick] draws the same
   entries as [Rng.pick] over the newest-first list from the same [Rng]
   state. *)
let corpus_matches_hashtable_qcheck =
  let open QCheck2 in
  let module Cmplog = Embsan_emu.Cmplog in
  let top = Cmplog.feature_base + Cmplog.feature_slots - 1 in
  let index =
    Gen.(
      frequency
        [
          (4, int_range 0 63);
          (1, int_range 0 (Cmplog.feature_base - 1));
          (2, map (fun k -> Cmplog.feature_base + k) (int_range 0 31));
          (1, int_range (top - 3) top);
        ])
  in
  let signature = Gen.(list_size (int_range 0 12) (pair index (int_range 1 8))) in
  Test.make ~name:"bitmap admission = Hashtbl reference" ~count:300
    Gen.(pair (list_size (int_range 1 40) signature) (int_range 0 1000))
    (fun (signatures, seed) ->
      let c = Corpus.create () in
      let seen = Hashtbl.create 64 and entries = ref [] and pairs = ref 0 in
      let reference k signature =
        let fresh = List.filter (fun p -> not (Hashtbl.mem seen p)) signature in
        if fresh = [] then false
        else begin
          List.iter (fun p -> Hashtbl.replace seen p ()) fresh;
          pairs := !pairs + List.length fresh;
          entries := k :: !entries;
          true
        end
      in
      let prog k = [ { Prog.nr = k; args = [||] } ] in
      List.for_all
        (fun (k, signature) ->
          Corpus.consider c (prog k) ~sched:k signature = reference k signature
          && Corpus.size c = List.length !entries
          && Corpus.coverage c = !pairs)
        (List.mapi (fun k sg -> (k, sg)) signatures)
      &&
      let rng_a = Rng.create ~seed and rng_b = Rng.create ~seed in
      List.for_all
        (fun _ ->
          match (Corpus.pick rng_a c, !entries) with
          | None, [] -> true
          | Some (p, sched, _), l ->
              let k = Rng.pick rng_b l in
              p = prog k && sched = Some k
          | None, _ :: _ -> false)
        (List.init 20 Fun.id)
      && Corpus.programs c = List.rev_map prog !entries)

(* --- campaigns ------------------------------------------------------------------- *)

let small_fw () = Option.get (Firmware_db.find "OpenHarmony-stm32f407")

let campaign_finds_bugs () =
  let fw = small_fw () in
  let cfg = { (Campaign.default_config fw) with max_execs = 1500; seed = 3 } in
  let r = Campaign.run cfg in
  Alcotest.(check int) "both bugs found" 2 (List.length r.r_found);
  List.iter
    (fun (f : Campaign.found) ->
      Alcotest.(check bool) (f.f_bug.b_id ^ " confirmed") true f.f_confirmed)
    r.r_found

let campaign_deterministic () =
  let fw = small_fw () in
  let run () =
    let cfg = { (Campaign.default_config fw) with max_execs = 400; seed = 11 } in
    let r = Campaign.run cfg in
    ( List.sort compare
        (List.map (fun (f : Campaign.found) -> (f.f_bug.b_id, f.f_exec)) r.r_found),
      r.r_coverage )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same findings and coverage" true (a = b)

(* Golden values for two short seeded campaigns.  The determinism tests
   above compare two runs of one build; these pins also catch a change
   that reorders or rebuckets the coverage signature, which would shift
   corpus admission and every count downstream of it.  One kcov firmware
   and one Tardis (per-block) firmware. *)
let campaign_golden_trajectories () =
  let check name ~counts ~found =
    let fw = Option.get (Firmware_db.find name) in
    let cfg =
      {
        (Campaign.default_config fw) with
        max_execs = 500;
        seed = 1;
        stop_when_all_found = false;
      }
    in
    let r = Campaign.run cfg in
    Alcotest.(check (list int))
      (name ^ " coverage, corpus, insns, crashes")
      counts
      [ r.r_coverage; r.r_corpus; r.r_insns; r.r_crashes ];
    Alcotest.(check (list (triple string int bool)))
      (name ^ " found bugs, first exec, confirmed")
      found
      (List.sort compare
         (List.map
            (fun (f : Campaign.found) -> (f.f_bug.b_id, f.f_exec, f.f_confirmed))
            r.r_found))
  in
  check "OpenWRT-bcm63xx" ~counts:[ 204; 52; 3090757; 0 ]
    ~found:
      [
        ("linux/ahc_queue_scb", 1, true);
        ("linux/bcm2835_dma_start", 23, true);
        ("linux/brcm_fweh_beacon", 14, false);
        ("linux/btrfs_scan_device", 46, true);
        ("linux/hci_remote_name_evt", 71, true);
      ];
  check "InfiniTime" ~counts:[ 925; 178; 3439373; 0 ]
    ~found:
      [
        ("freertos/lfs_cache_read", 49, true);
        ("freertos/spi_dma_transfer", 1, true);
        ("freertos/st7789_flush", 62, false);
      ]

(* Golden values for a seeded rehost campaign: mmio-suite with model-free
   rehosting and IRQ injection restores the post-boot snapshot before
   every exec, so this pins the per-exec restore path (the goldens above
   only restore after crashes).  The reproducer's rehost seed is pinned
   too. *)
let campaign_golden_rehost () =
  let fw = Firmware_db.mmio_suite_fw in
  let cfg =
    {
      (Campaign.default_config fw) with
      max_execs = 500;
      seed = 1;
      stop_when_all_found = false;
      use_rehost = true;
      use_irq = true;
    }
  in
  let r = Campaign.run cfg in
  Alcotest.(check (list int))
    "coverage, corpus, insns, crashes" [ 203; 67; 1866467; 0 ]
    [ r.r_coverage; r.r_corpus; r.r_insns; r.r_crashes ];
  Alcotest.(check (list (pair (triple string int bool) (option int))))
    "found bugs, first exec, confirmed, rehost seed"
    [ (("mmio-suite/irq_uaf", 95, true), Some 827339329) ]
    (List.sort compare
       (List.map
          (fun (f : Campaign.found) ->
            ((f.f_bug.b_id, f.f_exec, f.f_confirmed), f.f_rehost))
          r.r_found))

let campaign_seed_variation () =
  let fw = small_fw () in
  let execs seed =
    let cfg = { (Campaign.default_config fw) with max_execs = 1200; seed } in
    let r = Campaign.run cfg in
    List.sort compare (List.map (fun (f : Campaign.found) -> f.f_exec) r.r_found)
  in
  (* different seeds find the bugs at different times but still find them *)
  Alcotest.(check bool) "seed 1 finds" true (execs 1 <> []);
  Alcotest.(check bool) "seed 2 finds" true (execs 2 <> [])

let tardis_mode_needs_no_guest_support () =
  (* the Tardis coverage path must work on the closed-source image *)
  let fw = Option.get (Firmware_db.find "TP-Link WDR-7660") in
  let cfg =
    { (Campaign.default_config fw) with max_execs = 800; seed = 5 }
  in
  let r = Campaign.run cfg in
  Alcotest.(check bool) "coverage collected" true (r.r_coverage > 10);
  Alcotest.(check bool) "found something" true (r.r_found <> [])

(* Coverage is fuzzer-owned host state, attached via probes: Snap.restore
   must revert the guest without touching it.  This is the semantics the
   campaign's persistent mode depends on (a restore after every crash must
   not wipe the corpus signal) -- see DESIGN.md "Snapshot service". *)
let coverage_survives_restore () =
  let fw = small_fw () in
  let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.kasan_only) in
  let cov = Embsan_emu.Coverage.create ~harts:2 in
  Embsan_emu.Coverage.attach_tcg cov inst.Replay.machine;
  let snap =
    Embsan_snap.Snap.capture ?runtime:inst.Replay.rt inst.Replay.machine
  in
  let benign =
    List.concat_map (fun (b : Defs.bug) -> b.b_benign) fw.fw_bugs
  in
  ignore (Replay.replay inst benign);
  let edges = Embsan_emu.Coverage.edge_count cov in
  Alcotest.(check bool) "edges collected" true (edges > 0);
  ignore (Embsan_snap.Snap.restore snap : int);
  Alcotest.(check int) "coverage survives the restore" edges
    (Embsan_emu.Coverage.edge_count cov);
  (* the restored guest still executes and reports coverage *)
  Embsan_emu.Coverage.reset_edges cov;
  ignore (Replay.replay inst benign);
  Alcotest.(check bool) "coverage flows after restore" true
    (Embsan_emu.Coverage.edge_count cov > 0)

(* The compare-coverage A/B: the magic-gate firmware's use-after-free sits
   behind a [token == 0x51EC7A3D] guard.  Without cmplog the mutator never
   produces the token; with cmplog the guest's own compare donates it via
   the input-to-state counterpart map and the bug falls within a few
   hundred executions. *)
let cmplog_solves_magic_gate () =
  let fw = Firmware_db.cmplog_gate_fw in
  let run use_cmplog =
    let cfg =
      {
        (Campaign.default_config fw) with
        max_execs = 2000;
        seed = 7;
        use_cmplog;
      }
    in
    Campaign.run cfg
  in
  let off = run false and on = run true in
  Alcotest.(check int) "plain mutator never passes the gate" 0
    (List.length off.r_found);
  Alcotest.(check int) "cmplog passes the gate" 1 (List.length on.r_found);
  let f = List.hd on.r_found in
  Alcotest.(check string) "the gated bug" "demo/magicgate_unlock"
    f.f_bug.b_id;
  Alcotest.(check bool) "confirmed" true f.f_confirmed;
  (* compare features widen the frontier beyond plain edge coverage *)
  Alcotest.(check bool) "compare features admitted" true
    (on.r_coverage > off.r_coverage)

let cmplog_campaign_deterministic () =
  let fw = Firmware_db.cmplog_gate_fw in
  let run () =
    let cfg =
      {
        (Campaign.default_config fw) with
        max_execs = 600;
        seed = 11;
        use_cmplog = true;
      }
    in
    let r = Campaign.run cfg in
    ( List.sort compare
        (List.map (fun (f : Campaign.found) -> (f.f_bug.b_id, f.f_exec)) r.r_found),
      r.r_coverage,
      r.r_corpus )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "cmplog campaign is deterministic" true (a = b)

let clean_corpus_filters_triggers () =
  let fw = small_fw () in
  let cfg =
    {
      (Campaign.default_config fw) with
      max_execs = 1200;
      seed = 3;
      stop_when_all_found = false;
    }
  in
  let r = Campaign.run cfg in
  let clean = Campaign.clean_corpus fw r.r_corpus_progs in
  Alcotest.(check bool) "corpus nonempty" true (clean <> []);
  (* replaying the clean corpus produces no reports *)
  let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.all_sanitizers) in
  let o = Replay.replay inst (List.concat_map Prog.to_reproducer clean) in
  Alcotest.(check (list string)) "no reports" []
    (List.map Embsan_core.Report.title o.o_reports)

let () =
  Alcotest.run "embsan_fuzz"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          QCheck_alcotest.to_alcotest rng_ranges;
          QCheck_alcotest.to_alcotest split_reproducible;
          QCheck_alcotest.to_alcotest split_distinct_shards;
          QCheck_alcotest.to_alcotest split_independent_of_parent;
          Alcotest.test_case "split_seed collision-free grid" `Quick
            split_seed_collision_free;
          QCheck_alcotest.to_alcotest split_stream_reproducible;
          QCheck_alcotest.to_alcotest split_stream_independent;
          QCheck_alcotest.to_alcotest split_stream_leaves_parent_intact;
          Alcotest.test_case "split_stream collision-free grid" `Quick
            split_stream_collision_free_grid;
          Alcotest.test_case "stream tags distinct and stable" `Quick
            stream_tag_distinct;
        ] );
      ( "prog",
        [
          QCheck_alcotest.to_alcotest prog_gen_valid;
          QCheck_alcotest.to_alcotest mutate_preserves_validity;
          Alcotest.test_case "flag domains" `Quick flag_domain_respected;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "triage" `Quick corpus_triage;
          QCheck_alcotest.to_alcotest corpus_matches_hashtable_qcheck;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "finds and confirms bugs" `Slow campaign_finds_bugs;
          Alcotest.test_case "deterministic" `Slow campaign_deterministic;
          Alcotest.test_case "golden trajectories" `Slow
            campaign_golden_trajectories;
          Alcotest.test_case "seed variation" `Slow campaign_seed_variation;
          Alcotest.test_case "Tardis mode on closed firmware" `Slow
            tardis_mode_needs_no_guest_support;
          Alcotest.test_case "coverage survives restore" `Quick
            coverage_survives_restore;
          Alcotest.test_case "clean corpus" `Slow clean_corpus_filters_triggers;
          Alcotest.test_case "cmplog solves the magic gate" `Slow
            cmplog_solves_magic_gate;
          Alcotest.test_case "cmplog campaign deterministic" `Slow
            cmplog_campaign_deterministic;
          Alcotest.test_case "golden rehost trajectory" `Slow
            campaign_golden_rehost;
        ] );
    ]
