(* Fuzzing benchmark of the EmbSan pipeline.

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics: passes over the workload's
   campaigns (each campaign a fresh process running single-domain
   [Campaign.Engine]: a cold [Engine.create], then [Engine.step] to the
   exec budget) until S seconds have passed, at least two passes.
   --trace 1 runs each campaign once untraced and once through the traced
   loop ({!Traced}) and reports the per-layer metrics.  Both check the
   outputs and print, last, one JSON line with [correct], [attempted],
   [failed] and [metrics]; the exit code is 0 only when every check holds.

   The child modes [run W SEED] and [trace W SEED SPANS_FILE] are the
   per-campaign processes; each prints "key value..." lines read back
   here. *)

open Perfbench
module W = Workload
module Campaign = Embsan_fuzz.Campaign
module Engine = Campaign.Engine
module Prog = Embsan_fuzz.Prog
module Replay = Embsan_guest.Replay
module Rehost = Embsan_rehost.Rehost

let now = Traced.now

(* --- child: one untraced campaign --------------------------------------- *)

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0
    | l -> (
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] ->
            Scanf.sscanf (String.trim v) "%d" Fun.id
        | _ -> go ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Replays a confirmed reproducer on a fresh instance, from outside the
   engine, re-arming its rehost seed and IRQ plan. *)
let reproduces (w : W.t) (f : Campaign.found) =
  let inst = Replay.boot w.fw (Replay.Embsan_cfg w.sanitizers) in
  (if w.rehost then
     let ctl = Rehost.create inst.machine in
     Option.iter (Traced.arm_rehost ~irq:f.f_irq ctl) f.f_rehost);
  Replay.detects f.f_bug (Replay.replay inst (Prog.to_reproducer f.f_prog))

let child_run (w : W.t) seed =
  let cfg = W.config w ~seed in
  let t0 = now () in
  match Engine.create cfg with
  | exception ex ->
      Printf.printf "failed %d\nerror Engine.create: %s\n" (1 + w.budget)
        (Printexc.to_string ex)
  | e ->
      Printf.printf "setup_ns %d\n" (now () - t0);
      let samples = Array.make w.budget 0 in
      let steps = ref 0 and hangs = ref 0 in
      let loop_t0 = now () in
      (try
         while not (Engine.finished e) do
           let i0 = Engine.insns_now e in
           let t = now () in
           Engine.step e;
           samples.(!steps) <- now () - t;
           incr steps;
           if Engine.insns_now e - i0 >= W.call_budget then incr hangs
         done
       with ex ->
         Printf.printf "failed %d\nerror Engine.step: %s\n" (w.budget - !steps)
           (Printexc.to_string ex));
      Printf.printf "loop_ns %d\n" (now () - loop_t0);
      Printf.printf "rss_kb %d\n" (vm_hwm_kb ());
      print_string "steps";
      for i = 0 to !steps - 1 do
        Printf.printf " %d" samples.(i)
      done;
      print_newline ();
      let r = Engine.result e in
      List.iter
        (fun (f : Campaign.found) ->
          if f.f_confirmed then
            Printf.printf "repro %s %s\n" f.f_bug.b_id
              (match reproduces w f with
              | true -> "ok"
              | false -> "not detected"
              | exception ex -> "raised " ^ Printexc.to_string ex))
        r.r_found;
      Traced.print_counts
        {
          insns = r.r_insns;
          coverage = r.r_coverage;
          corpus = r.r_corpus;
          stops = r.r_crashes;
          hangs = !hangs;
          found =
            List.map
              (fun (f : Campaign.found) -> (f.f_bug.b_id, f.f_exec, f.f_confirmed))
              r.r_found;
          unmatched = r.r_unmatched;
        }

(* --- parent: spawn, parse, aggregate ------------------------------------ *)

type child = {
  lines : (string * string) list;  (** key, rest of the line *)
  status : string option;  (** [Some reason] when the process failed *)
}

let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | l -> (
        match String.index_opt l ' ' with
        | Some i ->
            read ((String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1)) :: acc)
        | None -> read ((l, "") :: acc))
  in
  let lines = read [] in
  let status =
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> None
    | Unix.WEXITED n -> Some (Printf.sprintf "exited %d" n)
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> Some (Printf.sprintf "signal %d" n)
  in
  { lines; status }

let get c key = List.assoc_opt key c.lines
let all c key = List.filter_map (fun (k, v) -> if k = key then Some v else None) c.lines
let int_of c key = Option.map int_of_string (get c key)

(* Host ns of each [Engine.step] the child timed. *)
let steps c =
  match get c "steps" with
  | Some v -> List.filter_map int_of_string_opt (String.split_on_char ' ' v)
  | None -> []

(* The lines two runs of one campaign must agree on. *)
let counts c =
  List.filter (fun (k, _) -> k = "count" || k = "found" || k = "unmatched") c.lines

let confirmed c =
  List.length
    (List.filter (fun v -> String.ends_with ~suffix:" confirmed" v) (all c "found"))

let coverage c =
  match get c "count" with
  | Some v -> Scanf.sscanf v "insns=%_d coverage=%d" Fun.id
  | None -> 0

type acct = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let problem a fmt = Printf.ksprintf (fun s -> a.problems <- s :: a.problems) fmt

(* Every child attempts one [Engine.create] and the exec budget; it
   reports the failed share itself, or all of it when it died. *)
let account a (w : W.t) what c =
  a.attempted <- a.attempted + 1 + w.budget;
  match c.status with
  | Some why ->
      a.failed <- a.failed + 1 + w.budget;
      problem a "%s: process %s" what why
  | None ->
      a.failed <- a.failed + Option.value ~default:0 (int_of c "failed");
      List.iter (problem a "%s: %s" what) (all c "error");
      List.iter
        (fun v ->
          if not (String.ends_with ~suffix:" ok" v) then
            problem a "%s: reproducer %s" what v)
        (all c "repro")

(* --- host stamp --------------------------------------------------------- *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Some (In_channel.input_all ic))

let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head -> (
      let head = String.trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (".git/" ^ r) with
          | Some h -> String.trim h
          | None -> (
              let packed = Option.value ~default:"" (read_file ".git/packed-refs") in
              match
                List.find_opt
                  (fun l -> String.ends_with ~suffix:(" " ^ r) l)
                  (String.split_on_char '\n' packed)
              with
              | Some l -> List.hd (String.split_on_char ' ' l)
              | None -> "unknown"))
      | _ -> head)

let cpuinfo () =
  let lines =
    String.split_on_char '\n' (Option.value ~default:"" (read_file "/proc/cpuinfo"))
  in
  let field l = String.trim (List.nth (String.split_on_char ':' l) 1) in
  let nproc =
    List.length (List.filter (String.starts_with ~prefix:"processor") lines)
  in
  let model =
    match List.find_opt (String.starts_with ~prefix:"model name") lines with
    | Some l -> field l
    | None -> "unknown"
  in
  (nproc, model)

let print_host (w : W.t) ~seed ~trace =
  let nproc, model = cpuinfo () in
  Printf.printf
    "host: nproc=%d cpu=%S ocaml=%s commit=%s\n\
     run: workload=%s seed=%d trace=%d campaigns=%d budget=%d execs each\n"
    nproc model Sys.ocaml_version (git_commit ()) w.name seed trace W.campaigns
    w.budget

(* --- results ------------------------------------------------------------ *)

type metric = { m_name : string; unit_ : string; value : float; note : string }

let print_result a metrics =
  List.iter
    (fun m ->
      Printf.printf "%-26s %14.4f %-8s %s\n" m.m_name m.value m.unit_ m.note)
    metrics;
  let metrics =
    List.filter_map
      (fun m ->
        match Stats.json_number m.value with
        | Some v when Stats.valid_name m.m_name ->
            Some (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name v m.unit_)
        | _ ->
            problem a "metric %s: value %f is not reportable" m.m_name m.value;
            None)
      metrics
  in
  List.iter (Printf.printf "check failed: %s\n") (List.rev a.problems);
  let correct = a.problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct a.attempted a.failed
    (String.concat ", " metrics);
  exit (if correct then 0 else 1)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let median_of f l = Stats.median (Array.of_list (List.map f l))

(* --- --trace 0: end-to-end metrics -------------------------------------- *)

let measure (w : W.t) ~seed ~seconds =
  let a = { attempted = 0; failed = 0; problems = [] } in
  let seeds = List.init W.campaigns (W.campaign_seed ~seed) in
  let t0 = now () in
  let elapsed () = float_of_int (now () - t0) /. 1e9 in
  let runs = ref [] and passes = ref 0 in
  (* at least two passes, so every campaign's counts can be compared; no
     new pass past two minutes *)
  while (!passes < 2 || elapsed () < float_of_int seconds) && elapsed () < 120. do
    List.iter
      (fun cs ->
        let c = spawn [ "run"; w.name; string_of_int cs ] in
        account a w (Printf.sprintf "campaign %d" cs) c;
        runs := (cs, c) :: !runs)
      seeds;
    incr passes
  done;
  let runs = List.rev !runs in
  if !passes < 2 then problem a "only %d pass in two minutes" !passes;
  List.iter
    (fun cs ->
      match List.filter_map (fun (s, c) -> if s = cs then Some c else None) runs with
      | first :: rest ->
          if List.exists (fun c -> counts c <> counts first) rest then
            problem a "campaign %d: counts differ between runs of one seed" cs
      | [] -> ())
    seeds;
  let cs = List.map snd runs in
  let ok = List.filter (fun c -> get c "loop_ns" <> None) cs in
  let samples =
    Array.of_list
      (List.concat_map (fun c -> List.map (fun ns -> float_of_int ns /. 1e3) (steps c)) ok)
    |> Stats.sorted
  in
  let n = Array.length samples in
  if n = 0 then begin
    problem a "no exec completed";
    print_result a []
  end;
  let p50 = Stats.percentile samples 0.50 and p99 = Stats.percentile samples 0.99 in
  if Stats.beyond samples p99 < 10 then
    problem a "only %d samples beyond p99" (Stats.beyond samples p99);
  let loop_s = fsum (fun c -> float_of_int (Option.get (int_of c "loop_ns")) /. 1e9) ok in
  let setups = List.filter_map (fun c -> int_of c "setup_ns") cs in
  let first_pass = List.filteri (fun i _ -> i < W.campaigns) cs in
  let per_campaign f = fsum (fun c -> float_of_int (f c)) first_pass /. float_of_int W.campaigns in
  print_host w ~seed ~trace:0;
  Printf.printf "passes=%d runs=%d\n" !passes (List.length cs);
  print_result a
    [
      { m_name = "execs_per_s"; unit_ = "1/s"; value = float_of_int n /. loop_s;
        note = Printf.sprintf "n=%d execs over %.2f s" n loop_s };
      { m_name = "exec_p50_us"; unit_ = "us"; value = p50;
        note = Printf.sprintf "n=%d execs" n };
      { m_name = "exec_p99_us"; unit_ = "us"; value = p99;
        note = Printf.sprintf "n=%d execs, %d beyond" n (Stats.beyond samples p99) };
      { m_name = "setup_s"; unit_ = "s";
        value = median_of (fun ns -> float_of_int ns /. 1e9) setups;
        note = Printf.sprintf "median of n=%d cold Engine.create" (List.length setups) };
      { m_name = "peak_rss_mb"; unit_ = "MiB";
        value = median_of (fun c -> float_of_int (Option.get (int_of c "rss_kb")) /. 1024.) ok;
        note = Printf.sprintf "median VmHWM of n=%d runs" (List.length ok) };
      { m_name = "coverage_edges"; unit_ = "count"; value = per_campaign coverage;
        note = Printf.sprintf "mean of n=%d campaigns" W.campaigns };
      { m_name = "bugs_confirmed"; unit_ = "count"; value = per_campaign confirmed;
        note = Printf.sprintf "mean of n=%d campaigns" W.campaigns };
    ]

(* --- --trace 1: per-layer metrics --------------------------------------- *)

let traced (w : W.t) ~seed =
  let a = { attempted = 0; failed = 0; problems = [] } in
  let seeds = List.init W.campaigns (W.campaign_seed ~seed) in
  (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
  let pairs =
    List.mapi
      (fun k cs ->
        let u = spawn [ "run"; w.name; string_of_int cs ] in
        account a w (Printf.sprintf "campaign %d" cs) u;
        let spans = Printf.sprintf ".perfbench/spans-%s-%d.tsv" w.name k in
        let t = spawn [ "trace"; w.name; string_of_int cs; spans ] in
        account a w (Printf.sprintf "traced campaign %d" cs) t;
        if counts t <> counts u then
          problem a "campaign %d: traced counts differ from the untraced run" cs;
        (u, t))
      seeds
  in
  let us = List.map fst pairs and ts = List.map snd pairs in
  (* sum over the traced campaigns of the [key] lines' integer field [i]
     whose first field is [name] *)
  let field cs key name i =
    sum
      (fun c ->
        sum
          (fun v ->
            match String.split_on_char ' ' v with
            | k :: rest when k = name -> int_of_string (List.nth rest i)
            | _ -> 0)
          (all c key))
      cs
  in
  let f = float_of_int in
  let execs = f (sum (fun c -> Option.value ~default:0 (int_of c "execs")) ts) in
  let loop_ns cs = f (sum (fun c -> Option.value ~default:0 (int_of c "loop_ns")) cs) in
  let ctr name = f (field ts "ctr" name 0) in
  let span_ns name = f (field ts "span" name 1) in
  let per_exec name = ctr name /. execs in
  let us_per_exec name = span_ns name /. execs /. 1e3 in
  let setup name = median_of (fun c -> f (field [ c ] "setup" name 0) /. 1e6) ts in
  let ab_ns label = f (field ts "ab" label 0) and ab_insns label = f (field ts "ab" label 1) in
  let u_execs = f (sum (fun c -> List.length (steps c)) us) in
  let own =
    fst (List.find (fun (_, c) -> c = Replay.Embsan_cfg w.sanitizers) Traced.ab_configs)
  in
  let layer_spans =
    fsum span_ns
      [ "fuzz.mutate"; "snap.restore"; "rehost.arm"; "emu.cov_reset"; "guest.replay";
        "emu.cov_signature"; "fuzz.admit"; "fuzz.triage" ]
  in
  let share = layer_spans /. loop_ns ts in
  if share < 0.95 then problem a "trace.span_share %.4f < 0.95" share;
  let m m_name unit_ value = { m_name; unit_; value; note = "" } in
  let setup_ms name = m name "ms" and ratio name = m name "ratio" in
  let count name = m name "count" and usec name = m name "us" in
  let metrics =
    [
      setup_ms "minic.compile_ms" (setup "minic.compile");
      setup_ms "core.probe_ms" (setup "core.probe");
      setup_ms "guest.boot_ms" (setup "guest.boot");
      setup_ms "snap.capture_ms" (setup "snap.capture");
      usec "emu.cov_signature_us" (us_per_exec "emu.cov_signature");
      usec "emu.cov_reset_us" (us_per_exec "emu.cov_reset");
      count "emu.cov_pairs_per_exec" (per_exec "pairs");
      count "emu.cov_records_per_exec" (per_exec "records");
      usec "guest.replay_us" (us_per_exec "guest.replay");
      m "emu.replay_mips" "Minsn/s" (ctr "replay_insns" /. span_ns "guest.replay" *. 1e3);
      ratio "emu.chain_rate" (ctr "chain_fast" /. ctr "chain_total");
      count "emu.insns_per_exec" (per_exec "replay_insns");
      count "emu.translations_per_exec" (per_exec "translations");
      count "emu.flushes_per_exec" (per_exec "flushes");
      usec "snap.restore_us" (us_per_exec "snap.restore");
      count "snap.restores_per_exec" (per_exec "restores");
      count "snap.pages_per_restore"
        (if ctr "restores" > 0. then ctr "pages" /. ctr "restores" else 0.);
      usec "rehost.arm_us" (us_per_exec "rehost.arm");
      count "rehost.reads_per_exec" (per_exec "rehost_reads");
      count "rehost.irqs_per_exec" (per_exec "irqs");
      count "rehost.memo_sites" (per_exec "memo");
      m "core.san_overhead_x" "x" (ab_ns own /. ab_ns "none");
      usec "core.kasan_us" ((ab_ns "kasan" -. ab_ns "none") /. execs /. 1e3);
      usec "core.kcsan_us" ((ab_ns "kcsan" -. ab_ns "none") /. execs /. 1e3);
      usec "fuzz.mutate_us" (us_per_exec "fuzz.mutate");
      usec "fuzz.admit_us" (us_per_exec "fuzz.admit");
      ratio "fuzz.admit_ratio" (per_exec "admitted");
      usec "fuzz.triage_us" (us_per_exec "fuzz.triage");
      ratio "fuzz.crash_ratio" ((ctr "stops" -. ctr "hangs") /. execs);
      ratio "fuzz.hang_ratio" (per_exec "hangs");
      ratio "trace.span_share" share;
      m "trace.overhead" "x" (u_execs /. loop_ns us /. (execs /. loop_ns ts));
    ]
  in
  print_host w ~seed ~trace:1;
  Printf.printf "sanitizer A/B replays of %.0f traced execs (workload = %s):" execs own;
  List.iter
    (fun (label, _) ->
      Printf.printf " %s %.3f s %.0f insns;" label (ab_ns label /. 1e9) (ab_insns label))
    Traced.ab_configs;
  Printf.printf "\nper-layer figures over %.0f traced execs in %d campaigns\n" execs
    (List.length ts);
  print_result a metrics

(* --- command line -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       (workloads: linux-kasan-d, rehost-irq)";
  exit 2

let workload name =
  match W.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S\n" name;
      usage ()

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "run"; w; seed ] -> child_run (workload w) (int_of_string seed)
  | [ "trace"; w; seed; spans_path ] ->
      Traced.run (workload w) ~seed:(int_of_string seed) ~spans_path
  | args ->
      let rec opts acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let o = opts [] args in
      let arg k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (arg k) with Some n -> n | None -> usage () in
      let w = workload (arg "--workload") in
      let seed = int "--seed" and seconds = int "--seconds" in
      (match int "--trace" with
      | 0 -> measure w ~seed ~seconds
      | 1 -> traced w ~seed
      | _ -> usage ())
