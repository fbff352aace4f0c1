(* Snapshot-service bench: writes BENCH_snap.json (schema in README.md).

   Restore latency vs dirty-page count: a 4 MiB machine is checkpointed
   once; each sample touches N pages and restores, demonstrating the
   O(touched) claim: latency must scale with N, not with RAM size, and
   every restore must revert exactly the pages touched. *)

open Embsan_emu
module Snap = Embsan_snap.Snap

let min_bench_secs = 0.3
let latency_ram_size = 4 * 1024 * 1024 (* 1024 pages *)

type latency_sample = {
  l_dirty_pages : int;
  l_restores : int;
  l_mean_usecs : float;
}

let restore_latency touched =
  let m =
    Machine.create ~harts:1 ~ram_base:0x1_0000 ~ram_size:latency_ram_size
      ~arch:Embsan_isa.Arch.Arm_ev ()
  in
  let snap = Snap.capture m in
  let base = Machine.ram_base m in
  let touch () =
    for p = 0 to touched - 1 do
      Machine.write_mem m
        ~addr:(base + (p * Ram.page_size) + (p mod 64 * 4))
        ~width:4 ~value:(0xA5000000 lor p)
    done
  in
  (* measure the restore alone: dirty outside the timed window *)
  let restores = ref 0 and secs = ref 0.0 in
  while !secs < min_bench_secs do
    touch ();
    let t0 = Unix.gettimeofday () in
    let reverted = Snap.restore snap in
    secs := !secs +. (Unix.gettimeofday () -. t0);
    incr restores;
    assert (reverted = touched)
  done;
  {
    l_dirty_pages = touched;
    l_restores = !restores;
    l_mean_usecs = 1e6 *. !secs /. float_of_int !restores;
  }

let latency_json s =
  Printf.sprintf
    {|{ "dirty_pages": %d, "restores": %d, "mean_restore_usecs": %.2f }|}
    s.l_dirty_pages s.l_restores s.l_mean_usecs

(* --- driver ----------------------------------------------------------------- *)

let run () =
  Fmt.pr "@.Snapshot service (host wall clock)@.";
  let counts = [ 1; 4; 16; 64; 256; 1024 ] in
  let latencies = List.map restore_latency counts in
  List.iter
    (fun s ->
      Fmt.pr "  restore %4d dirty pages: %8.2f us  (%d restores)@."
        s.l_dirty_pages s.l_mean_usecs s.l_restores)
    latencies;
  let json =
    Printf.sprintf
      {|{
  "schema": "embsan-snap-bench/2",
  "restore_latency": {
    "ram_bytes": %d,
    "page_bytes": %d,
    "samples": [
    %s
    ]
  }
}
|}
      latency_ram_size Ram.page_size
      (String.concat ",\n    " (List.map latency_json latencies))
  in
  let oc = open_out "BENCH_snap.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "  wrote BENCH_snap.json@."
