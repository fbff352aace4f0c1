(* The benchmark's own helpers: tail percentiles with their beyond-sample
   count, span self time and the metric-name rule. *)

open Perfbench

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let s = ascending 1000 in
  Alcotest.(check (float 0.)) "p50" 500. (Stats.percentile s 0.5);
  Alcotest.(check (float 0.)) "p99" 990. (Stats.percentile s 0.99);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Stats.beyond s 990.);
  let short = ascending 999 in
  Alcotest.(check int) "nine beyond p99 of 999" 9
    (Stats.beyond short (Stats.percentile short 0.99));
  (* ties at the percentile are not beyond it *)
  let tied = Stats.sorted (Array.append (Array.make 985 1.) (Array.make 15 7.)) in
  Alcotest.(check (float 0.)) "tied p99" 7. (Stats.percentile tied 0.99);
  Alcotest.(check int) "none beyond a tied top" 0 (Stats.beyond tied 7.);
  Alcotest.(check (float 0.)) "median even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

let sp ?(parent = -1) name t0 t1 = { Stats.name; parent; exec = 0; t0; t1 }

let test_self_time () =
  let spans =
    [|
      sp "exec" 0 100;
      sp ~parent:0 "a" 10 30;
      sp ~parent:0 "b" 20 50;  (* overlaps a: counted once *)
      sp ~parent:0 "c" 90 120;  (* clipped to the parent *)
      sp ~parent:1 "a.child" 15 25;  (* grandchild: not the root's *)
      sp "other" 200 260;
    |]
  in
  Alcotest.(check (array int))
    "self times" [| 50; 10; 30; 30; 10; 60 |] (Stats.self_times spans)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Stats.valid_name n))
    [ "execs_per_s"; "emu.cov_pairs_per_exec"; "linux-kasan-d"; "1x"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Stats.valid_name n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "exec/s"; "\xc2\xb5s"; String.make 65 'a' ]

let test_json_number () =
  Alcotest.(check (option string)) "all digits" (Some "0.10000000000000001")
    (Stats.json_number 0.1);
  Alcotest.(check (option string)) "integral" (Some "3000") (Stats.json_number 3000.);
  Alcotest.(check (option string)) "nan" None (Stats.json_number Float.nan)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile and beyond count" `Quick test_percentile;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "json numbers" `Quick test_json_number;
        ] );
    ]
