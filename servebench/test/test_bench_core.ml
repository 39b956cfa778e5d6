(* The benchmark's own arithmetic: percentiles and quartiles, compare
   verdicts on synthetic runs, and the JSON it reads back. *)

open Bench_core

let close = Alcotest.float 1e-9

let quartiles_match_python () =
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  List.iter
    (fun (xs, (a, b, c)) ->
      let q1, q2, q3 = Stats.quartiles xs in
      Alcotest.check close "q1" a q1;
      Alcotest.check close "q2" b q2;
      Alcotest.check close "q3" c q3)
    [
      (List.init 10 (fun i -> float_of_int (i + 1)), (2.75, 5.5, 8.25));
      ([ 3.; 1.; 2. ], (1., 2., 3.));
      ([ 5.; 1.5; 9.25; 2.; 7.5; 3. ], (1.875, 4., 7.9375));
      ([ 10.; 20. ], (7.5, 15., 22.5));
    ]

let percentiles () =
  let xs = [ 4.; 1.; 3.; 2. ] in
  Alcotest.check close "p0" 1. (Stats.percentile 0. xs);
  Alcotest.check close "p50" 2.5 (Stats.median xs);
  Alcotest.check close "p90" 3.7 (Stats.percentile 90. xs);
  Alcotest.check close "p100" 4. (Stats.percentile 100. xs);
  Alcotest.check close "one sample" 7. (Stats.percentile 99. [ 7. ]);
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

(* --- verdicts -------------------------------------------------------- *)

let latency = { Verdict.name = "p50_ms"; better = Lower; bound = 0.10 }
let throughput = { Verdict.name = "stmt_per_s"; better = Higher; bound = 0.10 }
let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.2 ]
let scaled k = List.map (fun x -> x *. k) base

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.verdict_name v))
    (fun a b ->
      match (a, b) with
      | Verdict.Unresolved _, Verdict.Unresolved _ -> true
      | a, b -> a = b)

let verdicts () =
  let judge m o n = Verdict.judge m ~old_:o ~new_:n in
  Alcotest.check verdict "same runs" Within_noise (judge latency base base);
  Alcotest.check verdict "5% slower" Within_noise (judge latency base (scaled 1.05));
  Alcotest.check verdict "20% slower latency" Slower (judge latency base (scaled 1.2));
  Alcotest.check verdict "20% lower throughput" Slower (judge throughput base (scaled 0.8));
  Alcotest.check verdict "20% faster latency" Faster (judge latency base (scaled 0.8));
  Alcotest.check verdict "fewer than five runs" (Unresolved "")
    (judge latency [ 1.; 1.; 1.; 1. ] [ 1.; 1.; 1.; 1. ]);
  let wide = [ 70.; 130.; 100.; 85.; 115.; 100. ] in
  Alcotest.check verdict "spread wider than the bound" (Unresolved "")
    (judge latency base wide);
  Alcotest.check verdict "wide but every new run better" Faster
    (judge latency wide (List.map (fun x -> x /. 3.) wide))

let record ?(failed = 0) workload metrics =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Num 1000.);
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str "ms") ]))
             metrics) );
    ]

let runs ?failed k = List.map (fun v -> record ?failed "point_reads" [ ("p50_ms", v *. k) ]) base

let planted_regression () =
  let metrics = [ latency ] in
  let rows, _, regressed = Verdict.compare_runs metrics ~old_:(runs 1.) ~new_:(runs 1.) in
  Alcotest.(check bool) "identical sets pass" false regressed;
  Alcotest.check verdict "identical sets are within noise" Within_noise (List.hd rows).verdict;
  let rows, _, regressed = Verdict.compare_runs metrics ~old_:(runs 1.) ~new_:(runs 1.2) in
  Alcotest.(check bool) "a planted 20% regression fails compare" true regressed;
  Alcotest.check verdict "and is reported slower" Slower (List.hd rows).verdict;
  let _, errors, regressed =
    Verdict.compare_runs metrics ~old_:(runs 1.) ~new_:(runs ~failed:3 1.)
  in
  Alcotest.(check bool) "a higher error rate fails compare" true regressed;
  Alcotest.(check bool) "error rate counted" true ((List.hd errors).new_rate > 0.)

let bounds_from_benchmark () =
  let json =
    Json.of_string
      {|{"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                        {"name": "stmt_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}|}
  in
  Alcotest.(check (list string))
    "names" [ "p50_ms"; "stmt_per_s" ]
    (List.map (fun (m : Verdict.metric) -> m.name) (Verdict.metrics_of_benchmark json));
  Alcotest.(check bool)
    "direction" true
    ((List.nth (Verdict.metrics_of_benchmark json) 1).better = Higher)

(* --- JSON ------------------------------------------------------------ *)

let json_round_trip () =
  let v =
    Json.Obj
      [
        ("correct", Json.Bool true);
        ("attempted", Json.Num 1000.);
        ("null", Json.Null);
        ("text", Json.Str "quote \" backslash \\ newline \n tab \t");
        ( "values",
          Json.Arr
            (List.map (fun f -> Json.Num f) [ 0.1; 1.2034; 1e-7; 12345.678; -3.5; 0.1 +. 0.2 ]) );
        ("empty", Json.Obj []);
        ("nested", Json.Arr [ Json.Arr []; Json.Obj [ ("k", Json.Num 2.) ] ]);
      ]
  in
  Alcotest.(check bool) "parse (print v) = v" true (Json.of_string (Json.to_string v) = v);
  let registry =
    {|{"metrics": [{"name": "dc_wal_group_size", "labels": {}, "type": "histogram",
        "count": 4, "sum": 6, "buckets": [{"le": 0.1, "count": 0}, {"le": "+Inf", "count": 4}]}]}|}
  in
  let m = List.hd (Json.to_list (Json.member "metrics" (Json.of_string registry))) in
  Alcotest.(check (option (float 0.)))
    "histogram sum" (Some 6.)
    (Json.to_num (Json.member "sum" m));
  Alcotest.check_raises "trailing bytes" (Json.Parse_error "trailing bytes at byte 3")
    (fun () -> ignore (Json.of_string "{} x"))

let () =
  Alcotest.run "bench_core"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match Python" `Quick quartiles_match_python;
          Alcotest.test_case "percentiles and spread" `Quick percentiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts on synthetic runs" `Quick verdicts;
          Alcotest.test_case "planted regression exits non-zero" `Quick planted_regression;
          Alcotest.test_case "bounds from BENCHMARK.json" `Quick bounds_from_benchmark;
        ] );
      ("json", [ Alcotest.test_case "round trip" `Quick json_round_trip ]);
    ]
