(* Tests for summaries, histograms, series and renderers. *)

let check_float = Alcotest.(check (float 1e-9))

let summary_of list =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) list;
  s

let test_summary_basic () =
  let s = summary_of [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  check_float "mean" 2.5 (Stats.Summary.mean s);
  check_float "min" 1.0 (Stats.Summary.min_value s);
  check_float "max" 4.0 (Stats.Summary.max_value s);
  check_float "total" 10.0 (Stats.Summary.total s)

let test_summary_percentiles () =
  let s = summary_of (List.init 101 float_of_int) in
  check_float "p0" 0.0 (Stats.Summary.percentile s 0.0);
  check_float "p50" 50.0 (Stats.Summary.percentile s 50.0);
  check_float "p99" 99.0 (Stats.Summary.percentile s 99.0);
  check_float "p100" 100.0 (Stats.Summary.percentile s 100.0)

let test_summary_interpolation () =
  let s = summary_of [ 10.0; 20.0 ] in
  check_float "p50 interpolates" 15.0 (Stats.Summary.percentile s 50.0)

let test_summary_stddev () =
  let s = summary_of [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_float "sample stddev" (sqrt (32.0 /. 7.0)) (Stats.Summary.stddev s)

let test_summary_empty_rejected () =
  let s = Stats.Summary.create () in
  check_float "mean of empty" 0.0 (Stats.Summary.mean s);
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Summary.percentile: empty") (fun () ->
      ignore (Stats.Summary.percentile s 50.0))

let test_summary_digest () =
  let s = summary_of (List.init 1000 (fun i -> float_of_int (i + 1))) in
  let d = Stats.Summary.digest s in
  Alcotest.(check int) "n" 1000 d.Stats.Summary.n;
  check_float "median" 500.5 d.Stats.Summary.p50

let percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0.0 1000.0))
    (fun xs ->
      let s = summary_of xs in
      let ps = [ 0.0; 1.0; 25.0; 50.0; 75.0; 99.0; 100.0 ] in
      let vals = List.map (Stats.Summary.percentile s) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vals)

let percentile_within_bounds =
  QCheck.Test.make ~name:"percentiles lie within [min,max]" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 50) (float_range 0.0 1000.0))
        (float_range 0.0 100.0))
    (fun (xs, p) ->
      let s = summary_of xs in
      let v = Stats.Summary.percentile s p in
      v >= Stats.Summary.min_value s -. 1e-9
      && v <= Stats.Summary.max_value s +. 1e-9)

let mean_within_bounds =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0.0 1000.0))
    (fun xs ->
      let s = summary_of xs in
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min_value s -. 1e-9
      && m <= Stats.Summary.max_value s +. 1e-9)

let test_histogram_counts () =
  let h = Stats.Histogram.create ~lo:1e-3 ~hi:1e3 ~bins_per_decade:1 () in
  List.iter (Stats.Histogram.add h) [ 0.002; 0.005; 0.5; 100.0 ];
  Alcotest.(check int) "total" 4 (Stats.Histogram.count h);
  let nonempty =
    Stats.Histogram.fold h ~init:0 ~f:(fun acc ~lo:_ ~hi:_ ~count ->
        if count > 0 then acc + 1 else acc)
  in
  Alcotest.(check int) "three bins populated" 3 nonempty

let test_histogram_clamps () =
  let h = Stats.Histogram.create ~lo:1e-2 ~hi:1e2 ~bins_per_decade:2 () in
  Stats.Histogram.add h 1e-9;
  Stats.Histogram.add h 1e9;
  Alcotest.(check int) "below clamps to first bin" 1 (Stats.Histogram.bin_value h 0);
  Alcotest.(check int) "above clamps to last bin" 1
    (Stats.Histogram.bin_value h (Stats.Histogram.bin_count h - 1))

let histogram_preserves_count =
  QCheck.Test.make ~name:"histogram count equals samples added" ~count:100
    QCheck.(list (float_range 1e-5 1e4))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      Stats.Histogram.count h = List.length xs
      && Stats.Histogram.fold h ~init:0 ~f:(fun a ~lo:_ ~hi:_ ~count ->
             a + count)
         = List.length xs)

let test_series_basics () =
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:0.0 ~value:1.0 ~ok:true;
  Stats.Series.add s ~time:1.0 ~value:2.0 ~ok:false;
  Stats.Series.add s ~time:2.5 ~value:3.0 ~ok:true;
  Alcotest.(check int) "length" 3 (Stats.Series.length s);
  Alcotest.(check int) "failures" 1 (Stats.Series.failures s);
  let pts = Stats.Series.points s in
  check_float "insertion order preserved" 0.0 pts.(0).Stats.Series.time;
  check_float "last point" 2.5 pts.(2).Stats.Series.time

let test_tablefmt_renders () =
  let t =
    Stats.Tablefmt.create
      ~columns:[ ("Name", Stats.Tablefmt.Left); ("Value", Stats.Tablefmt.Right) ]
  in
  Stats.Tablefmt.add_row t [ "cold"; "7.5" ];
  Stats.Tablefmt.add_separator t;
  Stats.Tablefmt.add_row t [ "warm"; "3.5" ];
  let out = Stats.Tablefmt.render t in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0
    &&
    let contains needle =
      let n = String.length needle and len = String.length out in
      let rec go i = i + n <= len && (String.sub out i n = needle || go (i + 1)) in
      go 0
    in
    contains "Name" && contains "cold" && contains "7.5")

let test_tablefmt_arity_rejected () =
  let t = Stats.Tablefmt.create ~columns:[ ("A", Stats.Tablefmt.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: arity mismatch")
    (fun () -> Stats.Tablefmt.add_row t [ "1"; "2" ])

let test_asciiplot_renders () =
  let p =
    Stats.Asciiplot.create ~title:"demo" ~xlabel:"t" ~ylabel:"v"
      ~yscale:Stats.Asciiplot.Log ()
  in
  Stats.Asciiplot.add_series p ~label:"a" ~mark:'.'
    [ (0.0, 0.001); (1.0, 0.1); (2.0, 10.0) ];
  Stats.Asciiplot.add_series p ~label:"fail" ~mark:'x' [ (1.5, 5.0) ];
  let out = Stats.Asciiplot.render p in
  Alcotest.(check bool) "has marks" true
    (String.contains out '.' && String.contains out 'x')

let test_asciiplot_empty () =
  let p = Stats.Asciiplot.create ~title:"empty" ~xlabel:"x" ~ylabel:"y" () in
  let out = Stats.Asciiplot.render p in
  Alcotest.(check bool) "renders placeholder" true
    (String.length out > 0)

let test_asciiplot_log_drops_nonpositive () =
  let p =
    Stats.Asciiplot.create ~title:"log" ~xlabel:"x" ~ylabel:"y"
      ~yscale:Stats.Asciiplot.Log ()
  in
  Stats.Asciiplot.add_series p ~label:"good" ~mark:'.' [ (0.0, 1.0); (1.0, 2.0) ];
  Stats.Asciiplot.add_series p ~label:"bad" ~mark:'*' [ (0.0, 0.0); (1.0, -5.0) ];
  let out = Stats.Asciiplot.render p in
  Alcotest.(check bool) "non-positive points dropped" true
    (not (String.contains out '*'))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  let qcase = QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "summary",
        [
          case "basic" test_summary_basic;
          case "percentiles" test_summary_percentiles;
          case "interpolation" test_summary_interpolation;
          case "stddev" test_summary_stddev;
          case "empty rejected" test_summary_empty_rejected;
          case "digest" test_summary_digest;
          qcase percentile_monotone;
          qcase percentile_within_bounds;
          qcase mean_within_bounds;
        ] );
      ( "histogram",
        [
          case "counts" test_histogram_counts;
          case "clamps" test_histogram_clamps;
          qcase histogram_preserves_count;
        ] );
      ( "series",
        [
          case "basics" test_series_basics;
        ] );
      ( "render",
        [
          case "tablefmt" test_tablefmt_renders;
          case "tablefmt arity" test_tablefmt_arity_rejected;
          case "asciiplot" test_asciiplot_renders;
          case "asciiplot empty" test_asciiplot_empty;
          case "asciiplot log filter" test_asciiplot_log_drops_nonpositive;
        ] );
    ]
