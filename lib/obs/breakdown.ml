type phase_means = {
  n : int;
  queue : float;
  deploy : float;
  import : float;
  run : float;
  total : float;
}

type tails = { p50 : float; p90 : float; p99 : float; p999 : float }

(* Running sums and extrema live in their own all-float record: stores
   into a flat float record are unboxed, so folding an invocation
   allocates nothing. Inlined into [acc] (a mixed record) every store
   would box. *)
type sums = {
  mutable s_queue : float;
  mutable s_deploy : float;
  mutable s_import : float;
  mutable s_run : float;
  mutable s_total : float;
  mutable s_min : float;
  mutable s_max : float;
}

type acc = {
  mutable n : int;
  s : sums;
  (* Total-latency distribution, for the tail columns: 30 bins/decade
     (~8% quantile error), clamped by the extrema in [s]. *)
  hist : Stats.Histogram.t;
}

type t = {
  cold : acc;
  warm : acc;
  hot : acc;
  mutable errs : int;
}

let fresh () =
  {
    n = 0;
    s =
      {
        s_queue = 0.0;
        s_deploy = 0.0;
        s_import = 0.0;
        s_run = 0.0;
        s_total = 0.0;
        s_min = infinity;
        s_max = neg_infinity;
      };
    hist = Stats.Histogram.create ~bins_per_decade:30 ();
  }

let acc_of t = function
  | Event.Cold -> t.cold
  | Event.Warm -> t.warm
  | Event.Hot -> t.hot

(* The log subscriber: one call per emitted record, so it runs on event
   cadence and allocates nothing. *)
let fold_record t (r : Log.record) =
  match r.ev with
  | Event.Invoke_finish { path; queue; deploy; import; run; total; ok; _ } ->
      let a = acc_of t path in
      let s = a.s in
      a.n <- a.n + 1;
      s.s_queue <- s.s_queue +. queue;
      s.s_deploy <- s.s_deploy +. deploy;
      s.s_import <- s.s_import +. import;
      s.s_run <- s.s_run +. run;
      s.s_total <- s.s_total +. total;
      Stats.Histogram.add a.hist total;
      if total < s.s_min then s.s_min <- total;
      if total > s.s_max then s.s_max <- total;
      if not ok then t.errs <- t.errs + 1
  | _ -> ()

let attach log =
  let t = { cold = fresh (); warm = fresh (); hot = fresh (); errs = 0 } in
  Log.subscribe log (fold_record t);
  t

let means (a : acc) : phase_means option =
  if a.n = 0 then None
  else begin
    let n = float_of_int a.n and s = a.s in
    Some
      {
        n = a.n;
        queue = s.s_queue /. n;
        deploy = s.s_deploy /. n;
        import = s.s_import /. n;
        run = s.s_run /. n;
        total = s.s_total /. n;
      }
  end

let tails_of (a : acc) =
  if a.n = 0 then None
  else begin
    let q p =
      Float.max a.s.s_min
        (Float.min (Stats.Histogram.quantile a.hist p) a.s.s_max)
    in
    Some { p50 = q 0.5; p90 = q 0.9; p99 = q 0.99; p999 = q 0.999 }
  end

let per_path t path = means (acc_of t path)
let tails t path = tails_of (acc_of t path)

let merged_accs t =
  let merged = fresh () in
  List.iter
    (fun (a : acc) ->
      let m = merged.s and s = a.s in
      merged.n <- merged.n + a.n;
      m.s_queue <- m.s_queue +. s.s_queue;
      m.s_deploy <- m.s_deploy +. s.s_deploy;
      m.s_import <- m.s_import +. s.s_import;
      m.s_run <- m.s_run +. s.s_run;
      m.s_total <- m.s_total +. s.s_total;
      Stats.Histogram.merge merged.hist ~from:a.hist;
      if s.s_min < m.s_min then m.s_min <- s.s_min;
      if s.s_max > m.s_max then m.s_max <- s.s_max)
    [ t.cold; t.warm; t.hot ];
  merged

let overall t = means (merged_accs t)
let overall_tails t = tails_of (merged_accs t)

let errors t = t.errs
