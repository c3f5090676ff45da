(* Tests for the discrete-event simulation kernel. *)

let check_float = Alcotest.(check (float 1e-9))

let run_sim f =
  let engine = Sim.Engine.create () in
  f engine;
  Sim.Engine.run engine;
  engine

(* {1 Heap}

   The engine's event heap: callbacks fire in time order, ties in push
   order. *)

(* The order in which callbacks scheduled at [delays] fire, as indices
   into [delays]. *)
let fire_order delays =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  List.iteri
    (fun i d ->
      Sim.Engine.schedule engine ~delay:(float_of_int d) (fun () ->
          fired := i :: !fired))
    delays;
  Sim.Engine.run engine;
  List.rev !fired

let test_heap_ordering () =
  Alcotest.(check (list int)) "sorted, ties in push order"
    [ 6; 3; 1; 5; 0; 4; 2 ]
    (fire_order [ 5; 3; 9; 1; 7; 3; 0 ])

let test_heap_empty () =
  let engine = Sim.Engine.create () in
  Alcotest.(check int) "nothing pending" 0 (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  let perf = Sim.Engine.perf engine in
  Alcotest.(check (pair int int)) "nothing scheduled or dispatched" (0, 0)
    (perf.Sim.Engine.scheduled, perf.Sim.Engine.dispatched);
  check_float "clock unmoved" 0.0 (Sim.Engine.now engine)

(* Up to 1,000 events, so the heap also grows past its initial 256
   slots. *)
let heap_sorts_like_list =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list_of_size Gen.(0 -- 1000) small_int)
    (fun xs ->
      let expected =
        List.mapi (fun i x -> (x, i)) xs
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      fire_order xs = expected)

(* {1 Prng} *)

let test_prng_deterministic () =
  let a = Sim.Prng.create 42L and b = Sim.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.next a) (Sim.Prng.next b)
  done

(* splitmix64's reference outputs (Steele, Lea & Flood): the stream is
   a contract, since every seeded trace and experiment derives from it. *)
let test_prng_known_answers () =
  let stream seed k =
    let r = Sim.Prng.create seed in
    List.init k (fun _ -> Printf.sprintf "%016Lx" (Sim.Prng.next r))
  in
  Alcotest.(check (list string)) "seed 0"
    [ "e220a8397b1dcdaf"; "6e789e6aa1b965f4"; "06c45d188009454f" ]
    (stream 0L 3);
  Alcotest.(check (list string)) "seed 1234567"
    [ "599ed017fb08fc85"; "2c73f08458540fa5" ]
    (stream 1234567L 2)

(* The generator's state is unboxed, so a draw allocates nothing of its
   own: [bits53], [int] and [shuffle] inline [next] within the unit and
   return immediates, 0 words each. A draw that returns an [int64] or a
   [float] to another compilation unit boxes that result (3 or 2 words)
   where the build compiles units opaquely, as dune's dev profile does,
   since [@inline] cannot cross the unit boundary there; under a release
   build both are inlined and take 0 words too. Which build this is
   reads off [next], and [float] must match it exactly. *)
let test_prng_draws_allocate_nothing () =
  let r = Sim.Prng.create 3L in
  let words draw =
    let w0 = Gc.minor_words () in
    for _ = 1 to 1_000 do
      draw ()
    done;
    Gc.minor_words () -. w0
  in
  let zeros = ref 0 in
  let next =
    words (fun () -> if Int64.equal (Sim.Prng.next r) 0L then incr zeros)
  in
  if next <> 0.0 && next <> 3000.0 then
    Alcotest.failf "next: %.0f minor words across 1000 draws" next;
  let boxed = next > 0.0 in
  Alcotest.(check (float 0.0)) "float"
    (if boxed then 2000.0 else 0.0)
    (words (fun () -> if Sim.Prng.float r = 0.0 then incr zeros));
  Alcotest.(check (float 0.0)) "bits53" 0.0
    (words (fun () -> zeros := !zeros + Sim.Prng.bits53 r));
  Alcotest.(check (float 0.0)) "int" 0.0
    (words (fun () -> zeros := !zeros + Sim.Prng.int r 7));
  let a = Array.init 1_000 Fun.id in
  let w0 = Gc.minor_words () in
  Sim.Prng.shuffle r a;
  Alcotest.(check (float 0.0)) "shuffle of 1000" 0.0 (Gc.minor_words () -. w0);
  ignore (Sys.opaque_identity !zeros)

let test_prng_split_independent () =
  let a = Sim.Prng.create 42L in
  let c = Sim.Prng.split a in
  Alcotest.(check bool) "derived stream differs" true
    (Sim.Prng.next a <> Sim.Prng.next c)

let prng_float_in_range =
  QCheck.Test.make ~name:"float draws lie in [0,1)" ~count:100
    QCheck.(int64)
    (fun seed ->
      let r = Sim.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let f = Sim.Prng.float r in
        if not (f >= 0.0 && f < 1.0) then ok := false
      done;
      !ok)

let prng_int_in_bound =
  QCheck.Test.make ~name:"int draws lie in [0,bound)" ~count:100
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Sim.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Sim.Prng.int r bound in
        if not (v >= 0 && v < bound) then ok := false
      done;
      !ok)

let test_prng_shuffle_permutation () =
  let r = Sim.Prng.create 7L in
  let a = Array.init 100 Fun.id in
  Sim.Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

(* {1 Engine} *)

let test_engine_time_advances () =
  let log = ref [] in
  let engine =
    run_sim (fun e ->
        Sim.Engine.spawn e (fun () ->
            Sim.Engine.sleep 1.5;
            log := (Sim.Engine.now e, "a") :: !log;
            Sim.Engine.sleep 0.5;
            log := (Sim.Engine.now e, "b") :: !log))
  in
  check_float "final clock" 2.0 (Sim.Engine.now engine);
  Alcotest.(check (list string)) "order" [ "a"; "b" ]
    (List.rev_map snd !log)

let test_engine_fifo_at_same_time () =
  let log = ref [] in
  ignore
    (run_sim (fun e ->
         for i = 1 to 5 do
           Sim.Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
         done));
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_interleaving () =
  let log = ref [] in
  ignore
    (run_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             Sim.Engine.sleep 1.0;
             log := "slow" :: !log);
         Sim.Engine.spawn e (fun () ->
             Sim.Engine.sleep 0.25;
             log := "fast" :: !log)));
  Alcotest.(check (list string)) "ordering by time" [ "fast"; "slow" ]
    (List.rev !log)

let test_engine_until () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  for _ = 1 to 10 do
    Sim.Engine.schedule engine ~delay:1.0 (fun () -> incr fired)
  done;
  Sim.Engine.schedule engine ~delay:5.0 (fun () -> incr fired);
  Sim.Engine.run ~until:2.0 engine;
  Alcotest.(check int) "only events before the limit" 10 !fired;
  check_float "clock stops at limit" 2.0 (Sim.Engine.now engine)

let test_engine_negative_delay_rejected () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: delay must be finite and non-negative")
    (fun () -> Sim.Engine.schedule engine ~delay:(-1.0) (fun () -> ()))

(* A bad sleep delay fails the run in the process that asked for it:
   [Process_failure] names that process, also after a suspension.
   Raised from the effect handler, it used to abort the run unnamed. *)
let test_engine_bad_sleep () =
  List.iter
    (fun (name, delay) ->
      let engine = Sim.Engine.create () in
      let went_on = ref false in
      Sim.Engine.spawn engine ~name (fun () ->
          Sim.Engine.sleep 1.0;
          Sim.Engine.sleep delay;
          went_on := true);
      (match Sim.Engine.run engine with
      | () -> Alcotest.failf "%s: the run returned" name
      | exception Sim.Engine.Process_failure (failed, Invalid_argument msg) ->
          Alcotest.(check string) "names the sleeper" name failed;
          Alcotest.(check string) "with the sleep's own message"
            "Engine.sleep: delay must be finite and non-negative" msg
      | exception e -> Alcotest.failf "%s: %s" name (Printexc.to_string e));
      Alcotest.(check bool) (name ^ " did not go on") false !went_on)
    [ ("negative", -1.0); ("nan", Float.nan); ("infinite", Float.infinity) ]

let test_engine_process_failure () =
  let engine = Sim.Engine.create () in
  Sim.Engine.spawn engine ~name:"boom" (fun () -> failwith "bad");
  (match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Sim.Engine.Process_failure ("boom", _) -> ()
  | exception e -> raise e);
  (* The engine must be reusable after a failed run. *)
  Sim.Engine.spawn engine (fun () -> Sim.Engine.sleep 1.0);
  Sim.Engine.run engine

let test_engine_nested_spawn () =
  let count = ref 0 in
  ignore
    (run_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             Sim.Engine.sleep 1.0;
             Sim.Engine.spawn e (fun () ->
                 Sim.Engine.sleep 1.0;
                 incr count);
             incr count)));
  Alcotest.(check int) "both ran" 2 !count

(* Property: identical seeds and workloads give identical traces. *)
let engine_deterministic =
  QCheck.Test.make ~name:"same seed gives identical execution" ~count:50
    QCheck.(pair int64 (list (int_range 1 100)))
    (fun (seed, delays) ->
      let trace () =
        let e = Sim.Engine.create ~seed () in
        let log = ref [] in
        List.iteri
          (fun i d ->
            Sim.Engine.spawn e (fun () ->
                Sim.Engine.sleep (float_of_int d /. 17.0);
                let r = Sim.Prng.int (Sim.Engine.rng e) 1000 in
                Sim.Engine.sleep (float_of_int r /. 100.0);
                log := (i, Sim.Engine.now e) :: !log))
          delays;
        Sim.Engine.run e;
        (!log, Sim.Engine.now e, (Sim.Engine.perf e).Sim.Engine.dispatched)
      in
      trace () = trace ())

(* {1 Cancellable timers} *)

let test_timer_cancelled_never_fires () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  let a =
    Sim.Engine.schedule_timer engine ~delay:1.0 (fun () ->
        fired := "a" :: !fired)
  in
  Sim.Engine.schedule engine ~delay:2.0 (fun () -> fired := "b" :: !fired);
  Alcotest.(check int) "both queued" 2 (Sim.Engine.pending engine);
  Sim.Engine.cancel engine a;
  Alcotest.(check int) "pending drops" 1 (Sim.Engine.pending engine);
  Sim.Engine.cancel engine a;
  Alcotest.(check int) "a second cancel is a no-op" 1
    (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "only b fired" [ "b" ] !fired;
  let perf = Sim.Engine.perf engine in
  Alcotest.(check int) "scheduled counts the timer" 2 perf.Sim.Engine.scheduled;
  Alcotest.(check int) "dispatched does not" 1 perf.Sim.Engine.dispatched;
  check_float "clock ends at b" 2.0 (Sim.Engine.now engine)

let test_timer_cancel_after_fire () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  let a =
    Sim.Engine.schedule_timer engine ~delay:1.0 (fun () ->
        fired := "a" :: !fired)
  in
  Sim.Engine.schedule engine ~delay:1.5 (fun () ->
      Sim.Engine.cancel engine a;
      Alcotest.(check int) "c still queued" 1 (Sim.Engine.pending engine));
  Sim.Engine.schedule engine ~delay:2.0 (fun () -> fired := "c" :: !fired);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "a fired, c kept" [ "c"; "a" ] !fired

(* Free arena slots are a stack, so the event queued right after [a]
   fires takes [a]'s slot: the stale handle must not reach it. *)
let test_timer_cancel_reused_slot () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  let a =
    Sim.Engine.schedule_timer engine ~delay:1.0 (fun () ->
        fired := "a" :: !fired)
  in
  Sim.Engine.run engine;
  let b =
    Sim.Engine.schedule_timer engine ~delay:1.0 (fun () ->
        fired := "b" :: !fired)
  in
  Sim.Engine.cancel engine a;
  Alcotest.(check int) "b still queued" 1 (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "b fired" [ "b"; "a" ] !fired;
  Sim.Engine.cancel engine b;
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending engine)

(* Random schedule / cancel / partial-run sequences against a sorted
   list: the engine fires exactly the live events, in (time, push
   order) order, and [pending] counts exactly the live ones. Cancels
   pick from every handle ever made, so they also hit fired, cancelled
   and slot-reused timers. Quarter-second delays make ties common. *)
let timers_match_sorted_reference =
  QCheck.Test.make ~name:"random ops match a sorted list"
    ~count:200 QCheck.int64 (fun seed ->
      let rng = Sim.Prng.create seed in
      let engine = Sim.Engine.create () in
      let fired = ref [] and expected = ref [] in
      let live = ref [] and handles = ref [||] in
      let quarters n = float_of_int (Sim.Prng.int rng n) *. 0.25 in
      let expect events =
        List.iter
          (fun (_, id) -> expected := id :: !expected)
          (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events)
      in
      let ok = ref true in
      for _ = 1 to 300 do
        (match Sim.Prng.int rng 4 with
        | 0 | 1 ->
            let id = Array.length !handles in
            let delay = quarters 8 in
            let tm =
              Sim.Engine.schedule_timer engine ~delay (fun () ->
                  fired := id :: !fired)
            in
            handles := Array.append !handles [| tm |];
            live := !live @ [ (Sim.Engine.now engine +. delay, id) ]
        | 2 ->
            let n = Array.length !handles in
            if n > 0 then begin
              let id = Sim.Prng.int rng n in
              Sim.Engine.cancel engine !handles.(id);
              live := List.filter (fun (_, i) -> i <> id) !live
            end
        | _ ->
            let until = Sim.Engine.now engine +. quarters 4 in
            let due, rest = List.partition (fun (t, _) -> t <= until) !live in
            expect due;
            live := rest;
            Sim.Engine.run ~until engine);
        if Sim.Engine.pending engine <> List.length !live then ok := false
      done;
      expect !live;
      Sim.Engine.run engine;
      !ok && List.rev !fired = List.rev !expected
      && Sim.Engine.pending engine = 0)

(* {1 In-place resume} *)

(* A sleep due at the heap root's time still parks (the queued event
   came first); one due strictly earlier resumes in place, ahead of
   it. *)
let test_inplace_fifo_tie () =
  let log = ref [] in
  ignore
    (run_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             Sim.Engine.schedule e ~delay:1.0 (fun () ->
                 log := "callback" :: !log);
             Sim.Engine.sleep 1.0;
             log := "process" :: !log;
             Sim.Engine.schedule e ~delay:1.0 (fun () -> log := "late" :: !log);
             Sim.Engine.sleep 0.5;
             log := "early" :: !log)));
  Alcotest.(check (list string)) "fifo at the tie, in place before it"
    [ "callback"; "process"; "early"; "late" ]
    (List.rev !log)

let test_inplace_stops_at_until () =
  let engine = Sim.Engine.create () in
  let wakes = ref 0 in
  Sim.Engine.spawn engine (fun () ->
      for _ = 1 to 5 do
        Sim.Engine.sleep 1.0;
        incr wakes
      done);
  Sim.Engine.run ~until:2.5 engine;
  Alcotest.(check int) "woken twice before the cut" 2 !wakes;
  check_float "clock at the cut" 2.5 (Sim.Engine.now engine);
  Alcotest.(check int) "the third wakeup is queued" 1
    (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check int) "all wakeups" 5 !wakes;
  check_float "final clock" 5.0 (Sim.Engine.now engine)

(* The tie shuffler turns in-place resume off, and on a program with no
   same-time events it changes nothing else: both engines must end with
   the same log, clock and perf counters. *)
let test_inplace_perf_matches_slow_path () =
  let same_as_slow_path name ~dispatched ~max_heap program =
    let outcome e =
      let log = ref [] in
      program e (fun tag -> log := (Sim.Engine.now e, tag) :: !log);
      Sim.Engine.run e;
      (List.rev !log, Sim.Engine.now e, Sim.Engine.perf e)
    in
    let log, clock, fast = outcome (Sim.Engine.create ()) in
    let log', clock', slow = outcome (Sim.Engine.create ~tie_seed:5L ()) in
    let counts (p : Sim.Engine.perf) = [ p.dispatched; p.scheduled; p.max_heap ] in
    let where what = name ^ ": " ^ what in
    Alcotest.(check (list (pair (float 0.0) string))) (where "same log") log' log;
    Alcotest.(check (float 0.0)) (where "same clock") clock' clock;
    Alcotest.(check (list int)) (where "same dispatched, scheduled, max heap")
      (counts slow) (counts fast);
    Alcotest.(check (pair int int)) (where "dispatched, max heap")
      (dispatched, max_heap)
      (fast.dispatched, fast.max_heap)
  in
  same_as_slow_path "two processes" ~dispatched:13 ~max_heap:3 (fun e note ->
      Sim.Engine.schedule e ~delay:10.0 (fun () -> note "callback");
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.spawn e (fun () ->
              for _ = 1 to 6 do
                Sim.Engine.sleep 0.625;
                note "child"
              done);
          for _ = 1 to 4 do
            Sim.Engine.sleep 1.0;
            note "parent"
          done));
  (* Only the in-place sleep's skipped push reaches two queued events. *)
  same_as_slow_path "high-water set by a sleep" ~dispatched:3 ~max_heap:2
    (fun e note ->
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.schedule e ~delay:10.0 (fun () -> note "callback");
          Sim.Engine.sleep 1.0;
          note "process"))

(* With nothing else queued, every sleep resumes in place — no effect,
   no continuation, not a word allocated. Under the tie shuffler every
   sleep still parks (each push draws a tie priority). *)
let test_inplace_sleep_allocates_nothing () =
  let words engine =
    let words = ref (-1.0) in
    Sim.Engine.spawn engine (fun () ->
        let w0 = Gc.minor_words () in
        for _ = 1 to 1_000 do
          Sim.Engine.sleep 0.5
        done;
        words := Gc.minor_words () -. w0);
    Sim.Engine.run engine;
    !words
  in
  Alcotest.(check (float 0.0)) "minor words across 1000 sleeps" 0.0
    (words (Sim.Engine.create ()));
  Alcotest.(check bool) "the shuffled engine parks" true
    (words (Sim.Engine.create ~tie_seed:5L ()) > 0.0)

(* A plain callback is no process: [sleep] there must still raise, also
   when the queue is empty and a key set in the callback gave it a
   process record (pid 0). *)
let test_sleep_in_callback_unhandled () =
  let raises setup =
    let engine = Sim.Engine.create () in
    Sim.Engine.schedule engine ~delay:0.0 (fun () ->
        setup engine;
        Sim.Engine.sleep 1.0);
    match Sim.Engine.run engine with
    | () -> false
    | exception Effect.Unhandled _ -> true
  in
  Alcotest.(check bool) "bare callback" true (raises ignore);
  let k = Sim.Engine.new_key () in
  Alcotest.(check bool) "callback holding a key" true
    (raises (fun e -> Sim.Engine.set e k (Some 1)))

(* {1 Ivar} *)

let test_ivar_fill_then_read () =
  let result = ref 0 in
  ignore
    (run_sim (fun e ->
         let iv = Sim.Ivar.create () in
         Sim.Ivar.fill iv 42;
         Sim.Engine.spawn e (fun () -> result := Sim.Ivar.read iv)));
  Alcotest.(check int) "read" 42 !result

let test_ivar_read_blocks () =
  let result = ref (0, 0.0) in
  ignore
    (run_sim (fun e ->
         let iv = Sim.Ivar.create () in
         Sim.Engine.spawn e (fun () ->
             let v = Sim.Ivar.read iv in
             result := (v, Sim.Engine.now e));
         Sim.Engine.spawn e (fun () ->
             Sim.Engine.sleep 3.0;
             Sim.Ivar.fill iv 7)));
  Alcotest.(check int) "value" 7 (fst !result);
  check_float "woke at fill time" 3.0 (snd !result)

let test_ivar_double_fill_rejected () =
  let iv = Sim.Ivar.create () in
  ignore
    (run_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             Sim.Ivar.fill iv 1;
             Alcotest.(check bool) "try_fill fails" false (Sim.Ivar.try_fill iv 2))));
  Alcotest.(check int) "kept first" 1 (Sim.Ivar.read iv)

let test_ivar_many_waiters () =
  let woken = ref [] in
  ignore
    (run_sim (fun e ->
         let iv = Sim.Ivar.create () in
         for i = 1 to 4 do
           Sim.Engine.spawn e (fun () ->
               let v = Sim.Ivar.read iv in
               woken := (i, v) :: !woken)
         done;
         Sim.Engine.spawn e (fun () ->
             Sim.Engine.sleep 1.0;
             Sim.Ivar.fill iv 9)));
  Alcotest.(check (list (pair int int)))
    "all woken in fifo order"
    [ (1, 9); (2, 9); (3, 9); (4, 9) ]
    (List.rev !woken)

(* {1 Semaphore} *)

let test_semaphore_limits_concurrency () =
  let active = ref 0 and peak = ref 0 in
  ignore
    (run_sim (fun e ->
         let sem = Sim.Semaphore.create 2 in
         for _ = 1 to 6 do
           Sim.Engine.spawn e (fun () ->
               Sim.Semaphore.with_permit sem (fun () ->
                   incr active;
                   if !active > !peak then peak := !active;
                   Sim.Engine.sleep 1.0;
                   decr active))
         done));
  Alcotest.(check int) "peak parallelism" 2 !peak

let test_semaphore_fifo_handoff () =
  let order = ref [] in
  ignore
    (run_sim (fun e ->
         let sem = Sim.Semaphore.create 1 in
         for i = 1 to 3 do
           Sim.Engine.spawn e (fun () ->
               Sim.Semaphore.with_permit sem (fun () ->
                   order := i :: !order;
                   Sim.Engine.sleep 1.0))
         done));
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !order)

let test_semaphore_over_release_rejected () =
  let sem = Sim.Semaphore.create 1 in
  Alcotest.check_raises "over release"
    (Invalid_argument "Semaphore.release: released above capacity")
    (fun () -> Sim.Semaphore.release sem)

let test_semaphore_counters () =
  ignore
    (run_sim (fun e ->
         let sem = Sim.Semaphore.create 3 in
         Sim.Engine.spawn e (fun () ->
             Sim.Semaphore.acquire sem;
             Sim.Semaphore.acquire sem;
             Alcotest.(check int) "available" 1 (Sim.Semaphore.available sem);
             Alcotest.(check int) "in_use" 2 (Sim.Semaphore.in_use sem);
             Sim.Semaphore.release sem;
             Sim.Semaphore.release sem;
             Alcotest.(check int) "back to full" 3 (Sim.Semaphore.available sem))))

(* {1 Channel} *)

let test_channel_send_recv () =
  let got = ref [] in
  ignore
    (run_sim (fun e ->
         let ch = Sim.Channel.create () in
         Sim.Engine.spawn e (fun () ->
             for _ = 1 to 3 do
               got := Sim.Channel.recv ch :: !got
             done);
         Sim.Engine.spawn e (fun () ->
             Sim.Engine.sleep 1.0;
             Sim.Channel.send ch "x";
             Sim.Channel.send ch "y";
             Sim.Engine.sleep 1.0;
             Sim.Channel.send ch "z")));
  Alcotest.(check (list string)) "fifo items" [ "x"; "y"; "z" ] (List.rev !got)

let test_channel_multiple_consumers () =
  (* Work-queue usage: each item is consumed exactly once. *)
  let seen = Hashtbl.create 16 in
  ignore
    (run_sim (fun e ->
         let ch = Sim.Channel.create () in
         for w = 1 to 4 do
           Sim.Engine.spawn e (fun () ->
               let rec loop () =
                 match Sim.Channel.recv_timeout ch ~timeout:10.0 with
                 | None -> ()
                 | Some item ->
                     Alcotest.(check bool)
                       "not seen before" false (Hashtbl.mem seen item);
                     Hashtbl.replace seen item w;
                     Sim.Engine.sleep 0.5;
                     loop ()
               in
               loop ())
         done;
         Sim.Engine.spawn e (fun () ->
             for i = 1 to 20 do
               Sim.Channel.send ch i;
               Sim.Engine.sleep 0.1
             done)));
  Alcotest.(check int) "all items consumed once" 20 (Hashtbl.length seen)

let test_channel_recv_timeout () =
  let got = ref (Some 5) in
  ignore
    (run_sim (fun e ->
         let ch = Sim.Channel.create () in
         Sim.Engine.spawn e (fun () ->
             got := Sim.Channel.recv_timeout ch ~timeout:1.0;
             check_float "woke at deadline" 1.0 (Sim.Engine.now e))));
  Alcotest.(check (option int)) "timed out" None !got

(* The item cancels the 60 s timer: the run ends when it is read. *)
let test_channel_recv_timeout_timer_cancelled () =
  let got = ref None in
  let engine =
    run_sim (fun e ->
        let ch = Sim.Channel.create () in
        Sim.Engine.spawn e (fun () ->
            got := Sim.Channel.recv_timeout ch ~timeout:60.0);
        Sim.Engine.schedule e ~delay:1.0 (fun () -> Sim.Channel.send ch 8))
  in
  Alcotest.(check (option int)) "received" (Some 8) !got;
  check_float "run ends at the send" 1.0 (Sim.Engine.now engine)

(* An item sent at the very instant of a reader's deadline. Sent
   before the deadline event fires, it wakes the reader and cancels the
   deadline; sent after it fires but before the reader resumes, the
   wake passes over the timed-out reader, which then takes the item
   itself. Sent after the reader has resumed empty-handed, it waits for
   the next receive. Each reader resumes exactly once. *)
let test_channel_item_at_deadline () =
  let at_deadline ~order ~events =
    let engine = Sim.Engine.create () in
    let ch = Sim.Channel.create () in
    let resumed = ref 0 and first = ref None and next = ref None in
    let send () = Sim.Channel.send ch 7 in
    (* Queued before the reader's deadline event, at the same time. *)
    if order = `Item_first then Sim.Engine.schedule engine ~delay:1.0 send;
    Sim.Engine.spawn engine (fun () ->
        first := Sim.Channel.recv_timeout ch ~timeout:1.0;
        incr resumed;
        if Option.is_none !first then next := Some (Sim.Channel.recv ch));
    (* Spawned after the reader parks, so queued after its deadline. *)
    let after_deadline f =
      Sim.Engine.spawn engine (fun () -> Sim.Engine.schedule engine ~delay:1.0 f)
    in
    (match order with
    | `Item_first -> ()
    | `Deadline_first -> after_deadline send
    | `Reader_first ->
        (* Queued behind the resume the deadline pushed. *)
        after_deadline (fun () -> Sim.Engine.schedule engine ~delay:0.0 send));
    Sim.Engine.run engine;
    check_float "ends at the deadline" 1.0 (Sim.Engine.now engine);
    Alcotest.(check int) "resumed once" 1 !resumed;
    Alcotest.(check int) "nobody parked" 0 (Sim.Engine.stuck_waiters engine);
    Alcotest.(check int) "events dispatched" events
      (Sim.Engine.perf engine).Sim.Engine.dispatched;
    (!first, !next)
  in
  let got = Alcotest.(pair (option int) (option int)) in
  (* The spawn, the send and the resume: the deadline never fires. *)
  Alcotest.check got "item first: the send wakes the reader" (Some 7, None)
    (at_deadline ~order:`Item_first ~events:3);
  (* Two spawns, the deadline, the send and the resume. *)
  Alcotest.check got "deadline first: the reader takes the item"
    (Some 7, None)
    (at_deadline ~order:`Deadline_first ~events:5);
  (* Two spawns, the deadline, the callback, the resume, the send and
     the second receive's resume. *)
  Alcotest.check got "reader first: the next receive takes the item"
    (None, Some 7)
    (at_deadline ~order:`Reader_first ~events:7)

(* A receive that timed out leaves its reader queued; the next send
   must pass over it and wake the receiver parked behind it. *)
let test_channel_timed_out_reader_passes_wakeup () =
  let got = ref None in
  let engine =
    run_sim (fun e ->
        let ch = Sim.Channel.create () in
        Sim.Engine.spawn e (fun () ->
            Alcotest.(check (option int)) "a times out" None
              (Sim.Channel.recv_timeout ch ~timeout:1.0));
        Sim.Engine.spawn e (fun () ->
            Sim.Engine.sleep 2.0;
            got := Some (Sim.Channel.recv ch));
        Sim.Engine.schedule e ~delay:3.0 (fun () -> Sim.Channel.send ch 42))
  in
  Alcotest.(check (option int)) "b received" (Some 42) !got;
  Alcotest.(check int) "nobody stranded" 0 (Sim.Engine.stuck_waiters engine)

(* {1 Trace} *)

let test_trace_records_spans () =
  let engine = Sim.Engine.create () in
  let spans = ref [] in
  Sim.Engine.spawn engine (fun () ->
      let tr = Sim.Trace.start_ctx engine in
      Sim.Trace.span "outer" (fun () ->
          Sim.Engine.sleep 1.0;
          Sim.Trace.span "inner" (fun () -> Sim.Engine.sleep 0.5);
          Sim.Trace.mark "point");
      spans := Sim.Trace.stop_ctx tr);
  Sim.Engine.run engine;
  match !spans with
  | [ outer; inner; point ] ->
      Alcotest.(check string) "outer first" "outer" outer.Sim.Trace.name;
      Alcotest.(check int) "inner nested" 1 inner.Sim.Trace.depth;
      Alcotest.(check (float 1e-9)) "outer duration" 1.5
        (outer.Sim.Trace.t_end -. outer.Sim.Trace.t_start);
      Alcotest.(check (float 1e-9)) "mark is zero width" 0.0
        (point.Sim.Trace.t_end -. point.Sim.Trace.t_start)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_trace_noop_without_ambient () =
  Alcotest.(check int) "span is pass-through" 7
    (Sim.Trace.span "ignored" (fun () -> 7));
  Sim.Trace.mark "ignored"

let test_trace_renders () =
  let engine = Sim.Engine.create () in
  let out = ref "" in
  Sim.Engine.spawn engine (fun () ->
      let tr = Sim.Trace.start_ctx engine in
      Sim.Trace.span "op" (fun () -> Sim.Engine.sleep 0.01);
      out := Sim.Trace.render (Sim.Trace.stop_ctx tr));
  Sim.Engine.run engine;
  Alcotest.(check bool) "mentions op" true
    (String.length !out > 0
    &&
    let contains needle hay =
      let n = String.length needle and len = String.length hay in
      let rec go i = i + n <= len && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    contains "op" !out)

let test_trace_span_records_on_exception () =
  let engine = Sim.Engine.create () in
  let spans = ref [] in
  let raised = ref false in
  Sim.Engine.spawn engine (fun () ->
      let tr = Sim.Trace.start_ctx engine in
      (try
         Sim.Trace.span "doomed" (fun () ->
             Sim.Engine.sleep 0.25;
             failwith "boom")
       with Failure _ -> raised := true);
      spans := Sim.Trace.stop_ctx tr);
  Sim.Engine.run engine;
  Alcotest.(check bool) "exception propagated" true !raised;
  match !spans with
  | [ s ] ->
      Alcotest.(check string) "span marked failed" "doomed [failed]"
        s.Sim.Trace.name;
      Alcotest.(check (float 1e-9)) "duration recorded" 0.25
        (s.Sim.Trace.t_end -. s.Sim.Trace.t_start)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_trace_nested_depth_after_exception () =
  let engine = Sim.Engine.create () in
  let spans = ref [] in
  Sim.Engine.spawn engine (fun () ->
      let tr = Sim.Trace.start_ctx engine in
      Sim.Trace.span "outer" (fun () ->
          (try Sim.Trace.span "fails" (fun () -> failwith "x")
           with Failure _ -> ());
          (* Depth must be restored: this sibling sits at depth 1 again,
             and its child at depth 2. *)
          Sim.Trace.span "sibling" (fun () ->
              Sim.Trace.span "grandchild" (fun () -> ());
              Sim.Trace.mark "marker"));
      spans := Sim.Trace.stop_ctx tr);
  Sim.Engine.run engine;
  let depth name =
    match List.find_opt (fun s -> s.Sim.Trace.name = name) !spans with
    | Some s -> s.Sim.Trace.depth
    | None -> Alcotest.failf "span %S not recorded" name
  in
  Alcotest.(check int) "outer at 0" 0 (depth "outer");
  Alcotest.(check int) "failed child at 1" 1 (depth "fails [failed]");
  Alcotest.(check int) "sibling back at 1" 1 (depth "sibling");
  Alcotest.(check int) "grandchild at 2" 2 (depth "grandchild");
  Alcotest.(check int) "mark inherits depth" 2 (depth "marker")

let test_trace_mark_zero_width () =
  let engine = Sim.Engine.create () in
  let spans = ref [] in
  Sim.Engine.spawn engine (fun () ->
      let tr = Sim.Trace.start_ctx engine in
      Sim.Engine.sleep 1.0;
      Sim.Trace.mark "instant";
      spans := Sim.Trace.stop_ctx tr);
  Sim.Engine.run engine;
  match !spans with
  | [ s ] ->
      Alcotest.(check string) "named" "instant" s.Sim.Trace.name;
      Alcotest.(check (float 0.0)) "zero width" s.Sim.Trace.t_start
        s.Sim.Trace.t_end;
      Alcotest.(check (float 1e-9)) "at mark time" 1.0 s.Sim.Trace.t_start
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* Two concurrently traced processes: each context collects only its own
   process's spans even though their sleeps interleave in engine time. *)
let test_trace_concurrent_contexts_disjoint () =
  let engine = Sim.Engine.create () in
  let collected = Array.make 2 [] in
  let spawn_traced idx stagger =
    Sim.Engine.spawn engine ~name:(Printf.sprintf "p%d" idx) (fun () ->
        let tr = Sim.Trace.start_ctx engine in
        Sim.Engine.sleep stagger;
        for i = 1 to 3 do
          Sim.Trace.span
            (Printf.sprintf "p%d.op%d" idx i)
            (fun () ->
              Sim.Engine.sleep 0.4;
              Sim.Trace.mark (Printf.sprintf "p%d.mark%d" idx i))
        done;
        collected.(idx) <- Sim.Trace.stop_ctx tr)
  in
  spawn_traced 0 0.0;
  spawn_traced 1 0.2;
  Sim.Engine.run engine;
  Array.iteri
    (fun idx spans ->
      Alcotest.(check int)
        (Printf.sprintf "p%d span count" idx)
        6 (List.length spans);
      List.iter
        (fun s ->
          let prefix = Printf.sprintf "p%d." idx in
          let plen = String.length prefix in
          Alcotest.(check bool)
            (Printf.sprintf "%s owns %s" prefix s.Sim.Trace.name)
            true
            (String.length s.Sim.Trace.name >= plen
            && String.sub s.Sim.Trace.name 0 plen = prefix))
        spans)
    collected;
  (* The two trees really did overlap in time (the test would be vacuous
     if the processes ran back-to-back). *)
  let bounds spans =
    List.fold_left
      (fun (lo, hi) s ->
        (Float.min lo s.Sim.Trace.t_start, Float.max hi s.Sim.Trace.t_end))
      (infinity, neg_infinity) spans
  in
  let lo0, hi0 = bounds collected.(0) and lo1, hi1 = bounds collected.(1) in
  Alcotest.(check bool) "executions interleaved" true (lo1 < hi0 && lo0 < hi1)

(* A process-local context is inherited by children spawned while it is
   active, and a process outside it records nothing. *)
let test_trace_ctx_inherited () =
  let engine = Sim.Engine.create () in
  let ctx_spans = ref [] in
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.spawn engine (fun () ->
          let tr = Sim.Trace.start_ctx engine in
          Sim.Trace.span "local.op" (fun () -> Sim.Engine.sleep 0.1);
          Sim.Engine.spawn engine (fun () ->
              Sim.Trace.span "child.op" (fun () -> Sim.Engine.sleep 0.1));
          Sim.Engine.sleep 0.5;
          ctx_spans := Sim.Trace.stop_ctx tr);
      Sim.Trace.span "outside.op" (fun () -> Sim.Engine.sleep 1.0));
  Sim.Engine.run engine;
  Alcotest.(check (list string))
    "ctx got its own + inherited child" [ "local.op"; "child.op" ]
    (List.map (fun s -> s.Sim.Trace.name) !ctx_spans)

(* Causal identity: every span has a stable id, nested spans point at
   their enclosing span, siblings share a parent, and roots have none. *)
let test_trace_span_ids_and_parents () =
  let engine = Sim.Engine.create () in
  let spans = ref [] in
  Sim.Engine.spawn engine (fun () ->
      let tr = Sim.Trace.start_ctx engine in
      Sim.Trace.span "root" (fun () ->
          Sim.Trace.span "a" (fun () -> Sim.Engine.sleep 0.1);
          Sim.Trace.span "b" (fun () -> Sim.Trace.mark "b.mark"));
      Sim.Trace.span "root2" (fun () -> ());
      spans := Sim.Trace.stop_ctx tr);
  Sim.Engine.run engine;
  let find name =
    match List.find_opt (fun s -> s.Sim.Trace.name = name) !spans with
    | Some s -> s
    | None -> Alcotest.failf "span %S not recorded" name
  in
  let root = find "root" and a = find "a" and b = find "b" in
  let mark = find "b.mark" and root2 = find "root2" in
  Alcotest.(check (option int)) "root has no parent" None root.Sim.Trace.parent;
  Alcotest.(check (option int)) "root2 has no parent" None root2.Sim.Trace.parent;
  Alcotest.(check (option int)) "a under root" (Some root.Sim.Trace.id)
    a.Sim.Trace.parent;
  Alcotest.(check (option int)) "b under root" (Some root.Sim.Trace.id)
    b.Sim.Trace.parent;
  Alcotest.(check (option int)) "mark under b" (Some b.Sim.Trace.id)
    mark.Sim.Trace.parent;
  let ids = List.map (fun s -> s.Sim.Trace.id) !spans in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* Cross-process causality: a child spawned under an open span starts
   with that span as its inherited parent, and records its own pid. *)
let test_trace_parent_links_cross_spawn () =
  let engine = Sim.Engine.create () in
  let spans = ref [] in
  Sim.Engine.spawn engine (fun () ->
      let tr = Sim.Trace.start_ctx engine in
      Sim.Trace.span "parent.op" (fun () ->
          Sim.Engine.spawn engine (fun () ->
              Sim.Trace.span "child.op" (fun () -> Sim.Engine.sleep 0.2)));
      Sim.Engine.sleep 1.0;
      spans := Sim.Trace.stop_ctx tr);
  Sim.Engine.run engine;
  let find name =
    match List.find_opt (fun s -> s.Sim.Trace.name = name) !spans with
    | Some s -> s
    | None -> Alcotest.failf "span %S not recorded" name
  in
  let parent = find "parent.op" and child = find "child.op" in
  Alcotest.(check (option int)) "child parented to the spawn-time span"
    (Some parent.Sim.Trace.id) child.Sim.Trace.parent;
  Alcotest.(check int) "child nested one deeper"
    (parent.Sim.Trace.depth + 1) child.Sim.Trace.depth;
  Alcotest.(check bool) "pids differ across the spawn" true
    (parent.Sim.Trace.pid <> child.Sim.Trace.pid)

(* Engine self-profiling: the perf counters are always on and track the
   scheduler's actual work; pending drains to zero at quiescence. *)
let test_engine_perf_counters () =
  let engine = Sim.Engine.create () in
  let mid_pending = ref (-1) in
  for _ = 1 to 4 do
    Sim.Engine.spawn engine (fun () ->
        for _ = 1 to 5 do
          Sim.Engine.sleep 0.1
        done;
        mid_pending := Sim.Engine.pending engine)
  done;
  Sim.Engine.run engine;
  let perf = Sim.Engine.perf engine in
  (* 4 spawns + 4x5 sleeps = 24 scheduled wakeups, all dispatched. *)
  Alcotest.(check int) "scheduled" 24 perf.Sim.Engine.scheduled;
  Alcotest.(check int) "dispatched" 24 perf.Sim.Engine.dispatched;
  Alcotest.(check bool) "heap high-water sane" true
    (perf.Sim.Engine.max_heap >= 4 && perf.Sim.Engine.max_heap <= 24);
  Alcotest.(check bool) "pending observed mid-run" true (!mid_pending >= 0);
  Alcotest.(check int) "pending drained" 0 (Sim.Engine.pending engine)

(* The zero-alloc contract of the engine's hot roots: once the event
   heap and payload arena have grown to size, the steady-state dispatch
   loop — pop, dispatch, re-schedule, all through scalar columns — must
   not allocate a single minor word per event. A warm-up run grows the
   arrays first so the measured run sees only the steady state. *)
let test_engine_zero_alloc_dispatch () =
  let engine = Sim.Engine.create ~seed:1L () in
  let remaining = ref 0 in
  (* One recursive closure, allocated here once; per event the engine
     only stores/loads it through the arena. *)
  let rec cb () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.Engine.schedule engine ~delay:1.0 cb
    end
  in
  remaining := 2_000;
  Sim.Engine.schedule engine ~delay:0.0 cb;
  Sim.Engine.run engine;
  let measured = 10_000 in
  remaining := measured;
  Sim.Engine.schedule engine ~delay:0.0 cb;
  let w0 = Gc.minor_words () in
  Sim.Engine.run engine;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words allocated across %d dispatches" (measured + 1))
    0.0 (w1 -. w0)

(* Word budgets for the other engine hot roots, counted the same way
   inside a process: [f] runs once to warm up, then [n] times measured,
   and the result is the minor words per run of [f]. *)
let words_in_process ?(engine = Sim.Engine.create ~seed:1L ()) n f =
  let words = ref (-1.0) in
  Sim.Engine.spawn engine (fun () ->
      f engine;
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        f engine
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n);
  Sim.Engine.run engine;
  !words

(* A timer handle is one two-field record (3 words); the cancel that
   drops it allocates nothing. *)
let test_timer_word_budget () =
  Alcotest.(check (float 0.0)) "minor words per schedule_timer + cancel" 3.0
    (words_in_process 10_000 (fun e ->
         Sim.Engine.cancel e (Sim.Engine.schedule_timer e ~delay:1.0 ignore)))

(* With every sanitizer unarmed, [Hb.observe]/[Hb.signal] find the
   checker off without building anything, so an uncontended
   acquire/release pair allocates nothing. *)
let test_semaphore_word_budget () =
  let sem = Sim.Semaphore.create 1 in
  Alcotest.(check (float 0.0)) "minor words per acquire + release" 0.0
    (words_in_process 10_000 (fun _ ->
         Sim.Semaphore.acquire sem;
         Sim.Semaphore.release sem))

(* A send queues the item in one [Queue] cell (3 words); the receive
   takes it out with [Queue.take] and returns it bare. The [Hb] hooks
   on both sides add nothing. *)
let test_channel_word_budget () =
  let ch = Sim.Channel.create () in
  Alcotest.(check (float 0.0)) "minor words per send + recv" 3.0
    (words_in_process 10_000 (fun _ ->
         Sim.Channel.send ch 1;
         ignore (Sys.opaque_identity (Sim.Channel.recv ch))))

(* An ivar is its record (4 words), its waiter queue (6) and its
   [Hb.sync] (2); the fill boxes the value in a [Some] (2), and reading
   a full ivar allocates nothing. The [Hb] hooks on both sides add
   nothing. *)
let test_ivar_word_budget () =
  Alcotest.(check (float 0.0)) "minor words per create + fill + read" 14.0
    (words_in_process 10_000 (fun _ ->
         let iv = Sim.Ivar.create () in
         Sim.Ivar.fill iv 1;
         ignore (Sys.opaque_identity (Sim.Ivar.read iv))))

(* [sleep] on the heap path: a zero-alloc callback chain keeps an event
   queued ahead of every wakeup, so each sleep parks through
   [push_resume]. Performing [Sleep] builds its payload (3 words) and
   the continuation (2); the handler returns [Some] (2) of a closure
   over the engine and the delay (5) that parks it. The in-place path
   is the [in-place] group's: no word at all. *)
let test_sleep_heap_word_budget () =
  let engine = Sim.Engine.create ~seed:1L () in
  let remaining = ref 25_000 in
  let rec cb () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.Engine.schedule engine ~delay:0.5 cb
    end
  in
  Sim.Engine.schedule engine ~delay:0.25 cb;
  Alcotest.(check (float 0.0)) "minor words per parked sleep" 12.0
    (words_in_process ~engine 10_000 (fun _ -> Sim.Engine.sleep 1.0))

(* The parking path: [Waitq.park], the [Park] handler, [Waitq.wake_one]
   and [push_resume], through a contended semaphore. The holder takes
   the permit, sleeps in place and releases it to the parked measured
   process, whose own release hands it back to the holder, parked on
   its next acquire; so each measured iteration parks two acquires.
   One parked acquire is 9 words: the waiter record (7) and the
   continuation that performing [Park] captures (2). The handler is
   built once, and the wake, [push_resume] and the waiter counters
   allocate nothing. *)
let test_parking_word_budget () =
  let engine = Sim.Engine.create ~seed:1L () in
  let sem = Sim.Semaphore.create 1 in
  Sim.Engine.spawn engine (fun () ->
      for _ = 1 to 10_002 do
        Sim.Semaphore.acquire sem;
        Sim.Engine.sleep 1.0;
        Sim.Semaphore.release sem
      done);
  Alcotest.(check (float 0.0)) "minor words per two parked acquires" 18.0
    (words_in_process ~engine 10_000 (fun _ ->
         Sim.Semaphore.acquire sem;
         Sim.Semaphore.release sem))

(* The per-request reply wait: a [Channel.recv_timeout] that a send
   satisfies before its deadline. A zero-alloc callback chain sends one
   item a second, so each measured receive parks with its deadline
   queued and is woken by the send, which cancels the deadline. One
   send and timed receive is 27 words:
   - the send's [Queue] cell (3);
   - the deadline: [Engine.now]'s boxed result (2), the boxed sum (2)
     and the boxed delay [Waitq.park_until] queues its event at (2);
   - the waiter record (7), the continuation (2), and the deadline's
     timer handle (3) and closure over the waiter (4);
   - the [Some] the item is returned in (2).
   The wake, the cancel and the [Hb] hooks allocate nothing. *)
let test_timed_receive_word_budget () =
  let engine = Sim.Engine.create ~seed:1L () in
  let ch = Sim.Channel.create () in
  let remaining = ref 10_001 in
  let rec send () =
    Sim.Channel.send ch 1;
    decr remaining;
    if !remaining > 0 then Sim.Engine.schedule engine ~delay:1.0 send
  in
  Sim.Engine.schedule engine ~delay:0.5 send;
  Alcotest.(check (float 0.0)) "minor words per send + timed receive" 27.0
    (words_in_process ~engine 10_000 (fun _ ->
         ignore
           (Sys.opaque_identity (Sim.Channel.recv_timeout ch ~timeout:10.0))))

(* [Trace.fork] runs at every spawn: a spawn from a process holding a
   trace context costs exactly 12 words more than one from a process
   holding only another key's value. The fork builds the child's
   context (5) in a [Some] (2); the key plumbing reads the parent's
   value out in a [Some] (2) and stores the child's as its exception
   payload (3). The other key's value already made the child's value
   array, and the arena is grown first, so neither run grows anything
   else. *)
let test_trace_fork_word_budget () =
  let other : int Sim.Engine.key = Sim.Engine.new_key () in
  let spawn_words ~traced =
    let engine = Sim.Engine.create ~seed:1L () in
    for _ = 1 to 20_000 do
      Sim.Engine.schedule engine ~delay:0.0 ignore
    done;
    Sim.Engine.run engine;
    let words = ref (-1.0) in
    Sim.Engine.spawn engine (fun () ->
        Sim.Engine.set engine other (Some 1);
        if traced then ignore (Sim.Trace.start_ctx engine);
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do
          Sim.Engine.spawn engine ignore
        done;
        words := (Gc.minor_words () -. w0) /. 10_000.0);
    Sim.Engine.run engine;
    !words
  in
  Alcotest.(check (float 0.0)) "minor words a trace context adds per spawn"
    12.0
    (spawn_words ~traced:true -. spawn_words ~traced:false)

(* {1 Atomic sections} *)

(* [f] run by process "p" inside a section named "probe section": the
   message of the [Invalid_argument] it fails with, if any. *)
let section_failure f =
  let engine = Sim.Engine.create () in
  Sim.Engine.spawn engine ~name:"p" (fun () ->
      Sim.Engine.atomic engine ~what:"probe section" f engine);
  match Sim.Engine.run engine with
  | () -> None
  | exception Sim.Engine.Process_failure ("p", Invalid_argument msg) -> Some msg

let in_section prim section =
  Some (Printf.sprintf "%s inside atomic section %S, which must not suspend"
          prim section)

(* Every primitive that can suspend fails on entry, also where this call
   would not have blocked: a free permit, a full ivar, a queued item. *)
let test_atomic_primitives_raise () =
  let full () =
    let iv = Sim.Ivar.create () in
    Sim.Ivar.fill iv ();
    iv
  in
  (* Filled outside the section: a send inside one fails too. *)
  let queued () =
    let ch = Sim.Channel.create () in
    Sim.Channel.send ch ();
    ch
  in
  let ch1 = queued () and ch2 = queued () in
  List.iter
    (fun (prim, f) ->
      Alcotest.(check (option string)) prim (in_section prim "probe section")
        (section_failure f))
    [
      ("Engine.sleep", fun _ -> Sim.Engine.sleep 1.0);
      ("Engine.yield", fun _ -> Sim.Engine.yield ());
      ( "Semaphore.acquire",
        fun _ -> Sim.Semaphore.acquire (Sim.Semaphore.create 1) );
      ( "Semaphore.with_permit",
        fun _ -> Sim.Semaphore.with_permit (Sim.Semaphore.create 1) ignore );
      ("Ivar.read", fun _ -> Sim.Ivar.read (full ()));
      ("Channel.send", fun _ -> Sim.Channel.send (Sim.Channel.create ()) ());
      ("Channel.recv", fun _ -> Sim.Channel.recv ch1);
      ( "Channel.recv_timeout",
        fun _ -> ignore (Sim.Channel.recv_timeout ch2 ~timeout:1.0) );
    ];
  Alcotest.(check (option string)) "non-blocking calls pass" None
    (section_failure (fun e ->
         let iv = Sim.Ivar.create () in
         Sim.Ivar.fill iv ();
         ignore (Sim.Ivar.is_full iv);
         ignore (Sim.Semaphore.try_acquire (Sim.Semaphore.create 1));
         ignore (Sim.Channel.try_recv (Sim.Channel.create ()));
         Sim.Engine.schedule e ~delay:1.0 ignore))

(* Sections nest: leaving the inner one keeps the outer open, and a
   failure names the outermost. *)
let test_atomic_nested () =
  Alcotest.(check (option string)) "still inside the outer section"
    (in_section "Engine.yield" "probe section")
    (section_failure (fun e ->
         Sim.Engine.atomic_enter e ~what:"inner";
         Sim.Engine.atomic_leave e;
         Sim.Engine.yield ()));
  Alcotest.(check (option string)) "a nested failure names the outermost"
    (in_section "Engine.sleep" "probe section")
    (section_failure (fun e ->
         Sim.Engine.atomic_enter e ~what:"inner";
         Sim.Engine.sleep 1.0));
  let engine = Sim.Engine.create () in
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.atomic_enter engine ~what:"outer";
      Sim.Engine.atomic_enter engine ~what:"inner";
      Sim.Engine.atomic_leave engine;
      Sim.Engine.atomic_leave engine;
      Sim.Engine.sleep 1.0);
  Sim.Engine.run engine;
  Alcotest.(check (float 0.0)) "sleeps once both are left" 1.0
    (Sim.Engine.now engine);
  Alcotest.check_raises "a leave without a section"
    (Invalid_argument "Engine.atomic_leave: no atomic section to leave")
    (fun () -> Sim.Engine.atomic_leave engine)

(* An exception leaves [atomic]'s section, so cleanup code that
   catches it may block again; a raw [atomic_enter] an exception skips
   is reset when the run it aborts ends. *)
let test_atomic_depth_after_exception () =
  let engine = Sim.Engine.create () in
  let caught = ref "" in
  Sim.Engine.spawn engine (fun () ->
      (match
         Sim.Engine.atomic engine ~what:"probe section" Sim.Engine.yield ()
       with
      | () -> ()
      | exception Invalid_argument msg -> caught := msg);
      Sim.Semaphore.with_permit (Sim.Semaphore.create 1) (fun () ->
          Sim.Engine.sleep 1.0));
  Sim.Engine.run engine;
  Alcotest.(check (option string)) "the violation"
    (in_section "Engine.yield" "probe section")
    (Some !caught);
  Alcotest.(check (float 0.0)) "blocks again after the catch" 1.0
    (Sim.Engine.now engine);
  Sim.Engine.spawn engine ~name:"raiser" (fun () ->
      Sim.Engine.atomic_enter engine ~what:"probe section";
      failwith "boom");
  (match Sim.Engine.run engine with
  | () -> Alcotest.fail "the raise was lost"
  | exception Sim.Engine.Process_failure ("raiser", Failure _) -> ());
  Sim.Engine.spawn engine (fun () -> Sim.Engine.sleep 1.0);
  Sim.Engine.run engine;
  Alcotest.(check (float 0.0)) "the next run sleeps" 2.0
    (Sim.Engine.now engine)

(* Deadlock reporters and census hooks run at quiescence, outside any
   process: one that yields fails the run naming its section, not with
   a bare [Effect.Unhandled]. *)
let test_atomic_quiescence_callbacks () =
  let failure engine =
    match Sim.Engine.run engine with
    | () -> None
    | exception Invalid_argument msg -> Some msg
  in
  let engine = Sim.Engine.create ~deadlock:true () in
  Sim.Engine.add_deadlock_reporter engine (fun _ -> Sim.Engine.yield ());
  Sim.Engine.spawn engine (fun () -> Sim.Ivar.read (Sim.Ivar.create ()));
  Alcotest.(check (option string)) "deadlock reporter"
    (in_section "Engine.yield" "deadlock reporter")
    (failure engine);
  let engine = Sim.Engine.create ~own:true () in
  Sim.Engine.add_census_hook engine (fun () -> Sim.Engine.yield ());
  Sim.Engine.spawn engine (fun () -> Sim.Engine.sleep 1.0);
  Alcotest.(check (option string)) "census hook"
    (in_section "Engine.yield" "census hook")
    (failure engine)

(* Entering and leaving a section, with or without [atomic], and the
   entry check of a primitive outside one, allocate nothing. *)
let test_atomic_zero_alloc () =
  let engine = Sim.Engine.create () in
  let words = ref (-1.0) in
  Sim.Engine.spawn engine (fun () ->
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Sim.Engine.atomic_enter engine ~what:"probe section";
        Sim.Engine.atomic_leave engine;
        ignore
          (Sim.Engine.atomic engine ~what:"probe section" Sim.Engine.pending
             engine);
        Sim.Engine.may_block "probe"
      done;
      words := Gc.minor_words () -. w0);
  Sim.Engine.run engine;
  Alcotest.(check (float 0.0)) "minor words across 10000 sections" 0.0 !words

(* {1 Engine keys} *)

let opt_int = Alcotest.(option int)

(* Each key runs its own fork at the same spawn; neither disturbs the
   other's value or the parent's. *)
let test_keys_fork_independently () =
  let engine = Sim.Engine.create () in
  let count = Sim.Engine.new_key ~fork:(fun _ v -> Option.map succ v) () in
  let label =
    Sim.Engine.new_key ~fork:(fun _ v -> Option.map (fun s -> s ^ "'") v) ()
  in
  let seen = ref (None, None) in
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.set engine count (Some 1);
      Sim.Engine.set engine label (Some "p");
      Sim.Engine.spawn engine (fun () ->
          seen :=
            (Sim.Engine.get engine count, Sim.Engine.get engine label));
      Sim.Engine.sleep 1.0;
      Alcotest.(check opt_int) "parent count kept" (Some 1)
        (Sim.Engine.get engine count);
      Alcotest.(check (option string)) "parent label kept" (Some "p")
        (Sim.Engine.get engine label));
  Sim.Engine.run engine;
  Alcotest.(check opt_int) "child count forked" (Some 2) (fst !seen);
  Alcotest.(check (option string)) "child label forked" (Some "p'") (snd !seen)

(* A plain callback holds no value, yet the HB checker's fork still
   gives each child its pid at spawn: B, spawned second and writing
   first, reports pid 2 — a lazily minted pid would read 1. *)
let test_keys_hb_fork_without_parent_value () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Hb.enable engine);
  let cell = Sim.Hb.cell ~name:"keys.cell" in
  Sim.Engine.schedule engine ~delay:0.0 (fun () ->
      Sim.Engine.spawn engine ~name:"a" (fun () ->
          Sim.Engine.yield ();
          Sim.Hb.write cell);
      Sim.Engine.spawn engine ~name:"b" (fun () -> Sim.Hb.write cell));
  Sim.Engine.run engine;
  match Sim.Hb.races engine with
  | [ r ] ->
      Alcotest.(check (pair int int)) "pids minted at spawn" (2, 1)
        (r.Sim.Hb.first_pid, r.Sim.Hb.second_pid)
  | rs -> Alcotest.failf "expected one race, got %d" (List.length rs)

let test_keys_survive_sleep_and_suspend () =
  let engine = Sim.Engine.create () in
  let k = Sim.Engine.new_key () in
  let after_sleep = ref None and after_suspend = ref None in
  let iv = Sim.Ivar.create () in
  Sim.Engine.schedule engine ~delay:3.0 (fun () -> Sim.Ivar.fill iv ());
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.set engine k (Some 7);
      Sim.Engine.sleep 1.0;
      after_sleep := Sim.Engine.get engine k;
      (* Parks on the ivar's waiter queue until the fill. *)
      Sim.Ivar.read iv;
      after_suspend := Sim.Engine.get engine k);
  (* A second process in between holds nothing of the first's. *)
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 1.5;
      Alcotest.(check opt_int) "other process unset" None
        (Sim.Engine.get engine k));
  Sim.Engine.run engine;
  Alcotest.(check opt_int) "after sleep" (Some 7) !after_sleep;
  Alcotest.(check opt_int) "after suspend" (Some 7) !after_suspend

let test_keys_callback_value_dies_with_it () =
  let engine = Sim.Engine.create () in
  let k = Sim.Engine.new_key () in
  let at_start = ref (Some 0) and inside = ref None and next = ref (Some 0) in
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.set engine k (Some 1);
      Sim.Engine.schedule engine ~delay:1.0 (fun () ->
          at_start := Sim.Engine.get engine k;
          Sim.Engine.set engine k (Some 5);
          inside := Sim.Engine.get engine k);
      Sim.Engine.schedule engine ~delay:1.0 (fun () ->
          next := Sim.Engine.get engine k);
      Sim.Engine.sleep 2.0;
      Alcotest.(check opt_int) "the process keeps its own" (Some 1)
        (Sim.Engine.get engine k));
  Sim.Engine.run engine;
  Alcotest.(check opt_int) "callback starts unset" None !at_start;
  Alcotest.(check opt_int) "set inside the callback" (Some 5) !inside;
  Alcotest.(check opt_int) "gone in the next callback" None !next

let test_keys_spawn_from_callback_forks () =
  let engine = Sim.Engine.create () in
  let k = Sim.Engine.new_key ~fork:(fun _ v -> Option.map succ v) () in
  let child = ref None in
  Sim.Engine.schedule engine ~delay:0.0 (fun () ->
      Sim.Engine.set engine k (Some 10);
      Sim.Engine.spawn engine (fun () -> child := Sim.Engine.get engine k));
  Sim.Engine.run engine;
  Alcotest.(check opt_int) "forked from the callback's value" (Some 11) !child

(* {1 Ownership census hooks (SEUSS_OWN)} *)

let test_census_hooks_run_at_quiescence () =
  let engine = Sim.Engine.create ~seed:3L ~own:true () in
  Alcotest.(check bool) "armed" true (Sim.Engine.own_armed engine);
  let fired = ref 0 in
  let quiesced = ref false in
  Sim.Engine.add_census_hook engine (fun () ->
      incr fired;
      (* Hooks run after the last event, outside any process. *)
      quiesced := Sim.Engine.pending engine = 0);
  Sim.Engine.spawn engine (fun () -> Sim.Engine.sleep 1.0);
  Alcotest.(check int) "not before run" 0 !fired;
  Sim.Engine.run engine;
  Alcotest.(check int) "exactly once at quiescence" 1 !fired;
  Alcotest.(check bool) "after the heap drained" true !quiesced

let test_census_hooks_inert_unarmed () =
  let engine = Sim.Engine.create ~seed:3L () in
  Alcotest.(check bool) "census off by default" false
    (Sim.Engine.own_armed engine);
  let fired = ref 0 in
  Sim.Engine.add_census_hook engine (fun () -> incr fired);
  Sim.Engine.spawn engine (fun () -> Sim.Engine.sleep 1.0);
  Sim.Engine.run engine;
  Alcotest.(check int) "hook never runs unarmed" 0 !fired

(* SEUSS_OWN reaches the engine only through the harness. *)
let test_census_env_arms () =
  let armed value =
    match Experiments.Run_config.parse [ ("SEUSS_OWN", value) ] with
    | Error e -> Alcotest.fail e
    | Ok run ->
        Experiments.Harness.with_run run (fun () ->
            Experiments.Harness.run_sim ~seed:3L Sim.Engine.own_armed)
  in
  Alcotest.(check bool) "SEUSS_OWN=1 arms the harness engine" true (armed "1");
  Alcotest.(check bool) "SEUSS_OWN=0 behaves as unset" false (armed "0");
  Alcotest.(check bool) "empty behaves as unset" false (armed "")

let () =
  let case name f = Alcotest.test_case name `Quick f in
  let qcase = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "heap",
        [
          case "ordering" test_heap_ordering;
          case "empty" test_heap_empty;
          qcase heap_sorts_like_list;
        ] );
      ( "prng",
        [
          case "deterministic" test_prng_deterministic;
          case "known answers" test_prng_known_answers;
          case "draws allocate nothing" test_prng_draws_allocate_nothing;
          case "split" test_prng_split_independent;
          case "shuffle permutation" test_prng_shuffle_permutation;
          qcase prng_float_in_range;
          qcase prng_int_in_bound;
        ] );
      ( "engine",
        [
          case "time advances" test_engine_time_advances;
          case "fifo at same time" test_engine_fifo_at_same_time;
          case "interleaving" test_engine_interleaving;
          case "run until" test_engine_until;
          case "negative delay rejected" test_engine_negative_delay_rejected;
          case "process failure" test_engine_process_failure;
          case "bad sleep delay fails the run" test_engine_bad_sleep;
          case "nested spawn" test_engine_nested_spawn;
          qcase engine_deterministic;
        ] );
      ( "timers",
        [
          case "cancelled timer never fires" test_timer_cancelled_never_fires;
          case "cancel after fire is a no-op" test_timer_cancel_after_fire;
          case "cancel on a reused slot is a no-op"
            test_timer_cancel_reused_slot;
          qcase timers_match_sorted_reference;
        ] );
      ( "in-place",
        [
          case "fifo at an equal time" test_inplace_fifo_tie;
          case "stops at run until" test_inplace_stops_at_until;
          case "perf matches the slow path" test_inplace_perf_matches_slow_path;
          case "allocates nothing" test_inplace_sleep_allocates_nothing;
          case "sleep in a callback is unhandled"
            test_sleep_in_callback_unhandled;
        ] );
      ( "trace",
        [
          case "records spans" test_trace_records_spans;
          case "noop without ambient" test_trace_noop_without_ambient;
          case "renders" test_trace_renders;
          case "span recorded on exception" test_trace_span_records_on_exception;
          case "nested depth after exception" test_trace_nested_depth_after_exception;
          case "mark zero width" test_trace_mark_zero_width;
          case "concurrent contexts disjoint" test_trace_concurrent_contexts_disjoint;
          case "ctx inherited by children" test_trace_ctx_inherited;
          case "span ids and parents" test_trace_span_ids_and_parents;
          case "parent links cross spawn" test_trace_parent_links_cross_spawn;
        ] );
      ( "perf",
        [
          case "engine counters" test_engine_perf_counters;
          case "zero-alloc dispatch" test_engine_zero_alloc_dispatch;
          case "timer word budget" test_timer_word_budget;
          case "semaphore word budget" test_semaphore_word_budget;
          case "channel word budget" test_channel_word_budget;
          case "ivar word budget" test_ivar_word_budget;
          case "parked sleep word budget" test_sleep_heap_word_budget;
          case "parking word budget" test_parking_word_budget;
          case "timed receive word budget" test_timed_receive_word_budget;
          case "trace fork word budget" test_trace_fork_word_budget;
        ] );
      ( "atomic",
        [
          case "blocking primitives raise" test_atomic_primitives_raise;
          case "sections nest" test_atomic_nested;
          case "depth after an exception" test_atomic_depth_after_exception;
          case "quiescence callbacks" test_atomic_quiescence_callbacks;
          case "zero-alloc sections" test_atomic_zero_alloc;
        ] );
      ( "keys",
        [
          case "two keys fork independently" test_keys_fork_independently;
          case "hb fork without a parent value"
            test_keys_hb_fork_without_parent_value;
          case "values survive sleep and suspend"
            test_keys_survive_sleep_and_suspend;
          case "callback value dies with it"
            test_keys_callback_value_dies_with_it;
          case "spawn from a callback forks its value"
            test_keys_spawn_from_callback_forks;
        ] );
      ( "ivar",
        [
          case "fill then read" test_ivar_fill_then_read;
          case "read blocks" test_ivar_read_blocks;
          case "double fill rejected" test_ivar_double_fill_rejected;
          case "many waiters" test_ivar_many_waiters;
        ] );
      ( "semaphore",
        [
          case "limits concurrency" test_semaphore_limits_concurrency;
          case "fifo handoff" test_semaphore_fifo_handoff;
          case "over release rejected" test_semaphore_over_release_rejected;
          case "counters" test_semaphore_counters;
        ] );
      ( "channel",
        [
          case "send recv" test_channel_send_recv;
          case "multiple consumers" test_channel_multiple_consumers;
          case "recv timeout" test_channel_recv_timeout;
          case "item cancels the timeout timer"
            test_channel_recv_timeout_timer_cancelled;
          case "timed-out reader passes the wakeup on"
            test_channel_timed_out_reader_passes_wakeup;
          case "item at the deadline instant" test_channel_item_at_deadline;
        ] );
      ( "census",
        [
          case "hooks run at quiescence" test_census_hooks_run_at_quiescence;
          case "hooks inert unarmed" test_census_hooks_inert_unarmed;
          case "env arms" test_census_env_arms;
        ] );
    ]
