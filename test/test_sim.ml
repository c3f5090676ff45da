(* Tests for the discrete-event simulation kernel. *)

let check_float = Alcotest.(check (float 1e-9))

let run_sim f =
  let engine = Sim.Engine.create () in
  f engine;
  Sim.Engine.run engine;
  engine

(* {1 Heap} *)

let test_heap_ordering () =
  let h = Sim.Heap.create ~cmp:compare in
  List.iter (Sim.Heap.push h) [ 5; 3; 9; 1; 7; 3; 0 ];
  let rec drain acc =
    match Sim.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 3; 5; 7; 9 ] (drain [])

let test_heap_empty () =
  let h = Sim.Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
  Alcotest.(check (option int)) "pop" None (Sim.Heap.pop h);
  Alcotest.(check (option int)) "peek" None (Sim.Heap.peek h)

let heap_sorts_like_list =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Sim.Heap.create ~cmp:compare in
      List.iter (Sim.Heap.push h) xs;
      let rec drain acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* {1 Prng} *)

let test_prng_deterministic () =
  let a = Sim.Prng.create 42L and b = Sim.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.next a) (Sim.Prng.next b)
  done

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
        (!log, Sim.Engine.now e, Sim.Engine.events_executed e)
      in
      trace () = trace ())

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
  Alcotest.(check (option int)) "kept first" (Some 1) (Sim.Ivar.peek iv)

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

let test_ivar_timeout_expires () =
  let got = ref (Some 1) in
  ignore
    (run_sim (fun e ->
         let iv = Sim.Ivar.create () in
         Sim.Engine.spawn e (fun () ->
             got := Sim.Ivar.read_timeout iv ~timeout:2.0;
             check_float "woke at deadline" 2.0 (Sim.Engine.now e))));
  Alcotest.(check (option int)) "timed out" None !got

let test_ivar_timeout_beaten_by_fill () =
  let got = ref None in
  ignore
    (run_sim (fun e ->
         let iv = Sim.Ivar.create () in
         Sim.Engine.spawn e (fun () ->
             got := Sim.Ivar.read_timeout iv ~timeout:5.0);
         Sim.Engine.spawn e (fun () ->
             Sim.Engine.sleep 1.0;
             Sim.Ivar.fill iv 11)));
  Alcotest.(check (option int)) "value before deadline" (Some 11) !got

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
             got := Sim.Channel.recv_timeout ch ~timeout:1.0)));
  Alcotest.(check (option int)) "timed out" None !got

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

(* The zero-alloc contract behind the seussheat pass: once the event
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
        Sim.Engine.own_armed
          (Experiments.Harness.make_engine ~run ~seed:3L ())
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
          case "nested spawn" test_engine_nested_spawn;
          qcase engine_deterministic;
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
        ] );
      ( "ivar",
        [
          case "fill then read" test_ivar_fill_then_read;
          case "read blocks" test_ivar_read_blocks;
          case "double fill rejected" test_ivar_double_fill_rejected;
          case "many waiters" test_ivar_many_waiters;
          case "timeout expires" test_ivar_timeout_expires;
          case "timeout beaten by fill" test_ivar_timeout_beaten_by_fill;
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
        ] );
      ( "census",
        [
          case "hooks run at quiescence" test_census_hooks_run_at_quiescence;
          case "hooks inert unarmed" test_census_hooks_inert_unarmed;
          case "env arms" test_census_env_arms;
        ] );
    ]
