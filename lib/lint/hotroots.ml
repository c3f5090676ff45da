(* The registered hot roots of the tree — the per-event and per-sample
   paths whose allocation behaviour sets the simulator's throughput
   floor. seussheat seeds its reachability worklist here; everything a
   root (transitively) references is hot and gets the allocation rules
   applied to its body.

   Roots are named (repo-relative file, top-level binding). The list is
   deliberately small and curated: a root should be something executed
   O(events) or O(samples) per run, not merely "fast-sounding". Adding a
   root is a review-visible act — append here with a why, and expect to
   spend time placing (* seussheat: cold — ... *) markers on the code it
   newly drags into the hot set. *)

type root = {
  hr_file : string;  (** repo-relative defining file *)
  hr_binding : string;  (** top-level binding name *)
  hr_why : string;  (** why this path is O(events) *)
}

let registry =
  [
    (* The engine dispatch loop and everything it runs per event. *)
    { hr_file = "lib/sim/engine.ml"; hr_binding = "run";
      hr_why = "the dispatch loop: pops, clock-advances and executes every \
                event in the run" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "schedule";
      hr_why = "every thunk enters the queue through here" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "push_resume";
      hr_why = "every suspension parks its continuation through here \
                (sleep and wait_begin both land on it)" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "sleep";
      hr_why = "per-sleep: the dominant primitive of every workload" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "wait_begin";
      hr_why = "per-acquire on the semaphore path" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "wait_end";
      hr_why = "per-release on the semaphore path" };
    (* The reference heap retired from the engine but still serving
       Contexts' run queues; its push/pop are per-event there. *)
    { hr_file = "lib/sim/heap.ml"; hr_binding = "push";
      hr_why = "per-event insert for heap-backed queues" };
    { hr_file = "lib/sim/heap.ml"; hr_binding = "pop";
      hr_why = "per-event extract for heap-backed queues" };
    (* Observability: every emitted event crosses these. *)
    { hr_file = "lib/obs/log.ml"; hr_binding = "emit";
      hr_why = "every observed event is stamped and ring-pushed here" };
    { hr_file = "lib/obs/ring.ml"; hr_binding = "push";
      hr_why = "the ring store behind every emit" };
    (* Metrics: incremented on event/sample cadence by the platform. *)
    { hr_file = "lib/obs/metrics.ml"; hr_binding = "inc";
      hr_why = "counter bump on event cadence" };
    { hr_file = "lib/obs/metrics.ml"; hr_binding = "observe";
      hr_why = "histogram observe on sample cadence" };
    { hr_file = "lib/obs/metrics.ml"; hr_binding = "set_gauge";
      hr_why = "gauge store on sample cadence" };
    (* Trace-context propagation: per spawned/forked unit of work. *)
    { hr_file = "lib/sim/trace.ml"; hr_binding = "fork";
      hr_why = "span-context fork on every spawn" };
  ]

let mem ~file ~binding =
  List.exists
    (fun r -> String.equal r.hr_file file && String.equal r.hr_binding binding)
    registry
