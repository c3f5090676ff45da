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
   newly drags into the hot set. Removing or renaming a root's binding
   or file without updating its entry is a stale-hot-root finding. *)

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
    { hr_file = "lib/sim/engine.ml"; hr_binding = "cancel";
      hr_why = "every receive with a timeout whose item arrives first \
                (Channel.recv_timeout, Ivar.read_timeout) removes its \
                timer through here" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "wait_begin";
      hr_why = "per-acquire on the semaphore path" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "wait_end";
      hr_why = "per-release on the semaphore path" };
    (* Observability: every emitted event crosses these. *)
    { hr_file = "lib/obs/log.ml"; hr_binding = "emit";
      hr_why = "every observed event is stamped and stored in the ring \
                here" };
    (* Memory: every guest write crosses this. *)
    { hr_file = "lib/mem/addr_space.ml"; hr_binding = "write_range";
      hr_why = "every guest write crosses it (Guest.touch_charged, Galloc)" };
    { hr_file = "lib/mem/addr_space.ml"; hr_binding = "prefault";
      hr_why = "write_range's batched twin: resolves every page of each warm \
                call's recorded working set" };
    { hr_file = "lib/mem/page_table.ml"; hr_binding = "clone_shallow";
      hr_why = "every deploy and every snapshot freeze copies a root \
                through it" };
    { hr_file = "lib/mem/page_table.ml"; hr_binding = "release";
      hr_why = "every UC destroy and snapshot delete drops a table \
                through it" };
    { hr_file = "lib/obs/breakdown.ml"; hr_binding = "fold_record";
      hr_why = "the latency breakdown's log subscriber: runs on every \
                emitted record and folds each finished invocation into \
                its path's sums and histogram" };
    (* Metrics: incremented on event cadence by the platform. *)
    { hr_file = "lib/obs/metrics.ml"; hr_binding = "inc";
      hr_why = "counter bump on event cadence" };
    (* Trace-context propagation: per spawned/forked unit of work. *)
    { hr_file = "lib/sim/trace.ml"; hr_binding = "fork";
      hr_why = "span-context fork on every spawn" };
    (* Trace synthesis: one draw per arrival, one sample per event. *)
    { hr_file = "lib/sim/prng.ml"; hr_binding = "next";
      hr_why = "every random draw of the simulator steps the state here" };
    { hr_file = "lib/sim/prng.ml"; hr_binding = "bits53";
      hr_why = "one per synthesized arrival gap and one per Zipf sample" };
    { hr_file = "lib/sim/prng.ml"; hr_binding = "float";
      hr_why = "every uniform draw outside trace synthesis" };
    { hr_file = "lib/workload/zipf.ml"; hr_binding = "sample";
      hr_why = "one rank draw per synthesized trace event" };
  ]

let mem ~file ~binding =
  List.exists
    (fun r -> String.equal r.hr_file file && String.equal r.hr_binding binding)
    registry
