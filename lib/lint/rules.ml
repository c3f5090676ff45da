(* The seusslint rule catalogue. Every rule guards one way simulation
   determinism, resource safety or liveness has actually broken (or
   nearly broken) in this codebase. Which pass enforces a rule is the
   pass table's business ({!Passes}). *)

type id =
  | Bare_random  (** [Random.*] outside the seeded PRNG plumbing *)
  | Wallclock  (** [Unix.gettimeofday] / [Sys.time] inside lib/ *)
  | Hashtbl_order  (** raw [Hashtbl.iter]/[Hashtbl.fold] inside lib/ *)
  | Physical_eq  (** [==] / [!=] inside lib/ *)
  | Stdout_print  (** [print_*] / [Printf.printf] inside lib/ *)
  | Frame_site  (** frame acquire/release outside the audited site list *)
  | Ambient_env
      (** [Sys.getenv] / [Unix.environment] inside lib/, outside the
          run configuration *)
  | Block_in_handler
      (** a may-block call reachable from an atomic context (fault hook,
          reporter callback, heap comparator, crash handler) *)
  | Lock_order
      (** semaphore lock classes acquired in a cyclic order, or a
          [Semaphore.create] missing its [seussdead: lock] annotation *)
  | Unreleased_acquire
      (** a bare [Semaphore.acquire] whose function never releases the
          same lock class *)
  | Heat_closure  (** a closure allocated inside a hot function body *)
  | Heat_alloc
      (** tuple/record/array/constructor/ref construction, or a call to
          a known-allocating stdlib function, on a hot path *)
  | Heat_string
      (** string building — [^], [String.concat], [Printf]/[Format] —
          on a hot path *)
  | Heat_float_box
      (** a float arithmetic result stored into a record field, which
          boxes unless the record is all-float *)
  | Heat_poly_cmp
      (** polymorphic [compare]/[=]/[min]/[max]/[Hashtbl.hash] on a hot
          path: a C call that also boxes intermediate results *)
  | Heat_partial
      (** partial application on a hot path: allocates a closure per
          call *)
  | Own_escape
      (** an acquired resource (frame ref, snapshot ref, UC) that no
          reachable path ever releases, at a site not registered as an
          ownership transfer *)
  | Own_exn_leak
      (** a raise/failwith/invalid_arg while a resource acquired in the
          same function is still owned on that path *)
  | Own_double_release
      (** a second release of a resource already released on the same
          path *)
  | Own_use_after_destroy
      (** a liveness-requiring UC operation after [Uc.destroy] on the
          same path *)
  | Own_unbalanced
      (** branch arms that disagree about whether a resource owned
          before the branch is released *)

let all =
  [
    Bare_random; Wallclock; Hashtbl_order; Physical_eq; Stdout_print;
    Frame_site; Ambient_env; Block_in_handler; Lock_order; Unreleased_acquire;
    Heat_closure; Heat_alloc; Heat_string; Heat_float_box; Heat_poly_cmp;
    Heat_partial; Own_escape; Own_exn_leak; Own_double_release;
    Own_use_after_destroy; Own_unbalanced;
  ]

let name = function
  | Bare_random -> "bare-random"
  | Wallclock -> "wallclock"
  | Hashtbl_order -> "hashtbl-order"
  | Physical_eq -> "physical-eq"
  | Stdout_print -> "stdout-print"
  | Frame_site -> "frame-site"
  | Ambient_env -> "ambient-env"
  | Block_in_handler -> "block-in-handler"
  | Lock_order -> "lock-order"
  | Unreleased_acquire -> "unreleased-acquire"
  | Heat_closure -> "heat-closure"
  | Heat_alloc -> "heat-alloc"
  | Heat_string -> "heat-string"
  | Heat_float_box -> "heat-float-box"
  | Heat_poly_cmp -> "heat-poly-cmp"
  | Heat_partial -> "heat-partial-apply"
  | Own_escape -> "own-escape"
  | Own_exn_leak -> "own-exn-leak"
  | Own_double_release -> "own-double-release"
  | Own_use_after_destroy -> "own-use-after-destroy"
  | Own_unbalanced -> "own-unbalanced"

let of_name n = List.find_opt (fun r -> String.equal (name r) n) all

let describe = function
  | Bare_random ->
      "Random.* draws from ambient global state; all randomness must flow \
       from a seeded Sim.Prng stream (or the Faults plan) so runs replay \
       bit-identically"
  | Wallclock ->
      "Unix.gettimeofday / Sys.time read the host clock; simulation code \
       must read Sim.Engine.now, which only advances with the event heap"
  | Hashtbl_order ->
      "Hashtbl.iter / Hashtbl.fold visit buckets in insertion-history \
       order; results that reach output, the event heap or teardown must \
       go through the sorted Det wrappers"
  | Physical_eq ->
      "== / != compare physical identity, which GC moves and copying make \
       treacherous on mutable simulation records; use structural (=) or \
       carry an allow comment justifying the identity check"
  | Stdout_print ->
      "print_* / Printf.printf write to stdout from library code; node \
       output must flow through the Obs event log or a formatter the \
       caller controls"
  | Frame_site ->
      "physical frame acquire/release (Frame.alloc / incref / decref) at \
       a call site missing from the audited site list in Lint.Sites; add \
       the site there after checking its pairing"
  | Ambient_env ->
      "Sys.getenv / Unix.environment read process state the run never \
       declared; library code takes its arming from an explicit \
       Run_config, which is the one place the environment is parsed"
  | Block_in_handler ->
      "a call that may suspend the current process (Semaphore.acquire, \
       Channel.recv/send, Ivar.read, Engine.sleep, transitively) is \
       reachable from an atomic context — a fault hook, reporter \
       callback, heap comparator or crash handler that runs outside the \
       effect handler and cannot suspend"
  | Lock_order ->
      "semaphore lock classes (named with (* seussdead: lock <class> *) \
       at each Semaphore.create) form a cycle in the static \
       acquired-while-holding graph, or a create site is missing its \
       class annotation"
  | Unreleased_acquire ->
      "a bare Semaphore.acquire of a named lock class whose enclosing \
       function contains no matching release: a path to return leaks the \
       permit unless ownership is transferred (justify with an allow)"
  | Heat_closure ->
      "a closure (fun/function outside the binding's own parameter list) \
       is allocated every time this hot function runs; lift it to the top \
       level, store it once, or justify with (* seussheat: cold — ... *)"
  | Heat_alloc ->
      "a tuple, record, array, ref, argument-carrying constructor or \
       known-allocating stdlib call sits on a path reachable from a \
       registered hot root; hoist it, use mutable scratch, or justify \
       with (* seussheat: cold — ... *)"
  | Heat_string ->
      "string building (^, String.concat, Printf/Format, string_of_*) \
       allocates and copies on every execution of a hot path; move \
       rendering off the fast path or justify it"
  | Heat_float_box ->
      "a float arithmetic result stored into a record field boxes two \
       words per store unless the record is all-float; restructure the \
       stats into a flat float record (and say so in the cold marker if \
       the field already is unboxed)"
  | Heat_poly_cmp ->
      "polymorphic compare/=/min/max/Hashtbl.hash on a hot path is a C \
       call that walks the representation; use the monomorphic \
       Int/Float/String comparison, or literal comparisons the compiler \
       specializes"
  | Heat_partial ->
      "applying a known function to fewer arguments than its definition \
       takes allocates a closure per call on a hot path; apply it fully \
       or eta-expand at the call site"
  | Own_escape ->
      "a resource acquired here (Frame.alloc/incref, Snapshot.addref, \
       Uc.boot/deploy) is never released on any reachable path and the \
       site is not in the Lint.Sites transfer registry; release it, \
       register the transfer, or justify with (* seussown: transfer — \
       ... *)"
  | Own_exn_leak ->
      "this raise / failwith / invalid_arg fires while a resource \
       acquired in the same function is still owned on the path, so the \
       exception leaks it; release before raising or wrap in \
       Fun.protect"
  | Own_double_release ->
      "the resource was already released earlier on this path; a second \
       Frame.decref / Snapshot.decref / Uc.destroy either underflows \
       the refcount or double-frees"
  | Own_use_after_destroy ->
      "a liveness-requiring UC operation (connect, send, request, \
       resume, capture, prefault, ...) after Uc.destroy on the same \
       path reads resources destroy already released"
  | Own_unbalanced ->
      "one branch arm releases a resource owned before the branch while \
       a sibling arm keeps it owned, so ownership after the branch \
       depends on which arm ran; release on every arm or transfer \
       explicitly"

(* Meta-diagnostics the checker itself can emit. They are not
   suppressible — an allow comment that is wrong or dead is itself the
   defect being reported. *)
let bad_allow = "bad-allow"
let unused_allow = "unused-allow"
let parse_error = "parse-error"
let ambiguous_resolve = "ambiguous-resolve"
