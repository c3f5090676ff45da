(* The seusslint rule catalogue. Every rule guards one way simulation
   determinism, resource safety or liveness has actually broken (or
   nearly broken) in this codebase. Which pass enforces a rule is the
   pass table's business ({!Passes}). *)

type id =
  | Bare_random  (** [Random.*] outside the seeded PRNG plumbing *)
  | Wallclock  (** [Unix.gettimeofday] / [Sys.time] inside lib/ *)
  | Hashtbl_order
      (** a raw [Hashtbl] bucket-order enumerator ([iter], [fold],
          [filter_map_inplace], [to_seq], [to_seq_keys],
          [to_seq_values]) inside lib/ *)
  | Physical_eq  (** [==] / [!=] inside lib/ *)
  | Stdout_print  (** [print_*] / [Printf.printf] inside lib/ *)
  | Frame_site  (** frame acquire/release outside the audited site list *)
  | Ambient_env
      (** [Sys.getenv] / [Unix.environment] inside lib/, outside the
          run configuration *)
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

let all =
  [
    Bare_random; Wallclock; Hashtbl_order; Physical_eq; Stdout_print;
    Frame_site; Ambient_env; Heat_closure; Heat_alloc;
    Heat_string; Heat_float_box; Heat_poly_cmp; Heat_partial;
  ]

let name = function
  | Bare_random -> "bare-random"
  | Wallclock -> "wallclock"
  | Hashtbl_order -> "hashtbl-order"
  | Physical_eq -> "physical-eq"
  | Stdout_print -> "stdout-print"
  | Frame_site -> "frame-site"
  | Ambient_env -> "ambient-env"
  | Heat_closure -> "heat-closure"
  | Heat_alloc -> "heat-alloc"
  | Heat_string -> "heat-string"
  | Heat_float_box -> "heat-float-box"
  | Heat_poly_cmp -> "heat-poly-cmp"
  | Heat_partial -> "heat-partial-apply"

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
      "Hashtbl.iter / fold / filter_map_inplace / to_seq / to_seq_keys / \
       to_seq_values visit buckets in insertion-history order; results \
       that reach output, the event heap or teardown must go through the \
       sorted Det wrappers"
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

(* Meta-diagnostics the checker itself can emit. They are not
   suppressible — an allow comment that is wrong or dead is itself the
   defect being reported. *)
let bad_allow = "bad-allow"
let unused_allow = "unused-allow"
let parse_error = "parse-error"
let ambiguous_resolve = "ambiguous-resolve"
let stale_root = "stale-hot-root"
