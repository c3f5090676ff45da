(* The seusslint rule catalogue. Every rule guards one way simulation
   determinism, resource safety or host speed has actually broken (or
   nearly broken) in this codebase. *)

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
  | Poly_cmp
      (** polymorphic [compare]/[=]/[min]/[max]/[Hashtbl.hash] in
          lib/sim, lib/mem, lib/obs or lib/workload *)

let all =
  [
    Bare_random; Wallclock; Hashtbl_order; Physical_eq; Stdout_print;
    Frame_site; Ambient_env; Poly_cmp;
  ]

let name = function
  | Bare_random -> "bare-random"
  | Wallclock -> "wallclock"
  | Hashtbl_order -> "hashtbl-order"
  | Physical_eq -> "physical-eq"
  | Stdout_print -> "stdout-print"
  | Frame_site -> "frame-site"
  | Ambient_env -> "ambient-env"
  | Poly_cmp -> "poly-cmp"

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
  | Poly_cmp ->
      "polymorphic compare/=/min/max/Hashtbl.hash in lib/sim, lib/mem, \
       lib/obs or lib/workload is a C call that walks the representation \
       on the simulator's hot layers; use the monomorphic Int/Float/String \
       comparison, or literal comparisons the compiler specializes. It \
       allocates nothing, so no word budget sees it"

(* Meta-diagnostics the checker itself can emit. They are not
   suppressible — an allow comment that is wrong or dead is itself the
   defect being reported. *)
let bad_allow = "bad-allow"
let unused_allow = "unused-allow"
let parse_error = "parse-error"
