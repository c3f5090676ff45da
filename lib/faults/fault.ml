type site =
  | Uc_kill
  | Capture_fail
  | Oom_storm
  | Net_drop
  | Net_delay
  | Partition
  | Node_crash
  | Registry_stale

let all_sites =
  [
    Uc_kill;
    Capture_fail;
    Oom_storm;
    Net_drop;
    Net_delay;
    Partition;
    Node_crash;
    Registry_stale;
  ]

let site_name = function
  | Uc_kill -> "uc_kill"
  | Capture_fail -> "capture_fail"
  | Oom_storm -> "oom_storm"
  | Net_drop -> "net_drop"
  | Net_delay -> "net_delay"
  | Partition -> "partition"
  | Node_crash -> "node_crash"
  | Registry_stale -> "registry_stale"

let site_of_name = function
  | "uc_kill" -> Some Uc_kill
  | "capture_fail" -> Some Capture_fail
  | "oom_storm" -> Some Oom_storm
  | "net_drop" -> Some Net_drop
  | "net_delay" -> Some Net_delay
  | "partition" -> Some Partition
  | "node_crash" -> Some Node_crash
  | "registry_stale" -> Some Registry_stale
  | _ -> None

exception Injected_crash of string

let crash detail = raise (Injected_crash detail)

type record = { time : float; site : site; detail : string }

type plan = {
  engine : Sim.Engine.t;
  rng : Sim.Prng.t;
  mutable rates : (site * float) list;
  delay_spike : float;
  mutable partitions : (int * int) list;
  mutable history : record list; (* newest first *)
}

(* The plan rides in the engine's fault-plan slot via the universal-type
   embedding, exactly like Trace contexts ride in the process-local slot. *)
exception Plan_slot of plan

let validate_rate site r =
  if not (Float.is_finite r) || r < 0.0 || r > 1.0 then
    invalid_arg
      (Printf.sprintf "Fault: rate for %s must be in [0,1] (got %g)"
         (site_name site) r)

let make ?seed ?(delay_spike = 0.02) ?(rates = []) engine =
  List.iter (fun (site, r) -> validate_rate site r) rates;
  let rng =
    match seed with
    | Some s -> Sim.Prng.create s
    | None -> Sim.Prng.split (Sim.Engine.rng engine)
  in
  { engine; rng; rates; delay_spike; partitions = []; history = [] }

let install plan =
  Sim.Engine.set_fault_plan plan.engine (Some (Plan_slot plan))

let uninstall engine = Sim.Engine.set_fault_plan engine None

let current () =
  match Sim.Engine.self_opt () with
  | None -> None
  | Some engine -> (
      match Sim.Engine.fault_plan engine with
      | Some (Plan_slot plan) -> Some plan
      | Some _ | None -> None)

let rate plan site =
  Option.value (List.assoc_opt site plan.rates) ~default:0.0

let set_rate plan site r =
  validate_rate site r;
  plan.rates <- (site, r) :: List.remove_assoc site plan.rates

let record plan site detail =
  plan.history <-
    { time = Sim.Engine.now plan.engine; site; detail } :: plan.history

let history plan = List.rev plan.history

let fired plan = List.length plan.history

(* One PRNG draw per check, taken from the plan's private stream — never
   from the engine's — so arming the plane cannot perturb workload
   randomness, and a zero rate (or no plan) draws nothing at all. *)
let plan_fire plan site ~detail =
  let r = rate plan site in
  r > 0.0
  && Sim.Prng.float plan.rng < r
  &&
  (record plan site detail;
   true)

let fire site ~detail =
  match current () with
  | None -> false
  | Some plan -> plan_fire plan site ~detail

let delay () =
  match current () with
  | None -> 0.0
  | Some plan ->
      if plan_fire plan Net_delay ~detail:"delay spike" then plan.delay_spike
      else 0.0

let pick plan n = Sim.Prng.int plan.rng n

let jitter plan = Sim.Prng.float plan.rng

(* {1 Partitions} *)

let ordered a b = if a <= b then (a, b) else (b, a)

let is_partitioned plan a b = List.mem (ordered a b) plan.partitions

let partition plan ~a ~b =
  let key = ordered a b in
  if not (List.mem key plan.partitions) then begin
    plan.partitions <- key :: plan.partitions;
    record plan Partition (Printf.sprintf "cut %d-%d" a b)
  end

let heal plan ~a ~b =
  let key = ordered a b in
  if List.mem key plan.partitions then begin
    plan.partitions <- List.filter (fun k -> k <> key) plan.partitions;
    record plan Partition (Printf.sprintf "heal %d-%d" a b)
  end

let schedule_partition plan ~a ~b ~after ~duration =
  Sim.Engine.schedule plan.engine ~delay:after (fun () ->
      partition plan ~a ~b;
      Sim.Engine.schedule plan.engine ~delay:duration (fun () ->
          heal plan ~a ~b))

let partitioned a b =
  match current () with
  | None -> false
  | Some plan -> is_partitioned plan a b
