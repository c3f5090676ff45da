type site =
  | Uc_kill
  | Capture_fail
  | Oom_storm
  | Net_drop
  | Net_delay
  | Node_crash
  | Registry_stale

let all_sites =
  [
    Uc_kill;
    Capture_fail;
    Oom_storm;
    Net_drop;
    Net_delay;
    Node_crash;
    Registry_stale;
  ]

let site_name = function
  | Uc_kill -> "uc_kill"
  | Capture_fail -> "capture_fail"
  | Oom_storm -> "oom_storm"
  | Net_drop -> "net_drop"
  | Net_delay -> "net_delay"
  | Node_crash -> "node_crash"
  | Registry_stale -> "registry_stale"

type record = { time : float; site : site; detail : string }

type plan = {
  engine : Sim.Engine.t;
  rng : Sim.Prng.t;
  mutable rates : (site * float) list;
  mutable history : record list; (* newest first *)
}

(* The plan is the engine-wide value of this key. *)
let key : plan Sim.Engine.key = Sim.Engine.new_key ()

let validate_rate site r =
  if not (Float.is_finite r) || r < 0.0 || r > 1.0 then
    invalid_arg
      (Printf.sprintf "Fault: rate for %s must be in [0,1] (got %g)"
         (site_name site) r)

(* The send stall injected when [Net_delay] fires. *)
let delay_spike = 0.02

let make ?seed ?(rates = []) engine =
  List.iter (fun (site, r) -> validate_rate site r) rates;
  let rng =
    match seed with
    | Some s -> Sim.Prng.create s
    | None -> Sim.Prng.split (Sim.Engine.rng engine)
  in
  { engine; rng; rates; history = [] }

let install plan = Sim.Engine.set_global plan.engine key (Some plan)

let uninstall engine = Sim.Engine.set_global engine key None

let current () =
  match Sim.Engine.self_opt () with
  | None -> None
  | Some engine -> Sim.Engine.get_global engine key

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
  (record plan site (detail ());
   true)

let fire site ~detail =
  match current () with
  | None -> false
  | Some plan -> plan_fire plan site ~detail

let delay () =
  match current () with
  | None -> 0.0
  | Some plan ->
      if plan_fire plan Net_delay ~detail:(fun () -> "delay spike") then
        delay_spike
      else 0.0

let pick plan n = Sim.Prng.int plan.rng n

let jitter plan = Sim.Prng.float plan.rng
