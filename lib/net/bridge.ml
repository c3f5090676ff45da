type config = {
  safe_endpoints : int;
  broadcast_cost : float;
  drop_base : float;
}

let default_config =
  { safe_endpoints = 1024; broadcast_cost = 1.2e-6; drop_base = 0.04 }

type t = {
  cfg : config;
  rng : Sim.Prng.t;
  kernel : Sim.Semaphore.t;  (* serialized bridge broadcast processing *)
  mutable n_endpoints : int;
  mutable inflight_connects : int;
  mutable dropped : int;
  mutable failed : int;
}

let create ?(config = default_config) ~rng () =
  {
    cfg = config;
    rng;
    kernel = Sim.Semaphore.create 1;
    n_endpoints = 0;
    inflight_connects = 0;
    dropped = 0;
    failed = 0;
  }

let config t = t.cfg

let add_endpoint t =
  (* The new endpoint announces itself (ARP/DHCP); every broadcast is
     processed once per attached endpoint, under the bridge lock. *)
  Sim.Semaphore.with_permit t.kernel (fun () ->
      Sim.Engine.sleep
        (t.cfg.broadcast_cost *. float_of_int (t.n_endpoints + 1)));
  t.n_endpoints <- t.n_endpoints + 1

let remove_endpoint t =
  if t.n_endpoints <= 0 then invalid_arg "Bridge.remove_endpoint: none attached";
  t.n_endpoints <- t.n_endpoints - 1

let drop_probability t =
  let load = float_of_int t.n_endpoints /. float_of_int t.cfg.safe_endpoints in
  let concurrency = 1.0 +. (float_of_int t.inflight_connects /. 8.0) in
  Float.min 0.9 (t.cfg.drop_base *. load *. load *. concurrency)

let connect t listener =
  t.inflight_connects <- t.inflight_connects + 1;
  let admit () =
    let p = drop_probability t in
    let ok = Sim.Prng.float t.rng >= p in
    if not ok then t.dropped <- t.dropped + 1;
    ok
  in
  let result = Tcp.connect ~admit ~link:Netconf.loopback listener in
  t.inflight_connects <- t.inflight_connects - 1;
  if Option.is_none result then t.failed <- t.failed + 1;
  result

let dropped_syns t = t.dropped

let failed_connects t = t.failed
