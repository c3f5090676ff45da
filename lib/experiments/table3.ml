type row = {
  name : string;
  density : int;
  rate : float;
  per_instance_bytes : int64;
}

type result = {
  budget_bytes : int64;
  firecracker : row;
  docker : row;
  process : row;
  seuss : row;
}

let fill ~cap create =
  let n = ref 0 in
  while !n < cap && create () do
    incr n
  done;
  !n

let parallel_rate ~count create =
  let engine = Sim.Engine.self () in
  let started = Sim.Engine.now engine in
  let created = ref 0 and stopped = ref false in
  let done_ = Sim.Ivar.create () in
  let workers = ref 16 in
  for _ = 1 to 16 do
    Sim.Engine.spawn engine ~name:"creator" (fun () ->
        let rec go () =
          if !created < count && not !stopped then
            if create () then begin
              incr created;
              go ()
            end
            else stopped := true
        in
        go ();
        decr workers;
        if !workers = 0 then Sim.Ivar.fill done_ ())
  done;
  Sim.Ivar.read done_;
  let elapsed = Sim.Engine.now engine -. started in
  if elapsed <= 0.0 then 0.0 else float_of_int !created /. elapsed

let density_cap = 200_000

(* Each measurement runs on a fresh node, like the paper's trials. *)
let measure_backend ~seed ~budget_bytes ~rate_sample ~name make =
  let density =
    Harness.run_sim ~seed (fun engine ->
        let env = Seuss.Osenv.create ~budget_bytes engine in
        let create = make env in
        fill ~cap:density_cap create)
  in
  let sample =
    match rate_sample with Some n -> min n density | None -> density
  in
  let rate =
    Harness.run_sim ~seed (fun engine ->
        let env = Seuss.Osenv.create ~budget_bytes engine in
        let create = make env in
        parallel_rate ~count:sample create)
  in
  {
    name;
    density;
    rate;
    per_instance_bytes =
      (if density = 0 then 0L
       else Int64.div budget_bytes (Int64.of_int density));
  }

let run ?(budget_bytes = Harness.default_budget) ?rate_sample ?(seed = 13L) ()
    =
  let firecracker =
    measure_backend ~seed ~budget_bytes ~rate_sample ~name:"Firecracker microVM"
      (fun env ->
        let b =
          Baselines.Firecracker_backend.backend
            (Baselines.Firecracker_backend.create env)
        in
        b.Baselines.Backend_intf.create_instance)
  in
  let docker =
    measure_backend ~seed ~budget_bytes ~rate_sample
      ~name:"Docker w/ overlay2 fs" (fun env ->
        let bridge =
          Net.Bridge.create ~rng:(Sim.Prng.split env.Seuss.Osenv.rng) ()
        in
        let b =
          Baselines.Docker_backend.backend
            (Baselines.Docker_backend.create env bridge)
        in
        b.Baselines.Backend_intf.create_instance)
  in
  let process =
    measure_backend ~seed ~budget_bytes ~rate_sample ~name:"Linux process"
      (fun env ->
        let b =
          Baselines.Process_backend.backend
            (Baselines.Process_backend.create env)
        in
        b.Baselines.Backend_intf.create_instance)
  in
  let seuss_rate_sample =
    match rate_sample with Some n -> Some n | None -> Some 4_000
  in
  let seuss =
    measure_backend ~seed ~budget_bytes ~rate_sample:seuss_rate_sample
      ~name:"SEUSS UC" (fun env ->
        let node = Harness.seuss_node env in
        let shim = Seuss.Shim.create env node in
        fun () -> Seuss.Shim.deploy_idle shim Unikernel.Image.Node)
  in
  { budget_bytes; firecracker; docker; process; seuss }

let paper_rows =
  let rate dp v = Report.f ~unit:"/s" dp v in
  [
    ("Firecracker microVM", 450, rate 1 1.3);
    ("Docker w/ overlay2 fs", 3000, rate 1 5.3);
    ("Linux process", 4200, rate 0 45.0);
    ("SEUSS UC", 54000, rate 1 128.6);
  ]

let report r =
  let open Report in
  let gib = Printf.sprintf "%g" (Int64.to_float r.budget_bytes /. 1073741824.0) in
  let rows =
    List.concat_map
      (fun row ->
        let paper_density, paper_rate =
          match List.find_opt (fun (n, _, _) -> n = row.name) paper_rows with
          | Some (_, density, rate) -> (Int density, rate)
          | None -> (Text "?", Text "?")
        in
        [
          ( row.name ^ " — cache density",
            paper_density,
            Text
              (Printf.sprintf "%d (%.1f MB each)" row.density
                 (Int64.to_float row.per_instance_bytes /. 1048576.0)) );
          (row.name ^ " — creation rate", paper_rate, per_s row.rate);
        ])
      [ r.firecracker; r.docker; r.process; r.seuss ]
  in
  {
    title = "Table 3: cache density and 16-way parallel creation rate";
    sections =
      [
        params [ ("figure", Text "table3"); ("budget_bytes", Int64 r.budget_bytes) ];
        text
          (Printf.sprintf
             "Idle Node.js runtime environments on %s %s GB / 16-VCPU node.\n\
              SEUSS creations relayed through the shim (its single TCP\n\
              connection bounds the rate, as in the paper).\n\n"
             (if gib.[0] = '8' || gib = "11" || gib = "18" then "an" else "a")
             gib);
        comparison rows;
      ];
  }
