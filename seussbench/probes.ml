(* Host probes: the host CPU cost of one operation of each layer, timed
   from outside by calling that layer's public functions on the
   workload's own inputs (its functions, its event-heap depth). A probe
   times [batches] batches of identical work and keeps the fastest
   per-operation cost: other load on the host can only slow a batch.

   The traced run multiplies each cost by the count of that operation in
   a replay to attribute the replay's host time to layers. Probes that
   nest are counted once, by the outer one: a deploy probe includes the
   page-table clone and the guest-restore faults it causes, so the mem
   share counts only the faults beyond those. *)

type costs = {
  ns_per_event : float;  (* engine dispatch at the replay's heap depth *)
  us_per_pt_clone : float;
  ns_per_cow_fault : float;
  us_per_compile : float array;  (* small, medium, large import profile *)
  us_per_run : float;
  us_per_cold_deploy : float;  (* from the base snapshot, plus destroy *)
  us_per_warm_deploy : float;  (* from a function snapshot, plus destroy *)
  faults_per_cold_deploy : float;
  faults_per_warm_deploy : float;
  us_per_insert : float;
  us_per_roundtrip : float;
  ns_per_emit : float;
}

let cpu = Workloads.cpu

let fastest xs = List.fold_left Float.min infinity xs

(* Fastest over batches of [batch ()], which returns (seconds, ops). *)
let per_op ~batches batch =
  fastest
    (List.init batches (fun _ ->
         let seconds, ops = batch () in
         seconds /. float_of_int ops))

let timed f =
  let t0 = cpu () in
  f ();
  cpu () -. t0

(* Pure dispatch: [depth] processes trading uneven sleeps keep the event
   heap at the depth the replay reached. *)
let dispatch ~depth () =
  let engine = Sim.Engine.create ~seed:1L () in
  let sleeps = max 1 (200_000 / depth) in
  for p = 1 to depth do
    Sim.Engine.spawn engine (fun () ->
        for i = 1 to sleeps do
          Sim.Engine.sleep (1e-4 *. float_of_int (1 + (((p * 7) + i) mod 13)))
        done)
  done;
  let seconds = timed (fun () -> Sim.Engine.run engine) in
  (seconds, (Sim.Engine.perf engine).Sim.Engine.dispatched)

let pt_clone (fx : Fixture.t) () =
  let n = 2000 in
  let table = fx.base.Seuss.Snapshot.table in
  ( timed (fun () ->
        for _ = 1 to n do
          Mem.Page_table.release (Mem.Page_table.clone_shallow table)
        done),
    n )

(* Write every page of the runtime region of a space deployed over the
   base snapshot: each write is a copy-on-write fault. *)
let cow_faults (fx : Fixture.t) () =
  let n = Unikernel.Image.node.Unikernel.Image.runtime_pages in
  let space =
    Mem.Addr_space.of_table
      ~mapped_hint:fx.base.Seuss.Snapshot.total_pages fx.env.Seuss.Osenv.frames
      fx.base.Seuss.Snapshot.table
  in
  let copies = ref 0 in
  let seconds =
    timed (fun () ->
        for vpn = Unikernel.Gconst.runtime_base to Unikernel.Gconst.runtime_base + n - 1 do
          if Mem.Addr_space.touch_write space ~vpn = Mem.Addr_space.Cow_copy then
            incr copies
        done)
  in
  Mem.Addr_space.release space;
  if !copies <> n then failwith "cow probe: runtime pages were not copy-on-write";
  (seconds, n)

let load i =
  match
    Interp.Minijs.load ~host:Interp.Builtins.null_host (Workload.Fnset.source i)
  with
  | Ok prog -> prog
  | Error e -> failwith ("compile probe: " ^ e)

let compile i () =
  let n = 20 in
  (timed (fun () -> for _ = 1 to n do ignore (load i) done), n)

let run_calls progs () =
  let seconds =
    timed (fun () ->
        List.iter
          (fun prog ->
            match
              Interp.Minijs.run_main prog
                ~args_literal:Platform.Workloads.args_literal
            with
            | Ok _ -> ()
            | Error e -> failwith ("run probe: " ^ e))
          progs)
  in
  (seconds, List.length progs)

let fault_count (fx : Fixture.t) =
  let m = fx.env.Seuss.Osenv.metrics in
  Obs.Metrics.sum_counters m "mem_cow_faults_total"
  + Obs.Metrics.sum_counters m "mem_zero_fills_total"

(* Deploy a UC, let its guest finish restoring, destroy it: the host
   work of a cold or warm deploy minus the function itself. Returns the
   batch time and the faults it took. *)
let deploys (fx : Fixture.t) snaps =
  let f0 = fault_count fx in
  let seconds =
    Fixture.run fx (fun () ->
        timed (fun () ->
            List.iter
              (fun snap ->
                let uc = Seuss.Uc.deploy fx.env snap in
                Sim.Engine.sleep 0.05;
                Seuss.Uc.destroy uc)
              snaps))
  in
  (seconds, fault_count fx - f0)

(* A function snapshot outside the node's cache, captured the way the
   cold path does: deploy from base, compile, capture at the breakpoint. *)
let capture (fx : Fixture.t) i =
  let uc = Seuss.Uc.deploy fx.env fx.base in
  let compiled =
    Seuss.Uc.connect uc
    && Seuss.Uc.send uc (Unikernel.Driver.Init (Workload.Fnset.source i))
    && Seuss.Uc.await_breakpoint uc ~timeout:60.0 = Some "compile-ok"
  in
  if not compiled then failwith "insert probe: capture failed";
  let snap = Seuss.Uc.capture uc ~env:fx.env ~name:(Printf.sprintf "probe-%d" i) in
  Seuss.Uc.resume uc;
  Seuss.Uc.destroy uc;
  snap

(* Inserts into a store whose index already holds the runtime's pages
   (the first, untimed insert), as it does for all but the first capture
   of a replay. *)
let inserts (fx : Fixture.t) fns () =
  Fixture.run fx (fun () ->
      let store =
        Seuss.Snapstore.create ~env:fx.env
          ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 1024))
          ~policy:Seuss.Config.Snap_lru
          ~on_evict:(fun ~fn_id:_ -> ())
      in
      let insert i =
        let snap = capture fx i in
        timed (fun () ->
            Seuss.Snapstore.insert store ~fn_id:(Workload.Fnset.fn_id i) snap)
      in
      let seconds =
        match fns with
        | [] -> invalid_arg "insert probe: no functions"
        | first :: rest ->
            ignore (insert first);
            List.fold_left (fun acc i -> acc +. insert i) 0.0 rest
      in
      Seuss.Snapstore.drain store;
      (seconds, List.length fns - 1))

(* Request/reply over an established proxy connection to a UC-side
   listener: the transport under every driver request. *)
let roundtrips (fx : Fixture.t) () =
  let n = 2000 in
  let port = Seuss.Osenv.fresh_port fx.env in
  let listener = Net.Tcp.listener ~port in
  Net.Proxy.register fx.env.Seuss.Osenv.proxy ~port listener;
  let seconds =
    Fixture.run fx (fun () ->
        Sim.Engine.spawn fx.engine (fun () ->
            let conn = Net.Tcp.accept listener in
            let rec echo () =
              match Net.Tcp.recv conn with
              | Some m ->
                  Net.Tcp.send conn m.Net.Tcp.data;
                  echo ()
              | None -> ()
            in
            echo ());
        match Net.Proxy.connect fx.env.Seuss.Osenv.proxy ~port with
        | None -> failwith "net probe: connect refused"
        | Some conn ->
            let seconds =
              timed (fun () ->
                  for _ = 1 to n do
                    Net.Tcp.send conn "ping";
                    ignore (Net.Tcp.recv conn)
                  done)
            in
            Net.Tcp.close conn;
            seconds)
  in
  Net.Proxy.unregister fx.env.Seuss.Osenv.proxy ~port;
  (seconds, n)

(* Emission into a node log whose ring is already full, as it is for
   most of a replay. *)
let emits (env : Seuss.Osenv.t) () =
  let n = 100_000 in
  let ev = Obs.Event.Invoke_start { fn_id = "zf-0" } in
  (timed (fun () -> for _ = 1 to n do Seuss.Osenv.emit env ev done), n)

let measure ?(batches = 5) (fx : Fixture.t) ~sample ~depth =
  let per_op = per_op ~batches in
  let warm_snaps =
    List.map
      (fun i ->
        match Seuss.Node.function_snapshot fx.node (Workload.Fnset.fn_id i) with
        | Some s -> s
        | None -> failwith "warm probe: no function snapshot")
      sample
  in
  let deploy_cost snaps =
    let results = List.init batches (fun _ -> deploys fx snaps) in
    let n = float_of_int (List.length snaps) in
    ( fastest (List.map (fun (s, _) -> s /. n) results),
      float_of_int (snd (List.hd results)) /. n )
  in
  let cold_s, cold_faults = deploy_cost (List.init 20 (fun _ -> fx.base)) in
  let warm_s, warm_faults = deploy_cost warm_snaps in
  let progs = List.map load sample in
  let log_env = Seuss.Osenv.create fx.engine in
  ignore (emits log_env ());
  {
    ns_per_event = 1e9 *. per_op (dispatch ~depth);
    us_per_pt_clone = 1e6 *. per_op (pt_clone fx);
    ns_per_cow_fault = 1e9 *. per_op (cow_faults fx);
    (* the most popular function of each import profile: ranks 0, 14, 19 *)
    us_per_compile =
      Array.map (fun i -> 1e6 *. per_op (compile i)) [| 0; 14; 19 |];
    us_per_run = 1e6 *. per_op (run_calls progs);
    us_per_cold_deploy = 1e6 *. cold_s;
    us_per_warm_deploy = 1e6 *. warm_s;
    faults_per_cold_deploy = cold_faults;
    faults_per_warm_deploy = warm_faults;
    us_per_insert =
      (* nine distinct functions, padded with the top ranks *)
      1e6
      *. per_op
           (inserts fx
              (List.filteri
                 (fun k _ -> k < 9)
                 (List.sort_uniq compare (sample @ List.init 9 Fun.id))));
    us_per_roundtrip = 1e6 *. per_op (roundtrips fx);
    ns_per_emit = 1e9 *. per_op (emits log_env);
  }
