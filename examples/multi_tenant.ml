(* Multi-tenant density: hundreds of mutually-isolated client functions
   cached on one node.

     dune exec examples/multi_tenant.exe

   Demonstrates the paper's two headline memory properties: function
   snapshots stack on one shared runtime snapshot (so each tenant costs
   megabytes, not a full runtime), and isolation holds — every tenant's
   counter state is private even though all tenants share >95% of their
   pages. Finally, memory pressure triggers the OOM reclaimer, which
   evicts idle UCs but never snapshots. *)

let tenants = 200

let tenant_source =
  (* Each tenant keeps private state across hot invocations. *)
  {|
  let calls = 0;
  function main(args) {
    calls = calls + 1;
    return {tenant: args.tenant, calls: calls};
  }
|}

let gib = Int64.of_int (Mem.Mconfig.mib 1024)

let () =
  let engine = Sim.Engine.create ~seed:2L () in
  Sim.Engine.spawn engine ~name:"multi-tenant" (fun () ->
      (* A deliberately small 4 GB node so the OOM daemon has work. *)
      let env = Seuss.Osenv.create ~budget_bytes:(Int64.mul 4L gib) engine in
      let node = Seuss.Node.create env in
      Seuss.Node.start node;

      let fn i =
        {
          Seuss.Node.fn_id = Printf.sprintf "tenant-%03d" i;
          runtime = Unikernel.Image.Node;
          source = tenant_source;
        }
      in
      let invoke i =
        match
          Seuss.Node.invoke node (fn i)
            ~args:(Printf.sprintf "{tenant: %d}" i)
        with
        | Ok result, _ -> result
        | Error _, _ -> failwith "invocation failed"
      in

      Printf.printf "onboarding %d tenants (one cold start each)...\n" tenants;
      for i = 1 to tenants do
        ignore (invoke i)
      done;
      Printf.printf "  snapshots cached: %d, idle UCs: %d\n"
        (Seuss.Node.snapshot_count node)
        (Seuss.Node.idle_uc_count node);
      Printf.printf "  node memory in use: %.2f GB of 4 GB\n"
        (Int64.to_float
           (Int64.sub (Int64.mul 4L gib) (Seuss.Node.free_bytes node))
        /. 1.073741824e9);

      (* Hot calls mutate only the tenant's own state. *)
      let r7 = invoke 7 and r7' = invoke 7 and r9 = invoke 9 in
      Printf.printf "\nisolation check:\n  tenant 7: %s then %s\n  tenant 9: %s\n"
        r7 r7' r9;

      (* Average marginal memory per cached tenant. *)
      let idle = Seuss.Node.idle_ucs node in
      let total_private =
        List.fold_left
          (fun acc uc -> Int64.add acc (Seuss.Uc.footprint_bytes uc))
          0L idle
      in
      if idle <> [] then
        Printf.printf "\nmean idle-UC footprint: %.2f MB (%d cached)\n"
          (Int64.to_float total_private
          /. float_of_int (List.length idle)
          /. 1048576.0)
          (List.length idle);

      (* Force pressure: deploy idle runtime UCs until the reclaimer has
         to act. *)
      let before = Seuss.Node.idle_uc_count node in
      let deployed = ref 0 in
      while
        !deployed < 3000 && Seuss.Node.deploy_idle node Unikernel.Image.Node
      do
        incr deployed
      done;
      let reclaimed = Seuss.Node.reclaim_idle_ucs node in
      let s = Seuss.Node.stats node in
      Printf.printf
        "\nmemory pressure: deployed %d extra UCs; OOM daemon reclaimed %d \
         idle UCs\n(idle %d -> %d; snapshots still cached: %d)\n"
        !deployed
        (s.Seuss.Node.reclaimed_ucs + reclaimed)
        before
        (Seuss.Node.idle_uc_count node)
        (Seuss.Node.snapshot_count node);
      (* Tenants still work after reclamation (warm path). *)
      Printf.printf "\ntenant 7 after reclamation: %s\n" (invoke 7));
  Sim.Engine.run engine
