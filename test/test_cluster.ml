(* Tests for DR-SEUSS: the snapshot registry, cross-node snapshot import
   and the cluster scheduler. *)

let gib n = Int64.mul (Int64.of_int n) (Int64.of_int (Mem.Mconfig.mib 1024))

let in_sim ?(seed = 19L) body =
  let engine = Sim.Engine.create ~seed () in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"test" (fun () -> result := Some (body engine));
  Sim.Engine.run engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation did not complete"

let nop_fn id =
  {
    Seuss.Node.fn_id = id;
    runtime = Unikernel.Image.Node;
    source = "function main(args) { return {}; }";
  }

let with_cluster ?(nodes = 3) body =
  in_sim (fun engine ->
      let c = Cluster.Drseuss.create ~nodes ~budget_per_node:(gib 6) engine in
      body engine c)

(* {1 Registry} *)

let test_registry_publish_locate () =
  with_cluster ~nodes:2 (fun _engine c ->
      let reg = Cluster.Registry.create () in
      let node = List.hd (Cluster.Drseuss.nodes c) in
      ignore (Seuss.Node.invoke node (nop_fn "f") ~args:"{}");
      let snap = Option.get (Seuss.Node.function_snapshot node "f") in
      Cluster.Registry.publish reg ~fn_id:"f" ~node_id:0 snap;
      Alcotest.(check int) "one entry" 1 (Cluster.Registry.entries reg);
      Alcotest.(check int) "one holder" 1
        (List.length (Cluster.Registry.locate reg ~fn_id:"f"));
      let holders () =
        List.sort compare
          (List.map
             (fun l -> l.Cluster.Registry.node_id)
             (Cluster.Registry.locate reg ~fn_id:"f"))
      in
      Cluster.Registry.publish reg ~fn_id:"f" ~node_id:1 snap;
      Alcotest.(check (list int)) "held by 0 and 1" [ 0; 1 ] (holders ());
      Alcotest.(check (list string)) "node 1 holds f" [ "f" ]
        (Cluster.Registry.held_by reg ~node_id:1);
      Cluster.Registry.evict reg ~fn_id:"f" ~node_id:1;
      Alcotest.(check (list int)) "back to one holder" [ 0 ] (holders ());
      Alcotest.(check (list string)) "node 1 holds nothing" []
        (Cluster.Registry.held_by reg ~node_id:1))

let test_registry_filters_deleted () =
  with_cluster ~nodes:1 (fun _engine c ->
      let reg = Cluster.Registry.create () in
      let node = List.hd (Cluster.Drseuss.nodes c) in
      ignore (Seuss.Node.invoke node (nop_fn "g") ~args:"{}");
      Seuss.Node.drop_idle node ~fn_id:"g";
      let snap = Option.get (Seuss.Node.function_snapshot node "g") in
      Cluster.Registry.publish reg ~fn_id:"g" ~node_id:0 snap;
      let env = Seuss.Node.env node in
      Alcotest.(check bool) "deletable" true (Seuss.Snapshot.try_delete ~env snap);
      Alcotest.(check int) "deleted holder filtered" 0
        (List.length (Cluster.Registry.locate reg ~fn_id:"g")))

(* {1 Snapshot import} *)

let test_import_builds_local_stack () =
  with_cluster ~nodes:2 (fun _engine c ->
      match Cluster.Drseuss.nodes c with
      | [ n0; n1 ] ->
          ignore (Seuss.Node.invoke n0 (nop_fn "h") ~args:"{}");
          let remote = Option.get (Seuss.Node.function_snapshot n0 "h") in
          let local_base =
            Option.get (Seuss.Node.base_snapshot n1 Unikernel.Image.Node)
          in
          let env1 = Seuss.Node.env n1 in
          let imported =
            Seuss.Snapshot.import ~env:env1 ~name:"h-copy" ~local_base ~remote
              ~transfer_time:(Cluster.Drseuss.transfer_time remote)
          in
          Alcotest.(check int) "same diff size"
            remote.Seuss.Snapshot.diff_pages
            imported.Seuss.Snapshot.diff_pages;
          Alcotest.(check int) "stacked on local base" 2
            (Seuss.Snapshot.depth imported);
          (* Deployable: run the function from the imported snapshot. *)
          Seuss.Node.install_snapshot n1 ~fn_id:"h" imported;
          (match Seuss.Node.invoke n1 (nop_fn "h") ~args:"{}" with
          | Ok _, Seuss.Node.Warm -> ()
          | Ok _, _ -> Alcotest.fail "expected warm path from import"
          | Error _, _ -> Alcotest.fail "imported snapshot not runnable")
      | _ -> Alcotest.fail "expected two nodes")

let test_import_rejects_mismatch () =
  with_cluster ~nodes:2 (fun _engine c ->
      match Cluster.Drseuss.nodes c with
      | [ n0; n1 ] ->
          let base0 = Option.get (Seuss.Node.base_snapshot n0 Unikernel.Image.Node) in
          let base1 = Option.get (Seuss.Node.base_snapshot n1 Unikernel.Image.Node) in
          let env1 = Seuss.Node.env n1 in
          Alcotest.(check bool) "base as remote rejected" true
            (match
               Seuss.Snapshot.import ~env:env1 ~name:"x" ~local_base:base1
                 ~remote:base0 ~transfer_time:0.01
             with
            | _ -> false
            | exception Invalid_argument _ -> true)
      | _ -> Alcotest.fail "expected two nodes")

(* {1 Cluster scheduling} *)

let test_cluster_cold_then_fetch () =
  with_cluster ~nodes:3 (fun _engine c ->
      let fn = nop_fn "shared" in
      let invoke () = Cluster.Drseuss.invoke c fn ~args:"{}" in
      (match invoke () with
      | Ok _, Cluster.Drseuss.Cluster_cold -> ()
      | Ok _, _ -> Alcotest.fail "first should be a cluster cold"
      | Error _, _ -> Alcotest.fail "invocation failed");
      (* Next two route to the other nodes: they fetch instead of
         compiling from scratch. *)
      (match invoke () with
      | Ok _, Cluster.Drseuss.Remote_fetch -> ()
      | Ok _, _ -> Alcotest.fail "second should be a remote fetch"
      | Error _, _ -> Alcotest.fail "invocation failed");
      (match invoke () with
      | Ok _, Cluster.Drseuss.Remote_fetch -> ()
      | Ok _, _ -> Alcotest.fail "third should be a remote fetch"
      | Error _, _ -> Alcotest.fail "invocation failed");
      (* Fourth wraps around to a node that already holds it. *)
      (match invoke () with
      | Ok _, Cluster.Drseuss.Local _ -> ()
      | Ok _, _ -> Alcotest.fail "fourth should be local"
      | Error _, _ -> Alcotest.fail "invocation failed");
      let s = Cluster.Drseuss.stats c in
      Alcotest.(check int) "one cluster cold" 1 s.Cluster.Drseuss.cluster_colds;
      Alcotest.(check int) "two fetches" 2 s.Cluster.Drseuss.remote_fetches;
      Alcotest.(check bool) "bytes moved" true
        (Int64.compare s.Cluster.Drseuss.bytes_transferred 0L > 0))

let test_fetch_faster_than_cold () =
  with_cluster ~nodes:2 (fun engine c ->
      let fn = nop_fn "timing" in
      let timed () =
        let t0 = Sim.Engine.now engine in
        match Cluster.Drseuss.invoke c fn ~args:"{}" with
        | Ok _, source -> (Sim.Engine.now engine -. t0, source)
        | Error _, _ -> Alcotest.fail "invocation failed"
      in
      let d_cold, s1 = timed () in
      let d_fetch, s2 = timed () in
      Alcotest.(check bool) "sources" true
        (s1 = Cluster.Drseuss.Cluster_cold && s2 = Cluster.Drseuss.Remote_fetch);
      (* Fetch = transfer (~2 ms for a 2 MB diff) + warm deploy: cheaper
         than a full import+compile cold start. *)
      Alcotest.(check bool) "fetch beats cold" true (d_fetch < d_cold))

let test_cluster_spreads_load () =
  with_cluster ~nodes:3 (fun engine c ->
      (* 9 concurrent distinct functions: every node should do work. *)
      let remaining = ref 9 in
      let done_ = Sim.Ivar.create () in
      for i = 1 to 9 do
        Sim.Engine.spawn engine (fun () ->
            (match
               Cluster.Drseuss.invoke c (nop_fn (Printf.sprintf "spread-%d" i))
                 ~args:"{}"
             with
            | Ok _, _ -> ()
            | Error _, _ -> Alcotest.fail "invocation failed");
            decr remaining;
            if !remaining = 0 then Sim.Ivar.fill done_ ())
      done;
      Sim.Ivar.read done_;
      let per_node =
        List.map
          (fun n -> (Seuss.Node.stats n).Seuss.Node.cold)
          (Cluster.Drseuss.nodes c)
      in
      List.iter
        (fun colds -> Alcotest.(check bool) "every node served" true (colds > 0))
        per_node)

let test_isolation_across_nodes () =
  with_cluster ~nodes:2 (fun _engine c ->
      let fn =
        {
          Seuss.Node.fn_id = "stateful";
          runtime = Unikernel.Image.Node;
          source = "let n = 0; function main(a) { n = n + 1; return n; }";
        }
      in
      let invoke () =
        match Cluster.Drseuss.invoke c fn ~args:"{}" with
        | Ok r, _ -> r
        | Error _, _ -> Alcotest.fail "invocation failed"
      in
      (* Node 0 cold (runs once), node 1 fetches the post-compile
         snapshot (counter still 0 in the snapshot) and runs once. *)
      Alcotest.(check string) "node 0 first run" "1" (invoke ());
      Alcotest.(check string) "node 1 starts from the snapshot" "1" (invoke ()))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cluster"
    [
      ( "registry",
        [
          case "publish locate" test_registry_publish_locate;
          case "filters deleted" test_registry_filters_deleted;
        ] );
      ( "import",
        [
          case "builds local stack" test_import_builds_local_stack;
          case "rejects mismatch" test_import_rejects_mismatch;
        ] );
      ( "scheduling",
        [
          case "cold then fetch" test_cluster_cold_then_fetch;
          case "fetch faster than cold" test_fetch_faster_than_cold;
          case "spreads load" test_cluster_spreads_load;
          case "isolation across nodes" test_isolation_across_nodes;
        ] );
    ]
