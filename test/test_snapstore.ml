(* Property/differential battery for the content-addressed snapshot
   store (lib/seuss/snapstore.ml), driven end-to-end through real nodes:
   every schedule boots a SEUSS node inside the simulator, invokes a
   small function corpus under a PRNG-drawn cache budget and eviction
   policy, and checks the full invariant set after every operation —
   the store's own self-check, exact frame refcounts recomputed from a
   page-table walk of every live snapshot, the byte budget, and the
   node-mirror equality. Schedules are a deterministic function of the
   seed (Sim.Prng, same convention as test_mem_prop), so a failure
   report names the exact (seed, schedule, step) to replay.

   Differential families:
   - an armed store under an effectively unlimited budget must serve the
     same schedule with the same (path, result) sequence as an unarmed
     node, and leave every function snapshot with an identical page-table
     shape (same vpns and flags; only frame ids may differ — that is
     what dedup rewrites);
   - SEUSS_SNAP_CACHE=0 must be bit-identical to unset (the disarmed
     default) for a harness-built experiment;
   - after every schedule operation the store's next eviction victim
     must equal a reference scan (a Det-ordered fold scoring members
     with tuples under polymorphic compare, as the store once did);
   - content hashes must equal djb2 over the formatted content key.

   SEUSS_PROP_SEED overrides the base seed (see Prop_seed). *)

module F = Mem.Frame
module PT = Mem.Page_table

let base_seed = Prop_seed.base ~default:23L

let schedules = 200

(* Sources repeat every 5 ranks so distinct functions genuinely share
   their compiled-bytecode tail pages, not just the runtime image. *)
let prop_fn k =
  {
    Seuss.Node.fn_id = Printf.sprintf "prop-%d" k;
    runtime = Unikernel.Image.Node;
    source =
      Printf.sprintf "function main(args) { return {fn: %d}; }" (k mod 5);
  }

let path_label = function
  | Seuss.Node.Cold -> "cold"
  | Seuss.Node.Warm -> "warm"
  | Seuss.Node.Hot -> "hot"

(* {1 Invariant checks} *)

(* The reference victim scan: fold the members in fn_id order, score
   each as a (has working set, working-set ratio, last use, fn_id) tuple
   and keep the first minimum under polymorphic compare. *)
let reference_victim store =
  let members = Hashtbl.create 16 in
  List.iter
    (fun (fn_id, snap) -> Hashtbl.replace members fn_id snap)
    (Seuss.Snapstore.members store);
  let score fn_id snap =
    let info =
      match Seuss.Snapstore.member_info store fn_id with
      | Some i -> i
      | None -> Alcotest.failf "member %s has no info" fn_id
    in
    let last_used = info.Seuss.Snapstore.last_used in
    match Seuss.Snapstore.policy store with
    | Seuss.Config.Snap_lru -> (0.0, 0.0, last_used, fn_id)
    | Seuss.Config.Snap_ws ->
        let ws_pages =
          match Seuss.Snapshot.working_set snap with
          | Some ws -> List.length (Array.to_list ws)
          | None -> 0
        in
        let has_ws = if ws_pages > 0 then 1.0 else 0.0 in
        let ratio =
          float_of_int ws_pages
          /. float_of_int (max 1 info.Seuss.Snapstore.delta_pages)
        in
        (has_ws, ratio, last_used, fn_id)
  in
  Det.fold
    (fun fn_id snap best ->
      if Seuss.Snapshot.dependents snap > 0 || Seuss.Snapshot.is_deleted snap
      then best
      else
        let s = score fn_id snap in
        match best with
        | Some (_, bs) when compare bs s <= 0 -> best
        | _ -> Some (fn_id, s))
    members None
  |> Option.map fst

(* Every live snapshot table: bases plus the function-snapshot mirror.
   With the idle-UC cache off the node destroys each serving UC before
   [invoke] returns, so at an op boundary these tables are the only
   frame holders in the environment. *)
let live_tables node =
  let bases =
    List.filter_map
      (fun img -> Seuss.Node.base_snapshot node img.Unikernel.Image.runtime)
      (Seuss.Node.config node).Seuss.Config.runtimes
  in
  let fns = List.map snd (Seuss.Node.snapshot_inventory node) in
  List.map (fun s -> s.Seuss.Snapshot.table) (bases @ fns)

let check_refcounts ~ctx env node =
  let frames = env.Seuss.Osenv.frames in
  let expected = PT.expected_refcounts (live_tables node) in
  let live = Hashtbl.length expected and used = F.used_frames frames in
  if live <> used then
    Alcotest.failf "%s: tables reference %d frames, allocator holds %d" ctx
      live used;
  Hashtbl.iter
    (fun fr rc ->
      let actual = F.refcount frames fr in
      if actual <> rc then
        Alcotest.failf "%s: frame %d refcount %d, tables imply %d" ctx fr
          actual rc)
    expected

let check_node ~ctx env node =
  (match Seuss.Node.snapstore node with
  | None -> ()
  | Some store ->
      let victim = Seuss.Snapstore.victim_id store
      and reference = reference_victim store in
      if victim <> reference then
        Alcotest.failf "%s: victim %s, reference scan picks %s" ctx
          (Option.value ~default:"-" victim)
          (Option.value ~default:"-" reference);
      (match Seuss.Snapstore.check store with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s: store self-check: %s" ctx
            (String.concat "; " vs));
      if
        Seuss.Snapstore.member_count store <> Seuss.Node.snapshot_count node
      then
        Alcotest.failf "%s: store has %d members, node mirror has %d" ctx
          (Seuss.Snapstore.member_count store)
          (Seuss.Node.snapshot_count node);
      (* Schedules are serial, so nothing is pinned between ops and the
         budget must bind exactly (eviction happens inside insert). *)
      let resident = Seuss.Snapstore.resident_bytes store
      and budget = Seuss.Snapstore.budget_bytes store in
      if Int64.compare resident budget > 0 then
        Alcotest.failf "%s: resident %Ld bytes over budget %Ld" ctx resident
          budget);
  check_refcounts ~ctx env node

(* {1 Random schedules} *)

(* Attach a working set of random length to [fn]'s member, if it has
   none yet. Only for nodes that never replay working sets: the store's
   ws policy is then their only reader. *)
let synthetic_working_set prng node fn =
  Option.iter
    (fun store ->
      let members = Seuss.Snapstore.members store in
      match List.assoc_opt fn.Seuss.Node.fn_id members with
      | Some snap ->
          Seuss.Snapshot.record_working_set snap
            (Array.init (1 + Sim.Prng.int prng 400) Fun.id)
      | None -> ())
    (Seuss.Node.snapstore node)

(* One schedule: a fresh node under a drawn (budget, policy), a random
   invoke/probe sequence over a small corpus, the full invariant set
   after every operation, then an orderly shutdown that must drain every
   frame. Tiny budgets force eviction (including of a snapshot captured
   moments before); the 0 draw runs the same schedule disarmed so the
   mirror-only paths stay covered by the same checks. Odd schedules
   record working sets on warm calls; in even ones, where nothing
   replays them, half the calls attach a synthetic set of random length
   to their member, so the ws policy meets distinct ratios. *)
let run_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int (sched * 7919))) in
  let budget =
    match Sim.Prng.int prng 100 with
    | r when r < 15 ->
        (* below a single member's footprint: immediate self-eviction *)
        Int64.of_int (262_144 + Sim.Prng.int prng 786_432)
    | r when r < 65 ->
        (* partial: a few members fit, the rest fight for residency *)
        Int64.of_int (Mem.Mconfig.mib (2 + Sim.Prng.int prng 6))
    | r when r < 90 -> Int64.of_int (Mem.Mconfig.mib 64)
    | _ -> 0L
  in
  let policy =
    if Sim.Prng.int prng 2 = 0 then Seuss.Config.Snap_lru
    else Seuss.Config.Snap_ws
  in
  let functions = 4 + Sim.Prng.int prng 5 in
  let steps = 10 + Sim.Prng.int prng 11 in
  let prefault = sched mod 2 = 1 in
  Experiments.Harness.run_sim ~seed:(Int64.add seed (Int64.of_int sched)) (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let config =
        {
          Seuss.Config.default with
          Seuss.Config.cache_idle_ucs = false;
          snapshot_cache_bytes = budget;
          snapshot_cache_policy = policy;
          prefault_working_set = prefault;
        }
      in
      let node = Seuss.Node.create ~config env in
      Seuss.Node.start node;
      for step = 1 to steps do
        let ctx =
          Printf.sprintf "seed %Ld sched %d step %d (budget %Ld)" seed sched
            step budget
        in
        (match Sim.Prng.int prng 100 with
        | r when r < 80 -> (
            let fn = prop_fn (Sim.Prng.int prng functions) in
            match Seuss.Node.invoke node fn ~args:"{}" with
            | Ok _, _ ->
                if (not prefault) && Sim.Prng.int prng 2 = 0 then
                  synthetic_working_set prng node fn
            | Error _, _ ->
                Alcotest.failf "%s: invocation of %s failed" ctx
                  fn.Seuss.Node.fn_id)
        | r when r < 92 ->
            (* Policy-neutral probes must not disturb any checked state. *)
            ignore (Seuss.Node.snapshot_inventory node);
            ignore (Seuss.Node.snapshot_count node);
            Option.iter
              (fun s -> ignore (Seuss.Snapstore.members s))
              (Seuss.Node.snapstore node)
        | _ -> ignore (Seuss.Node.reclaim_idle_ucs node));
        check_node ~ctx env node
      done;
      Seuss.Node.shutdown node;
      let used = F.used_frames env.Seuss.Osenv.frames in
      if used <> 0 then
        Alcotest.failf "seed %Ld sched %d: %d frames leaked after shutdown"
          seed sched used)

let test_random_schedules () =
  for sched = 0 to schedules - 1 do
    run_schedule ~seed:base_seed ~sched
  done

(* {1 Differential: armed (unlimited) vs unarmed} *)

(* The page-table shape of a snapshot with frame ids erased: dedup may
   only rewrite which physical frame backs a page, never which pages
   exist or their flags. *)
let table_shape snap =
  List.sort compare
    (PT.fold_present snap.Seuss.Snapshot.table ~init:[]
       ~f:(fun acc ~vpn e ->
         ( vpn,
           PT.Entry.writable e,
           PT.Entry.cow e,
           PT.Entry.dirty e )
         :: acc))

let run_differential_world ~armed ~ops =
  Experiments.Harness.run_sim ~seed:31L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let config =
        {
          Seuss.Config.default with
          Seuss.Config.cache_idle_ucs = false;
          snapshot_cache_bytes =
            (if armed then Int64.of_int (Mem.Mconfig.mib 4096) else 0L);
        }
      in
      let node = Seuss.Node.create ~config env in
      Seuss.Node.start node;
      let observed =
        List.map
          (fun k ->
            let fn = prop_fn k in
            let result, path = Seuss.Node.invoke node fn ~args:"{}" in
            ( fn.Seuss.Node.fn_id,
              path_label path,
              match result with Ok v -> Ok v | Error _ -> Error () ))
          ops
      in
      let shapes =
        List.map
          (fun (fn_id, snap) -> (fn_id, table_shape snap))
          (Seuss.Node.snapshot_inventory node)
      in
      (match Seuss.Node.snapstore node with
      | Some store ->
          if not armed then Alcotest.fail "unarmed node grew a store";
          Alcotest.(check int) "no evictions under the unlimited budget" 0
            (Seuss.Snapstore.evictions store)
      | None -> if armed then Alcotest.fail "armed node has no store");
      (observed, shapes))

let test_armed_unlimited_matches_unarmed () =
  let prng = Sim.Prng.create (Int64.logxor base_seed 0xA11FL) in
  let ops = List.init 40 (fun _ -> Sim.Prng.int prng 6) in
  let armed_obs, armed_shapes = run_differential_world ~armed:true ~ops in
  let plain_obs, plain_shapes = run_differential_world ~armed:false ~ops in
  List.iter2
    (fun (fn_a, path_a, res_a) (fn_p, path_p, res_p) ->
      Alcotest.(check string) "same fn order" fn_p fn_a;
      Alcotest.(check string) (fn_a ^ " same path") path_p path_a;
      if res_a <> res_p then Alcotest.failf "%s: results diverged" fn_a)
    armed_obs plain_obs;
  Alcotest.(check int) "same snapshot inventory size"
    (List.length plain_shapes) (List.length armed_shapes);
  List.iter2
    (fun (fn_a, shape_a) (fn_p, shape_p) ->
      Alcotest.(check string) "same inventory order" fn_p fn_a;
      if shape_a <> shape_p then
        Alcotest.failf
          "%s: dedup changed the snapshot's page-table shape (vpns/flags)"
          fn_a)
    armed_shapes plain_shapes

(* The env hook's transparency contract: SEUSS_SNAP_CACHE=0 must be
   bit-identical to unset for a harness-built experiment. *)
let test_env_hook_zero_is_identity () =
  Unix.putenv "SEUSS_SNAP_CACHE" "";
  let baseline = Experiments.Fig4.run ~set_sizes:[ 32 ] ~client_threads:8 () in
  Unix.putenv "SEUSS_SNAP_CACHE" "0";
  let zeroed = Experiments.Fig4.run ~set_sizes:[ 32 ] ~client_threads:8 () in
  Unix.putenv "SEUSS_SNAP_CACHE" "";
  Alcotest.(check bool) "SEUSS_SNAP_CACHE=0 run structurally identical" true
    (baseline = zeroed);
  Alcotest.(check string) "rendered output identical"
    Experiments.(Report.to_text (Fig4.report baseline))
    Experiments.(Report.to_text (Fig4.report zeroed))

(* {1 Dedup and eviction scenarios} *)

let scenario_config ~budget =
  {
    Seuss.Config.default with
    Seuss.Config.cache_idle_ucs = false;
    snapshot_cache_bytes = budget;
  }

let invoke_ok node fn =
  match Seuss.Node.invoke node fn ~args:"{}" with
  | Ok _, path -> path
  | Error _, _ ->
      Alcotest.failf "invocation of %s failed" fn.Seuss.Node.fn_id

let test_dedup_shares_content () =
  Experiments.Harness.run_sim ~seed:37L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let node =
        Seuss.Node.create
          ~config:(scenario_config ~budget:(Int64.of_int (Mem.Mconfig.mib 4096)))
          env
      in
      Seuss.Node.start node;
      ignore (invoke_ok node (prop_fn 0));
      let store =
        match Seuss.Node.snapstore node with
        | Some s -> s
        | None -> Alcotest.fail "store not armed"
      in
      let unique_after_first = Seuss.Snapstore.pages_unique store in
      (* Different source: shares everything but the bytecode tail. *)
      ignore (invoke_ok node (prop_fn 1));
      let unique_after_second = Seuss.Snapstore.pages_unique store in
      Alcotest.(check bool) "second member is almost entirely shared" true
        (unique_after_second - unique_after_first
        < unique_after_first / 10);
      (* Same source as fn 1 (ranks repeat mod 5): even the tail shares. *)
      ignore (invoke_ok node (prop_fn 6));
      let unique_after_clone = Seuss.Snapstore.pages_unique store in
      Alcotest.(check bool) "same-source member shares its bytecode tail" true
        (unique_after_clone - unique_after_second
        < unique_after_second - unique_after_first);
      Alcotest.(check bool)
        (Printf.sprintf "dedup ratio %.2f > 1.5"
           (Seuss.Snapstore.dedup_ratio store))
        true
        (Seuss.Snapstore.dedup_ratio store > 1.5);
      Alcotest.(check bool) "index holds fewer pages than were inserted" true
        (Seuss.Snapstore.pages_unique store
        < Seuss.Snapstore.pages_inserted store);
      Seuss.Node.shutdown node;
      Alcotest.(check int) "drained" 0
        (F.used_frames env.Seuss.Osenv.frames))

(* Measure the residency of a two- and three-member store under no
   pressure, so the eviction scenarios can pick a budget that fits
   exactly two members. Deterministic: same seed, same op sequence. *)
let measure_residency () =
  Experiments.Harness.run_sim ~seed:41L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let node =
        Seuss.Node.create
          ~config:(scenario_config ~budget:(Int64.of_int (Mem.Mconfig.mib 4096)))
          env
      in
      Seuss.Node.start node;
      let store =
        match Seuss.Node.snapstore node with
        | Some s -> s
        | None -> Alcotest.fail "store not armed"
      in
      ignore (invoke_ok node (prop_fn 0));
      ignore (invoke_ok node (prop_fn 1));
      let r2 = Seuss.Snapstore.resident_bytes store in
      ignore (invoke_ok node (prop_fn 2));
      let r3 = Seuss.Snapstore.resident_bytes store in
      Seuss.Node.shutdown node;
      (r2, r3))

let run_eviction_scenario ~policy =
  let r2, r3 = measure_residency () in
  Alcotest.(check bool) "third member costs bytes" true
    (Int64.compare r3 r2 > 0);
  Experiments.Harness.run_sim ~seed:41L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let config =
        { (scenario_config ~budget:r2) with snapshot_cache_policy = policy }
      in
      let node = Seuss.Node.create ~config env in
      Seuss.Node.start node;
      let store =
        match Seuss.Node.snapstore node with
        | Some s -> s
        | None -> Alcotest.fail "store not armed"
      in
      let evict_events = ref [] in
      Obs.Log.subscribe env.Seuss.Osenv.log (fun r ->
          match r.Obs.Log.ev with
          | Obs.Event.Snap_evict { fn_id; _ } ->
              evict_events := fn_id :: !evict_events
          | _ -> ());
      Alcotest.(check string) "fn0 cold" "cold"
        (path_label (invoke_ok node (prop_fn 0)));
      Alcotest.(check string) "fn1 cold" "cold"
        (path_label (invoke_ok node (prop_fn 1)));
      (* Touch fn0 so fn1 is the least recently used member. *)
      Alcotest.(check string) "fn0 warm" "warm"
        (path_label (invoke_ok node (prop_fn 0)));
      (* The third insert breaks the budget: fn1 must go. *)
      Alcotest.(check string) "fn2 cold" "cold"
        (path_label (invoke_ok node (prop_fn 2)));
      Alcotest.(check int) "one eviction" 1 (Seuss.Snapstore.evictions store);
      Alcotest.(check (list string)) "fn1 evicted" [ "prop-1" ] !evict_events;
      Alcotest.(check (list string)) "members are fn0 and fn2"
        [ "prop-0"; "prop-2" ]
        (List.map fst (Seuss.Snapstore.members store));
      Alcotest.(check int) "mirror follows the eviction" 2
        (Seuss.Node.snapshot_count node);
      Alcotest.(check bool) "budget holds after eviction" true
        (Int64.compare
           (Seuss.Snapstore.resident_bytes store)
           (Seuss.Snapstore.budget_bytes store)
        <= 0);
      (* Cold-boot fallback: the evicted function recompiles and is
         readmitted (evicting the new LRU member in turn). *)
      Alcotest.(check string) "evicted fn falls back to cold" "cold"
        (path_label (invoke_ok node (prop_fn 1)));
      Alcotest.(check int) "readmission evicts in turn" 2
        (Seuss.Snapstore.evictions store);
      (match Seuss.Snapstore.check store with
      | [] -> ()
      | vs -> Alcotest.failf "store self-check: %s" (String.concat "; " vs));
      Seuss.Node.shutdown node;
      Alcotest.(check int) "drained" 0
        (F.used_frames env.Seuss.Osenv.frames))

let test_lru_evicts_least_recent () = run_eviction_scenario ~policy:Seuss.Config.Snap_lru

(* Without recorded working sets every member scores equal under Ws, so
   the policy must fall back to the same deterministic recency order —
   this pins the tie-break rather than leaving it to chance. *)
let test_ws_without_sets_matches_lru () =
  run_eviction_scenario ~policy:Seuss.Config.Snap_ws

(* {1 Content hashes} *)

let djb2 s =
  let h = ref 5381 in
  String.iter
    (fun c -> h := ((!h * 33) + Char.code c) land 0x3FFFFFFFFFFFFFF)
    s;
  if !h = 0 then 1 else !h

(* Golden check of both key shapes at digit-count boundaries: a base
   snapshot has no program, so every vpn takes the "fn:" branch salted
   by its name; a function snapshot's low pages take "img:" and its
   heap tail (the compiled bytecode) takes "fn:" salted by the source. *)
let test_content_hashes_golden () =
  Experiments.Harness.run_sim ~seed:41L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let budget = Int64.of_int (Mem.Mconfig.mib 4096) in
      let node = Seuss.Node.create ~config:(scenario_config ~budget) env in
      Seuss.Node.start node;
      let fn = prop_fn 0 in
      ignore (invoke_ok node fn);
      let base =
        match Seuss.Node.base_snapshot node Unikernel.Image.Node with
        | Some s -> s
        | None -> Alcotest.fail "no base snapshot"
      and fsnap =
        match Seuss.Node.function_snapshot node fn.Seuss.Node.fn_id with
        | Some s -> s
        | None -> Alcotest.fail "no function snapshot"
      in
      let rt = Unikernel.Image.runtime_name Unikernel.Image.Node in
      let vpns =
        [| 0; 9; 10; 99; 100; Unikernel.Gconst.heap_base; PT.max_vpn - 1 |]
      in
      let check label snap vpns key =
        let got = Seuss.Snapstore.content_hashes snap vpns in
        Array.iteri
          (fun i vpn ->
            Alcotest.(check int)
              (Printf.sprintf "%s vpn %d" label vpn)
              (djb2 (key vpn)) got.(i))
          vpns
      in
      check "base" base vpns (fun vpn ->
          Printf.sprintf "fn:%s:%s:%d" rt base.Seuss.Snapshot.name vpn);
      check "function image" fsnap vpns (fun vpn ->
          Printf.sprintf "img:%s:%d" rt vpn);
      let heap_end =
        Unikernel.Gconst.heap_base
        + Unikernel.Guest.snapshot_heap_pages fsnap.Seuss.Snapshot.guest
      in
      check "function bytecode" fsnap [| heap_end - 1 |] (fun vpn ->
          Printf.sprintf "fn:%s:%s:%d" rt fn.Seuss.Node.source vpn);
      Seuss.Node.shutdown node)

let () =
  let case name f = Alcotest.test_case name `Slow f in
  Alcotest.run "snapstore"
    [
      ( "schedules",
        [
          case
            (Printf.sprintf "%d random schedules (seed %Ld)" schedules
               base_seed)
            test_random_schedules;
        ] );
      ( "differential",
        [
          case "armed unlimited == unarmed" test_armed_unlimited_matches_unarmed;
          case "SEUSS_SNAP_CACHE=0 == unset" test_env_hook_zero_is_identity;
        ] );
      ( "scenarios",
        [
          case "dedup shares content across members" test_dedup_shares_content;
          case "lru evicts the least recent member" test_lru_evicts_least_recent;
          case "ws without sets falls back to recency"
            test_ws_without_sets_matches_lru;
        ] );
      ( "content",
        [ case "hashes == djb2 of the key" test_content_hashes_golden ] );
    ]
