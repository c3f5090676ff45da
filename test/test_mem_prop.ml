(* Randomized property battery for the mem substrate, driven by the
   simulator's own splitmix64 stream (Sim.Prng) rather than QCheck
   generators: the schedules are a deterministic function of the seed,
   so a failure report names the exact (seed, schedule, step) to replay.

   Two families:

   - schedules: random interleavings of touch_read / touch_write /
     write_range / freeze / COW-clone / release / prefault over a family
     of address spaces, asserting after EVERY operation that the O(1)
     counters match full page-table walks and that the frame allocator's
     refcounts are exactly the ones implied by the live tables
     (Page_table.expected_refcounts);

   - differential: a batched prefault followed by an invocation's writes
     leaves an address space byte-identical (same frames, same flags,
     same counters) to pure demand faulting of the same vpns — only the
     fault-hook activity differs;

   - write_range: a range write reports its faults to the hook once per
     kind, with sums equal to the lifetime counters and to a per-page
     touch_write twin, and leaves the same tables — including when the
     allocator runs dry mid-range;

   - freeze: the capture barrier, which skips leaves already frozen,
     leaves every entry of every live table exactly where a full walk
     over the frozen table's leaves would, across writes, clones
     (frozen or not), dirty-bit clears and releases.

   SEUSS_PROP_SEED overrides the base seed (see Prop_seed). *)

module F = Mem.Frame
module PT = Mem.Page_table
module AS = Mem.Addr_space

let base_seed = Prop_seed.base ~default:17L

let schedules = 200
let mib n = Int64.of_int (Mem.Mconfig.mib n)

(* {1 Invariant checks} *)

let check_counters ~ctx space =
  let m = AS.mapped_pages space and ms = AS.mapped_pages_slow space in
  if m <> ms then
    Alcotest.failf "%s: mapped_pages %d <> slow walk %d" ctx m ms;
  let d = AS.dirty_pages space and ds = AS.dirty_pages_slow space in
  if d <> ds then Alcotest.failf "%s: dirty_pages %d <> slow walk %d" ctx d ds

let check_refcounts ~ctx frames tables =
  let expected = PT.expected_refcounts tables in
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

let check_invariants ~ctx frames spaces =
  List.iter (check_counters ~ctx) spaces;
  check_refcounts ~ctx frames (List.map AS.table spaces)

(* {1 Random schedules} *)

let max_spaces = 6
let vpn_span = 2048

(* One schedule: a fresh allocator, a frozen root, then [steps] random
   operations over a growing/shrinking family of spaces, with the full
   invariant set checked after every single operation. *)
let run_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int sched)) in
  let frames = F.create ~budget_bytes:(mib 256) () in
  let root = AS.create frames in
  ignore (AS.write_range root ~vpn:0 ~pages:64);
  AS.freeze root;
  let spaces = ref [ root ] in
  let pick () =
    List.nth !spaces (Sim.Prng.int prng (List.length !spaces))
  in
  let steps = 24 + Sim.Prng.int prng 25 in
  for step = 1 to steps do
    let ctx = Printf.sprintf "seed %Ld sched %d step %d" seed sched step in
    (match Sim.Prng.int prng 100 with
    | r when r < 30 ->
        ignore (AS.touch_write (pick ()) ~vpn:(Sim.Prng.int prng vpn_span))
    | r when r < 40 -> AS.touch_read (pick ()) ~vpn:(Sim.Prng.int prng vpn_span)
    | r when r < 55 ->
        ignore
          (AS.write_range (pick ())
             ~vpn:(Sim.Prng.int prng (vpn_span - 16))
             ~pages:(1 + Sim.Prng.int prng 16))
    | r when r < 63 -> AS.freeze (pick ())
    | r when r < 78 ->
        if List.length !spaces < max_spaces then begin
          let parent = pick () in
          AS.freeze parent;
          spaces := AS.of_table frames (AS.table parent) :: !spaces
        end
    | r when r < 88 -> (
        (* Release any member — including a parent whose clones are
           still live: shared leaves must keep their frames alive. *)
        match !spaces with
        | _ :: _ :: _ ->
            let victim = pick () in
            AS.release victim;
            spaces := List.filter (fun s -> s != victim) !spaces
        | _ -> ())
    | _ ->
        let space = pick () in
        let n = 1 + Sim.Prng.int prng 32 in
        let vpns = Array.init n (fun _ -> Sim.Prng.int prng vpn_span) in
        ignore (AS.prefault space ~vpns));
    check_invariants ~ctx frames !spaces
  done;
  List.iter AS.release !spaces;
  let used = F.used_frames frames in
  if used <> 0 then
    Alcotest.failf "seed %Ld sched %d: %d frames leaked after full release"
      seed sched used

let test_random_schedules () =
  for sched = 0 to schedules - 1 do
    run_schedule ~seed:base_seed ~sched
  done

(* {1 Differential: prefault vs demand faulting} *)

(* Identical worlds: same allocator budget, same frozen parent, so the
   allocation order — and therefore every frame id — is a deterministic
   function of the operations applied. *)
let build_universe () =
  let frames = F.create ~budget_bytes:(mib 64) () in
  let parent = AS.create frames in
  ignore (AS.write_range parent ~vpn:0 ~pages:96);
  AS.freeze parent;
  let child = AS.of_table frames (AS.table parent) in
  (frames, parent, child)

let entries_of space =
  List.sort compare
    (PT.fold_present (AS.table space) ~init:[] ~f:(fun acc ~vpn e ->
         ( vpn,
           PT.Entry.frame e,
           PT.Entry.writable e,
           PT.Entry.cow e,
           PT.Entry.dirty e,
           PT.Entry.accessed e )
         :: acc))

let state_of space =
  ( AS.mapped_pages space,
    AS.dirty_pages space,
    AS.lifetime_zero_fills space,
    AS.lifetime_cow_copies space,
    entries_of space )

let test_prefault_matches_demand () =
  let prng = Sim.Prng.create (Int64.logxor base_seed 0xD1FFL) in
  for round = 1 to 60 do
    (* A working set mixing COW hits (parent range) and fresh pages,
       duplicates allowed, plus follow-up invocation writes. *)
    let ws =
      Array.init
        (1 + Sim.Prng.int prng 48)
        (fun _ -> Sim.Prng.int prng 160)
    in
    let follow_ups =
      List.init
        (Sim.Prng.int prng 24)
        (fun _ -> Sim.Prng.int prng 200)
    in
    (* Arm 1: pure demand faulting, counting hook activity. *)
    let frames_d, parent_d, demand = build_universe () in
    let demand_faults = ref 0 in
    AS.set_fault_hook demand (fun _ n -> demand_faults := !demand_faults + n);
    Array.iter (fun vpn -> ignore (AS.touch_write demand ~vpn)) ws;
    List.iter (fun vpn -> ignore (AS.touch_write demand ~vpn)) follow_ups;
    (* Arm 2: batched prefault of the same set, then the same writes. *)
    let frames_p, parent_p, prefaulted = build_universe () in
    let prefault_faults = ref 0 in
    AS.set_fault_hook prefaulted (fun _ n ->
        prefault_faults := !prefault_faults + n);
    let stats = AS.prefault prefaulted ~vpns:ws in
    List.iter (fun vpn -> ignore (AS.touch_write prefaulted ~vpn)) follow_ups;
    if state_of demand <> state_of prefaulted then
      Alcotest.failf
        "round %d: prefaulted space diverged from demand-faulted twin" round;
    (* Only the fault-count telemetry may differ: the hook never fires
       for the batch, so the demand arm saw exactly the batch's installs
       more than the prefault arm did. *)
    let delta = stats.AS.prefault_zero_fills + stats.AS.prefault_cow_copies in
    if !demand_faults - !prefault_faults <> delta then
      Alcotest.failf "round %d: fault-count delta %d, prefault installed %d"
        round
        (!demand_faults - !prefault_faults)
        delta;
    Alcotest.(check int)
      "requested counts every vpn" (Array.length ws) stats.AS.requested;
    (* Both worlds drain to zero. *)
    AS.release demand;
    AS.release parent_d;
    AS.release prefaulted;
    AS.release parent_p;
    Alcotest.(check int) "demand world drained" 0 (F.used_frames frames_d);
    Alcotest.(check int) "prefault world drained" 0 (F.used_frames frames_p)
  done

let test_prefault_rejects_read_only () =
  let frames = F.create ~budget_bytes:(mib 4) () in
  let space = AS.create frames in
  let fr = F.alloc frames in
  PT.set (AS.table space) ~vpn:7
    (PT.Entry.make ~frame:fr ~writable:false ~cow:false ~dirty:false
       ~accessed:false);
  Alcotest.(check bool) "protection violation raises" true
    (match AS.prefault space ~vpns:[| 7 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* {1 Batched fault accounting: write_range vs per-page touch_write} *)

type hook_sums = { mutable zero : int; mutable cow : int; mutable calls : int }

(* A fault hook that sums the counts it hears per kind. *)
let counting_hook space =
  let s = { zero = 0; cow = 0; calls = 0 } in
  AS.set_fault_hook space (fun fault n ->
      if n < 1 then Alcotest.failf "hook heard a count of %d" n;
      s.calls <- s.calls + 1;
      match fault with
      | AS.Zero_fill -> s.zero <- s.zero + n
      | AS.Cow_copy -> s.cow <- s.cow + n
      | AS.No_fault -> Alcotest.fail "hook heard No_fault");
  s

let range_span = 4 * Mem.Mconfig.entries_per_table

(* A frozen parent with scattered mapped ranges over four leaves, and a
   clone that already wrote some pages privately — so one range crosses
   absent, COW and writable pages. Deterministic in [seed]: two calls
   build twin worlds down to the frame ids. *)
let build_range_universe seed =
  let prng = Sim.Prng.create seed in
  let frames = F.create ~budget_bytes:(mib 64) () in
  let parent = AS.create frames in
  for _ = 1 to 12 do
    ignore
      (AS.write_range parent
         ~vpn:(Sim.Prng.int prng (range_span - 64))
         ~pages:(1 + Sim.Prng.int prng 64))
  done;
  AS.freeze parent;
  let child = AS.of_table frames (AS.table parent) in
  for _ = 1 to 16 do
    ignore (AS.touch_write child ~vpn:(Sim.Prng.int prng range_span))
  done;
  (frames, parent, child)

let test_write_range_matches_touch_write () =
  for round = 0 to 59 do
    let seed = Int64.add base_seed (Int64.of_int (1000 + round)) in
    let frames_r, parent_r, ranged = build_range_universe seed in
    let frames_p, parent_p, paged = build_range_universe seed in
    let sums_r = counting_hook ranged and sums_p = counting_hook paged in
    AS.start_trace ranged;
    AS.start_trace paged;
    let prng = Sim.Prng.create (Int64.lognot seed) in
    for step = 1 to 20 do
      let ctx = Printf.sprintf "seed %Ld round %d step %d" base_seed round step in
      (* Up to 700 pages: ranges cross one or two leaf boundaries. *)
      let pages = Sim.Prng.int prng 700 in
      let vpn = Sim.Prng.int prng (range_span - pages) in
      let z0 = AS.lifetime_zero_fills ranged
      and c0 = AS.lifetime_cow_copies ranged in
      let hz = sums_r.zero and hc = sums_r.cow and calls = sums_r.calls in
      let pz = sums_p.zero and pc = sums_p.cow in
      let st = AS.write_range ranged ~vpn ~pages in
      for p = vpn to vpn + pages - 1 do
        ignore (AS.touch_write paged ~vpn:p)
      done;
      let dz = AS.lifetime_zero_fills ranged - z0
      and dc = AS.lifetime_cow_copies ranged - c0 in
      if st.AS.pages <> pages || st.AS.zero_fills <> dz || st.AS.cow_copies <> dc
      then Alcotest.failf "%s: write_stats disagree with lifetime deltas" ctx;
      if sums_r.zero - hz <> dz || sums_r.cow - hc <> dc then
        Alcotest.failf "%s: range hook heard %d/%d, lifetime moved %d/%d" ctx
          (sums_r.zero - hz) (sums_r.cow - hc) dz dc;
      let kinds = (if dz > 0 then 1 else 0) + if dc > 0 then 1 else 0 in
      if sums_r.calls - calls <> kinds then
        Alcotest.failf "%s: %d hook calls for %d faulting kinds" ctx
          (sums_r.calls - calls) kinds;
      if sums_p.zero - pz <> dz || sums_p.cow - pc <> dc then
        Alcotest.failf "%s: per-page twin heard %d/%d, range %d/%d" ctx
          (sums_p.zero - pz) (sums_p.cow - pc) dz dc;
      if state_of ranged <> state_of paged then
        Alcotest.failf "%s: range-written space diverged from its twin" ctx
    done;
    Alcotest.(check (array int))
      "same working set, in fault order" (AS.take_trace paged)
      (AS.take_trace ranged);
    let ctx = Printf.sprintf "seed %Ld round %d" base_seed round in
    check_invariants ~ctx frames_r [ parent_r; ranged ];
    check_invariants ~ctx frames_p [ parent_p; paged ];
    List.iter AS.release [ ranged; parent_r; paged; parent_p ];
    Alcotest.(check int) "range world drained" 0 (F.used_frames frames_r);
    Alcotest.(check int) "page world drained" 0 (F.used_frames frames_p)
  done

(* A range that runs the allocator dry: the hook must still hear exactly
   the pages resolved before [Out_of_memory], and they are a prefix. *)
let test_write_range_oom_reports_resolved () =
  let prng = Sim.Prng.create (Int64.logxor base_seed 0x00FL) in
  for round = 1 to 60 do
    let ctx = Printf.sprintf "seed %Ld round %d" base_seed round in
    let parent_pages = 8 + Sim.Prng.int prng 56 in
    let budget = parent_pages + 4 + Sim.Prng.int prng 32 in
    let frames =
      F.create ~budget_bytes:(Mem.Mconfig.bytes_of_pages budget) ()
    in
    let parent = AS.create frames in
    ignore (AS.write_range parent ~vpn:0 ~pages:parent_pages);
    AS.freeze parent;
    let child = AS.of_table frames (AS.table parent) in
    for _ = 1 to Sim.Prng.int prng 4 do
      ignore (AS.touch_write child ~vpn:(Sim.Prng.int prng parent_pages))
    done;
    let sums = counting_hook child in
    let z0 = AS.lifetime_zero_fills child
    and c0 = AS.lifetime_cow_copies child in
    let free = budget - F.used_frames frames in
    let vpn = Sim.Prng.int prng 8 in
    let pages = free + 4 + Sim.Prng.int prng 64 in
    (* The faults a per-page walk takes before the allocator runs dry. *)
    let needs_frame v =
      not (PT.Entry.writable (PT.get (AS.table child) ~vpn:v))
    in
    let expected =
      List.filter needs_frame (List.init pages (fun i -> vpn + i))
      |> List.filteri (fun i _ -> i < free)
    in
    AS.start_trace child;
    (match AS.write_range child ~vpn ~pages with
    | _ -> Alcotest.failf "%s: range past the budget did not raise" ctx
    | exception F.Out_of_memory -> ());
    let dz = AS.lifetime_zero_fills child - z0
    and dc = AS.lifetime_cow_copies child - c0 in
    if sums.zero <> dz || sums.cow <> dc then
      Alcotest.failf "%s: hook heard %d/%d, lifetime moved %d/%d" ctx
        sums.zero sums.cow dz dc;
    Alcotest.(check int) (ctx ^ ": every free frame resolved a page") free
      (dz + dc);
    Alcotest.(check (array int))
      (ctx ^ ": resolved pages are the faulting prefix")
      (Array.of_list expected) (AS.take_trace child);
    check_invariants ~ctx frames [ parent; child ];
    AS.release child;
    AS.release parent;
    Alcotest.(check int) (ctx ^ ": drained") 0 (F.used_frames frames)
  done

(* {1 Freeze equivalence: frozen-leaf skipping vs a full walk} *)

(* A member of the family: an address space, or a bare table (a
   snapshot's clone_shallow). *)
type member = Space of AS.t | Table of PT.t

let table_of = function Space s -> AS.table s | Table t -> t
let release_member = function Space s -> AS.release s | Table t -> PT.release t
let freeze_span = 4 * Mem.Mconfig.entries_per_table

let freeze_entry e =
  if PT.Entry.present e then
    PT.Entry.with_flags ~writable:false ~cow:true ~dirty:false e
  else e

let entries_in t = Array.init freeze_span (fun vpn -> PT.get t ~vpn)

(* Freeze [target] and compare every live table with the reference: a
   walk over every leaf [target] reaches rewrites each present entry,
   and every table reaching the same physical leaf sees the rewrite. *)
let freeze_and_check ~ctx frames family target =
  let tables = List.map table_of family in
  let expected =
    List.map
      (fun t ->
        Array.mapi
          (fun vpn e ->
            if PT.shares_leaf target t ~vpn then freeze_entry e else e)
          (entries_in t))
      tables
  in
  PT.mark_all_cow_clean target;
  List.iteri
    (fun i (t, want) ->
      let got = entries_in t in
      Array.iteri
        (fun vpn e ->
          if got.(vpn) <> e then
            Alcotest.failf "%s: table %d vpn %d is %#x, full walk gives %#x"
              ctx i vpn got.(vpn) e)
        want)
    (List.combine tables expected);
  check_refcounts ~ctx frames (List.map table_of family)

let run_freeze_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int (5000 + sched))) in
  let frames = F.create ~budget_bytes:(mib 256) () in
  let root = AS.create frames in
  ignore (AS.write_range root ~vpn:0 ~pages:(1 + Sim.Prng.int prng 700));
  (* A clone of an unfrozen table, frozen afterwards: the freeze goes
     through the leaves it shares with [root]. *)
  let clone = PT.clone_shallow (AS.table root) in
  let family = ref [ Space root; Table clone ] in
  let ctx0 = Printf.sprintf "seed %Ld sched %d" seed sched in
  freeze_and_check ~ctx:(ctx0 ^ " unfrozen clone") frames !family clone;
  let pick () = List.nth !family (Sim.Prng.int prng (List.length !family)) in
  let pick_space () =
    match
      List.filter_map (function Space s -> Some s | Table _ -> None) !family
    with
    | [] -> None
    | l -> Some (List.nth l (Sim.Prng.int prng (List.length l)))
  in
  for step = 1 to 30 + Sim.Prng.int prng 30 do
    let ctx = Printf.sprintf "%s step %d" ctx0 step in
    (match Sim.Prng.int prng 100 with
    | r when r < 25 ->
        Option.iter
          (fun s ->
            ignore (AS.touch_write s ~vpn:(Sim.Prng.int prng freeze_span)))
          (pick_space ())
    | r when r < 45 ->
        Option.iter
          (fun s ->
            let pages = 1 + Sim.Prng.int prng 600 in
            ignore
              (AS.write_range s
                 ~vpn:(Sim.Prng.int prng (freeze_span - pages))
                 ~pages))
          (pick_space ())
    | r when r < 55 ->
        if List.length !family < max_spaces then
          family := Table (PT.clone_shallow (table_of (pick ()))) :: !family
    | r when r < 65 ->
        if List.length !family < max_spaces then begin
          let source = table_of (pick ()) in
          freeze_and_check ~ctx:(ctx ^ " of_table") frames !family source;
          family := Space (AS.of_table frames source) :: !family
        end
    | r when r < 82 ->
        freeze_and_check ~ctx:(ctx ^ " freeze") frames !family
          (table_of (pick ()))
    | r when r < 90 -> Option.iter AS.clear_dirty (pick_space ())
    | _ -> (
        match !family with
        | _ :: _ :: _ ->
            let victim = pick () in
            release_member victim;
            family := List.filter (fun m -> m != victim) !family
        | _ -> ()))
  done;
  check_refcounts ~ctx:(ctx0 ^ " end") frames (List.map table_of !family);
  List.iter release_member !family;
  Alcotest.(check int) (ctx0 ^ ": drained") 0 (F.used_frames frames)

let test_freeze_matches_full_walk () =
  for sched = 0 to schedules - 1 do
    run_freeze_schedule ~seed:base_seed ~sched
  done

(* {1 Trace recording} *)

let test_trace_records_fault_order () =
  let frames, parent, child = build_universe () in
  AS.start_trace child;
  Alcotest.(check bool) "armed" true (AS.tracing child);
  ignore (AS.touch_write child ~vpn:120);
  (* no fault on repeat *)
  ignore (AS.touch_write child ~vpn:120);
  ignore (AS.touch_write child ~vpn:3);
  ignore (AS.touch_write child ~vpn:777);
  Alcotest.(check (array int))
    "faulted vpns in order" [| 120; 3; 777 |] (AS.take_trace child);
  Alcotest.(check bool) "disarmed" false (AS.tracing child);
  Alcotest.(check (array int)) "empty when unarmed" [||] (AS.take_trace child);
  AS.release child;
  AS.release parent;
  ignore frames

(* {1 Release with live COW clones (refcount drain)} *)

let test_release_parent_under_live_clones () =
  let frames = F.create ~budget_bytes:(mib 64) () in
  let parent = AS.create frames in
  ignore (AS.write_range parent ~vpn:0 ~pages:64);
  AS.freeze parent;
  let c1 = AS.of_table frames (AS.table parent)
  and c2 = AS.of_table frames (AS.table parent) in
  ignore (AS.write_range c1 ~vpn:0 ~pages:8);
  ignore (AS.write_range c2 ~vpn:32 ~pages:8);
  (* Drop the parent first: everything the clones share must survive. *)
  AS.release parent;
  check_invariants ~ctx:"after parent release" frames [ c1; c2 ];
  ignore (AS.touch_write c1 ~vpn:40);
  ignore (AS.touch_write c2 ~vpn:4);
  check_invariants ~ctx:"after post-release writes" frames [ c1; c2 ];
  AS.release c1;
  check_invariants ~ctx:"after c1 release" frames [ c2 ];
  AS.release c2;
  Alcotest.(check int) "all frames drained" 0 (F.used_frames frames)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mem_prop"
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
          case "prefault == demand faulting" test_prefault_matches_demand;
          case "read-only page rejected" test_prefault_rejects_read_only;
        ] );
      ( "write_range",
        [
          case "range hook == lifetime == per-page twin"
            test_write_range_matches_touch_write;
          case "OOM mid-range reports resolved pages"
            test_write_range_oom_reports_resolved;
        ] );
      ( "freeze",
        [
          case
            (Printf.sprintf "%d schedules: skip-frozen == full walk"
               schedules)
            test_freeze_matches_full_walk;
        ] );
      ( "trace",
        [ case "records fault order once" test_trace_records_fault_order ] );
      ( "drain",
        [
          case "parent release under live clones"
            test_release_parent_under_live_clones;
        ] );
    ]
