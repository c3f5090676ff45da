(* Randomized property battery for the mem substrate, driven by the
   simulator's own splitmix64 stream (Sim.Prng) rather than QCheck
   generators: the schedules are a deterministic function of the seed,
   so a failure report names the exact (seed, schedule, step) to replay.

   Families:

   - schedules: random interleavings of touch_write /
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

   - model: touch_write, write_range and prefault all resolve pages
     through one Page_table.write_pages, so each is checked against an
     independent per-page model over get/set/Frame.alloc — same
     entries, frame ids, refcounts, leaf sharing, counters, hook sums
     and trace — over random schedules and with the allocator running
     dry at every page of a leaf-crossing range;

   - freeze: the capture barrier, which skips leaves already frozen,
     leaves every entry of every live table exactly where a full walk
     over the frozen table's leaves would, across writes, clones
     (frozen or not), dirty-bit clears and releases;

   - free list: random alloc / incref / decref / decref_leaf / set_tag
     schedules on a small allocator that runs dry, checked against a
     LIFO-stack model of the free ids: alloc returns the id the model
     pops, liveness, refcounts, tags and the live count agree, and every
     per-frame entry point raises on a freed id.

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
    | r when r < 40 ->
        ignore (AS.touch_write (pick ()) ~vpn:(Sim.Prng.int prng vpn_span))
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
           PT.Entry.dirty e )
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
    (PT.Entry.make ~frame:fr ~writable:false ~cow:false ~dirty:false);
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
let build_range_universe ?(budget_bytes = mib 64) seed =
  let prng = Sim.Prng.create seed in
  let frames = F.create ~budget_bytes () in
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

(* {1 Every write entry point vs an independent per-page model} *)

(* Per-page write resolution written over the public Page_table.get/set
   and Frame.alloc only. It shares no code with Page_table.write_pages,
   the one resolver behind touch_write, write_range and prefault, so
   those three are checked against something other than each other. *)
type model = {
  mutable m_zero : int;
  mutable m_cow : int;
  mutable m_dirty : int;
  mutable m_faults : int list;  (* faulting vpns, newest first *)
}

let model_write frames m pt ~vpn =
  let written frame =
    PT.Entry.make ~frame ~writable:true ~cow:false ~dirty:true
  in
  let e = PT.get pt ~vpn in
  if not (PT.Entry.present e) then begin
    PT.set pt ~vpn (written (F.alloc frames));
    m.m_zero <- m.m_zero + 1;
    m.m_dirty <- m.m_dirty + 1;
    m.m_faults <- vpn :: m.m_faults
  end
  else if PT.Entry.writable e then begin
    if not (PT.Entry.dirty e) then m.m_dirty <- m.m_dirty + 1;
    if not (PT.Entry.dirty e) then
      PT.set pt ~vpn (PT.Entry.written e)
  end
  else if PT.Entry.cow e then begin
    PT.set pt ~vpn (written (F.alloc frames));
    m.m_cow <- m.m_cow + 1;
    m.m_dirty <- m.m_dirty + 1;
    m.m_faults <- vpn :: m.m_faults
  end
  else invalid_arg "model: write to a read-only, non-COW page"

(* A space written through the real entry points, its hook sums, and
   its twin in a second world written only through the model. The two
   worlds start identical and see the same operations, so every frame
   id matches. *)
type twin = { real : AS.t; sums : hook_sums; model : AS.t }

let make_twin real model =
  AS.start_trace real;
  { real; sums = counting_hook real; model }

type entry = Range | Pages | Prefault

let entry_name = function
  | Range -> "write_range"
  | Pages -> "touch_write"
  | Prefault -> "prefault"

(* [vpns] must be consecutive for [Range]. *)
let real_write entry space vpns =
  match entry with
  | Range ->
      if Array.length vpns > 0 then
        ignore (AS.write_range space ~vpn:vpns.(0) ~pages:(Array.length vpns))
  | Pages -> Array.iter (fun vpn -> ignore (AS.touch_write space ~vpn)) vpns
  | Prefault -> ignore (AS.prefault space ~vpns)

let oom f = match f () with () -> false | exception F.Out_of_memory -> true

(* Write [vpns] through [entry] on the real space and through the model
   on its twin, then check that the real counters, hook and trace moved
   exactly as the model's did. *)
let write_twin ~ctx ~frames_m tw entry vpns =
  let ctx = Printf.sprintf "%s: %s" ctx (entry_name entry) in
  let r = tw.real in
  let z0 = AS.lifetime_zero_fills r and c0 = AS.lifetime_cow_copies r
  and d0 = AS.dirty_pages r and mp0 = AS.mapped_pages r
  and hz = tw.sums.zero and hc = tw.sums.cow in
  let m = { m_zero = 0; m_cow = 0; m_dirty = 0; m_faults = [] } in
  let real_oom = oom (fun () -> real_write entry r vpns) in
  let model_oom =
    oom (fun () ->
        Array.iter
          (fun vpn -> model_write frames_m m (AS.table tw.model) ~vpn)
          vpns)
  in
  if real_oom <> model_oom then
    Alcotest.failf "%s: real ran out of memory %b, model %b" ctx real_oom
      model_oom;
  let got =
    [
      AS.lifetime_zero_fills r - z0;
      AS.lifetime_cow_copies r - c0;
      AS.dirty_pages r - d0;
      AS.mapped_pages r - mp0;
    ]
  and want = [ m.m_zero; m.m_cow; m.m_dirty; m.m_zero ] in
  Alcotest.(check (list int))
    (ctx ^ ": zero/cow/dirty/mapped deltas") want got;
  let silent = entry = Prefault in
  Alcotest.(check (list int))
    (ctx ^ ": hook sums")
    (if silent then [ 0; 0 ] else [ m.m_zero; m.m_cow ])
    [ tw.sums.zero - hz; tw.sums.cow - hc ];
  Alcotest.(check (array int))
    (ctx ^ ": trace")
    (if silent then [||] else Array.of_list (List.rev m.m_faults))
    (AS.take_trace r);
  AS.start_trace r

(* Both worlds hold the same entries, frames, refcounts and leaf
   sharing, and each is consistent with its own allocator. *)
let check_twins ~ctx ~frames_r ~frames_m twins =
  check_invariants ~ctx frames_r (List.map (fun tw -> tw.real) twins);
  check_refcounts ~ctx frames_m (List.map (fun tw -> AS.table tw.model) twins);
  Alcotest.(check int)
    (ctx ^ ": live frames") (F.used_frames frames_m) (F.used_frames frames_r);
  let refs_of frames space =
    List.map
      (fun (vpn, fr, _, _, _) -> (vpn, F.refcount frames fr))
      (entries_of space)
  in
  List.iteri
    (fun i tw ->
      if entries_of tw.real <> entries_of tw.model then
        Alcotest.failf "%s: space %d entries diverge from the model" ctx i;
      if refs_of frames_r tw.real <> refs_of frames_m tw.model then
        Alcotest.failf "%s: space %d refcounts diverge from the model" ctx i;
      List.iteri
        (fun j tw' ->
          for dir = 0 to (vpn_span / Mem.Mconfig.entries_per_table) - 1 do
            let vpn = dir * Mem.Mconfig.entries_per_table in
            let rs = PT.shares_leaf (AS.table tw.real) (AS.table tw'.real) ~vpn
            and ms =
              PT.shares_leaf (AS.table tw.model) (AS.table tw'.model) ~vpn
            in
            if rs <> ms then
              Alcotest.failf "%s: spaces %d/%d share dir %d: real %b, model %b"
                ctx i j dir rs ms
          done)
        twins)
    twins

(* The random schedules of the first group, run in two worlds in
   lockstep: writes go through the real entry points in one and through
   the model in the other. *)
let run_model_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int (7000 + sched))) in
  let world () =
    let frames = F.create ~budget_bytes:(mib 256) () in
    let root = AS.create frames in
    ignore (AS.write_range root ~vpn:0 ~pages:64);
    AS.freeze root;
    (frames, root)
  in
  let frames_r, root_r = world () and frames_m, root_m = world () in
  let twins = ref [ make_twin root_r root_m ] in
  let pick () = List.nth !twins (Sim.Prng.int prng (List.length !twins)) in
  let steps = 24 + Sim.Prng.int prng 25 in
  for step = 1 to steps do
    let ctx = Printf.sprintf "seed %Ld sched %d step %d" seed sched step in
    (match Sim.Prng.int prng 100 with
    | r when r < 40 ->
        write_twin ~ctx ~frames_m (pick ()) Pages
          [| Sim.Prng.int prng vpn_span |]
    | r when r < 55 ->
        let vpn = Sim.Prng.int prng (vpn_span - 16) in
        let pages = 1 + Sim.Prng.int prng 16 in
        write_twin ~ctx ~frames_m (pick ()) Range
          (Array.init pages (fun i -> vpn + i))
    | r when r < 63 ->
        let tw = pick () in
        AS.freeze tw.real;
        AS.freeze tw.model
    | r when r < 78 ->
        if List.length !twins < max_spaces then begin
          let p = pick () in
          AS.freeze p.real;
          AS.freeze p.model;
          twins :=
            make_twin
              (AS.of_table frames_r (AS.table p.real))
              (AS.of_table frames_m (AS.table p.model))
            :: !twins
        end
    | r when r < 88 -> (
        match !twins with
        | _ :: _ :: _ ->
            let victim = pick () in
            AS.release victim.real;
            AS.release victim.model;
            twins := List.filter (fun tw -> tw != victim) !twins
        | _ -> ())
    | _ ->
        (* Sorted runs with gaps and repeats, so prefault splits the
           working set into several runs, some crossing a leaf. *)
        let start = Sim.Prng.int prng (vpn_span - 64) in
        let vpns =
          Array.init
            (1 + Sim.Prng.int prng 32)
            (fun i -> start + i + (Sim.Prng.int prng 4 / 3))
        in
        write_twin ~ctx ~frames_m (pick ()) Prefault vpns);
    check_twins ~ctx ~frames_r ~frames_m !twins
  done;
  List.iter
    (fun tw ->
      AS.release tw.real;
      AS.release tw.model)
    !twins;
  Alcotest.(check (list int))
    "both worlds drained" [ 0; 0 ]
    [ F.used_frames frames_r; F.used_frames frames_m ]

let test_entry_points_match_model () =
  for sched = 0 to schedules - 1 do
    run_model_schedule ~seed:base_seed ~sched
  done

(* A range crossing a leaf boundary, with the allocator running dry at
   each page in turn that needs a frame (and once not at all): every
   entry point must stop exactly where the model stops, leaving the same
   tables, counters, hook sums and trace. *)
let test_entry_points_oom_every_page () =
  let entries = Mem.Mconfig.entries_per_table in
  for round = 0 to 5 do
    let seed = Int64.add base_seed (Int64.of_int (5000 + round)) in
    let prng = Sim.Prng.create (Int64.lognot seed) in
    let boundary = entries * (1 + Sim.Prng.int prng 3) in
    let before = 1 + Sim.Prng.int prng 24 and after = 1 + Sim.Prng.int prng 24 in
    let vpns = Array.init (before + after) (fun i -> boundary - before + i) in
    let frames, parent, child = build_range_universe seed in
    let used = F.used_frames frames in
    let needy =
      Array.fold_left
        (fun n vpn ->
          if PT.Entry.writable (PT.get (AS.table child) ~vpn) then n else n + 1)
        0 vpns
    in
    AS.release child;
    AS.release parent;
    for free = 0 to needy do
      List.iter
        (fun entry ->
          let ctx =
            Printf.sprintf "seed %Ld round %d, %d of %d frames free" base_seed
              round free needy
          in
          let budget_bytes = Mem.Mconfig.bytes_of_pages (used + free) in
          let frames_r, parent_r, real = build_range_universe ~budget_bytes seed
          and frames_m, parent_m, model =
            build_range_universe ~budget_bytes seed
          in
          let tw = make_twin real model in
          write_twin ~ctx ~frames_m tw entry vpns;
          let twins = [ tw; { tw with real = parent_r; model = parent_m } ] in
          check_twins ~ctx ~frames_r ~frames_m twins)
        [ Range; Pages; Prefault ]
    done
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
    | r when r < 90 ->
        freeze_and_check ~ctx:(ctx ^ " freeze") frames !family
          (table_of (pick ()))
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

(* {1 Slot reuse: the slab against a pure model} *)

(* A live table beside its model: the entries it should map, and a leaf
   token per materialized directory. Tokens stand for physical leaves:
   a clone copies its source's tokens, and a write through a missing or
   shared leaf mints a fresh one — so two tables share a leaf exactly
   when their tokens for that directory are equal. *)
type modelled = {
  pt : PT.t;
  leaves : (int, int) Hashtbl.t;  (* dir -> leaf token *)
  map : (int, PT.Entry.t) Hashtbl.t;  (* vpn -> present entry *)
}

let entries_per_leaf = Mem.Mconfig.entries_per_table

(* Directories at both ends of the root, so a root copied short loses a
   mapped leaf, mixed with uniform ones. *)
let hot_dirs = [| 0; 1; 2; 255; 510; 511 |]

let check_model ~ctx m =
  let got =
    List.sort compare
      (PT.fold_present m.pt ~init:[] ~f:(fun acc ~vpn e -> (vpn, e) :: acc))
  in
  let want =
    List.sort compare (Hashtbl.fold (fun vpn e acc -> (vpn, e) :: acc) m.map [])
  in
  if got <> want then begin
    let show l =
      String.concat " "
        (List.map (fun (v, e) -> Printf.sprintf "%d:%#x" v e) l)
    in
    Alcotest.failf "%s: table maps [%s], model [%s]" ctx (show got) (show want)
  end;
  if PT.leaf_tables m.pt <> Hashtbl.length m.leaves then
    Alcotest.failf "%s: table reaches %d leaves, model %d" ctx
      (PT.leaf_tables m.pt) (Hashtbl.length m.leaves)

(* One schedule: two families (two [create]s and their clones) over one
   allocator, so slot ids coincide across slabs; after every operation
   every live table matches its model and the allocator matches the
   refcounts the tables imply. A family whose last table is released is
   replaced by a fresh [create]. *)
let run_slot_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int (9000 + sched))) in
  let frames = F.create ~budget_bytes:(mib 256) () in
  let tokens = ref 0 in
  let fresh_token () =
    incr tokens;
    !tokens
  in
  let families = ref 0 in
  let create () =
    incr families;
    (!families, { pt = PT.create frames; leaves = Hashtbl.create 8;
                  map = Hashtbl.create 64 })
  in
  let live = ref [ create (); create () ] in
  let pick () = List.nth !live (Sim.Prng.int prng (List.length !live)) in
  let flag () = Sim.Prng.int prng 2 = 0 in
  let random_vpn () =
    let dir =
      if flag () then hot_dirs.(Sim.Prng.int prng (Array.length hot_dirs))
      else Sim.Prng.int prng (PT.max_vpn / entries_per_leaf)
    in
    (dir * entries_per_leaf) + Sim.Prng.int prng 8
  in
  let shared_elsewhere m dir tok =
    List.exists
      (fun (_, o) -> o != m && Hashtbl.find_opt o.leaves dir = Some tok)
      !live
  in
  (* [set] writes through a private leaf: keep an unshared token, mint a
     fresh one for a missing or shared leaf. *)
  let set m ~vpn e =
    let dir = vpn / entries_per_leaf in
    (match Hashtbl.find_opt m.leaves dir with
    | Some tok when not (shared_elsewhere m dir tok) -> ()
    | None | Some _ -> Hashtbl.replace m.leaves dir (fresh_token ()));
    PT.set m.pt ~vpn e;
    if PT.Entry.present e then Hashtbl.replace m.map vpn e
    else Hashtbl.remove m.map vpn
  in
  let mapped_frames () =
    List.concat_map
      (fun (_, o) -> Hashtbl.fold (fun _ e acc -> PT.Entry.frame e :: acc) o.map [])
      !live
  in
  let steps = 30 + Sim.Prng.int prng 30 in
  for step = 1 to steps do
    let ctx = Printf.sprintf "seed %Ld sched %d step %d" seed sched step in
    (match Sim.Prng.int prng 100 with
    | r when r < 30 ->
        (* A fresh frame, the caller's reference handed to the table. *)
        let e =
          PT.Entry.make ~frame:(F.alloc frames) ~writable:(flag ())
            ~cow:(flag ()) ~dirty:(flag ())
        in
        set (snd (pick ())) ~vpn:(random_vpn ()) e
    | r when r < 40 -> (
        (* A frame another mapping already names, shared by reference. *)
        match mapped_frames () with
        | [] -> ()
        | frs ->
            let fr = List.nth frs (Sim.Prng.int prng (List.length frs)) in
            let _, m = pick () and vpn = random_vpn () in
            (* Over a mapping of the same frame this is a flag change,
               which keeps the table's reference instead of taking one. *)
            (match Hashtbl.find_opt m.map vpn with
            | Some old when PT.Entry.frame old = fr -> ()
            | Some _ | None -> F.incref frames fr);
            set m ~vpn
              (PT.Entry.make ~frame:fr ~writable:(flag ()) ~cow:(flag ())
                 ~dirty:(flag ())))
    | r when r < 48 ->
        (* A flag change in place (same frame), or a clear. *)
        let _, m = pick () in
        let vpn = random_vpn () in
        let e =
          match Hashtbl.find_opt m.map vpn with
          | Some e when flag () -> PT.Entry.with_flags ~dirty:(flag ()) e
          | Some _ | None -> PT.Entry.absent
        in
        set m ~vpn e
    | r when r < 60 ->
        let _, m = pick () in
        PT.mark_all_cow_clean m.pt;
        List.iter
          (fun (_, o) ->
            Hashtbl.filter_map_inplace
              (fun vpn e ->
                let dir = vpn / entries_per_leaf in
                if Hashtbl.find_opt o.leaves dir = Hashtbl.find_opt m.leaves dir
                then Some (freeze_entry e)
                else Some e)
              o.map)
          !live
    | r when r < 80 ->
        if List.length !live < max_spaces then begin
          let fam, m = pick () in
          let c =
            { pt = PT.clone_shallow m.pt; leaves = Hashtbl.copy m.leaves;
              map = Hashtbl.copy m.map }
          in
          live := (fam, c) :: !live
        end
    | _ ->
        let ((fam, m) as victim) = pick () in
        PT.release m.pt;
        live := List.filter (fun v -> v != victim) !live;
        if not (List.exists (fun (f, _) -> f = fam) !live) then
          live := create () :: !live);
    List.iter (fun (_, m) -> check_model ~ctx m) !live;
    check_refcounts ~ctx frames (List.map (fun (_, m) -> m.pt) !live)
  done;
  List.iter (fun (_, m) -> PT.release m.pt) !live;
  Alcotest.(check int)
    (Printf.sprintf "seed %Ld sched %d: drained" seed sched)
    0 (F.used_frames frames)

let test_slot_reuse_matches_model () =
  for sched = 0 to schedules - 1 do
    run_slot_schedule ~seed:base_seed ~sched
  done

(* {2 Every directory: roots that widen}

   The guest layout uses 62 directories, which fit a root's first 64
   slots; this schedule writes all 512 of two families on one
   allocator, each family in its own shuffled first-use order, so roots
   widen past 64, 128 and 256 slots, and clones taken along the way keep
   roots narrower than their family before a write widens them. The
   slab model above stands in for the tables; from it this schedule also
   derives every frame's reference count, the vpn order of
   [fold_present] and [fold_delta] (within a family and across the
   two), and the frames a [release] frees, in the order that ascending
   directories free them: [Frame.alloc] must hand exactly those back,
   last freed first. *)

let wide_schedules = 8

(* [(vpn, entry)] of [m]'s mapped pages, ascending. *)
let model_pages m =
  List.sort compare (Hashtbl.fold (fun vpn e acc -> (vpn, e) :: acc) m.map [])

(* Reference counts the live tables imply: one per present entry per
   distinct leaf token. *)
let model_refcounts tables =
  let seen = Hashtbl.create 256 and counts = Hashtbl.create 1024 in
  List.iter
    (fun m ->
      let fresh = Hashtbl.create 64 in
      Hashtbl.iter
        (fun dir tok ->
          if not (Hashtbl.mem seen tok) then begin
            Hashtbl.replace seen tok ();
            Hashtbl.replace fresh dir ()
          end)
        m.leaves;
      Hashtbl.iter
        (fun vpn e ->
          if Hashtbl.mem fresh (vpn / entries_per_leaf) then
            let f = PT.Entry.frame e in
            Hashtbl.replace counts f
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts f)))
        m.map)
    tables;
  counts

let check_pages ~ctx what got want =
  if got <> want then begin
    let show l =
      String.concat " " (List.map (fun (v, e) -> Printf.sprintf "%d:%#x" v e) l)
    in
    Alcotest.failf "%s: %s [%s], model [%s]" ctx what (show got) (show want)
  end

let folded fold = List.rev (fold ~init:[] ~f:(fun acc ~vpn e -> (vpn, e) :: acc))

let run_wide_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int (23000 + sched))) in
  let frames = F.create ~budget_bytes:(mib 512) () in
  let ndirs = PT.max_vpn / entries_per_leaf in
  let tokens = ref 0 in
  let fresh_token () =
    incr tokens;
    !tokens
  in
  let first_use =
    Array.init 2 (fun _ ->
        let a = Array.init ndirs Fun.id in
        Sim.Prng.shuffle prng a;
        a)
  and used = Array.make 2 0 in
  let create fam =
    (fam, { pt = PT.create frames; leaves = Hashtbl.create 64;
            map = Hashtbl.create 256 })
  in
  let live = ref [ create 0; create 1 ] in
  let pick () = List.nth !live (Sim.Prng.int prng (List.length !live)) in
  let tables () = List.map snd !live in
  (* The next directory in the family's first-use order, or one it has
     used already. *)
  let pick_vpn fam =
    let dir =
      if used.(fam) < ndirs && (used.(fam) = 0 || Sim.Prng.int prng 4 > 0)
      then begin
        used.(fam) <- used.(fam) + 1;
        first_use.(fam).(used.(fam) - 1)
      end
      else first_use.(fam).(Sim.Prng.int prng used.(fam))
    in
    let i =
      if Sim.Prng.int prng 8 = 0 then entries_per_leaf - 1
      else Sim.Prng.int prng 8
    in
    (dir * entries_per_leaf) + i
  in
  let shared_elsewhere m dir tok =
    List.exists
      (fun (_, o) -> o != m && Hashtbl.find_opt o.leaves dir = Some tok)
      !live
  in
  let set m ~vpn e =
    let dir = vpn / entries_per_leaf in
    (match Hashtbl.find_opt m.leaves dir with
    | Some tok when not (shared_elsewhere m dir tok) -> ()
    | None | Some _ -> Hashtbl.replace m.leaves dir (fresh_token ()));
    PT.set m.pt ~vpn e;
    if PT.Entry.present e then Hashtbl.replace m.map vpn e
    else Hashtbl.remove m.map vpn
  in
  let check ~ctx =
    List.iter
      (fun (_, m) ->
        check_model ~ctx m;
        check_pages ~ctx "fold_present" (folded (PT.fold_present m.pt))
          (model_pages m);
        for _ = 1 to 32 do
          let vpn = Sim.Prng.int prng PT.max_vpn in
          let want =
            Option.value ~default:PT.Entry.absent (Hashtbl.find_opt m.map vpn)
          in
          if PT.get m.pt ~vpn <> want then
            Alcotest.failf "%s: get %d = %#x, model %#x" ctx vpn
              (PT.get m.pt ~vpn) want
        done)
      !live;
    (* Every ordered pair, same family or not. *)
    List.iter
      (fun (fp, p) ->
        List.iter
          (fun (fc, c) ->
            let want =
              List.filter
                (fun (vpn, e) ->
                  match Hashtbl.find_opt p.map vpn with
                  | Some pe -> PT.Entry.frame pe <> PT.Entry.frame e
                  | None -> true)
                (model_pages c)
            in
            check_pages ~ctx
              (Printf.sprintf "fold_delta (family %d over %d)" fc fp)
              (folded (PT.fold_delta ~parent:p.pt c.pt))
              want;
            let dir = Sim.Prng.int prng ndirs in
            let want =
              fp = fc
              &&
              match
                (Hashtbl.find_opt p.leaves dir, Hashtbl.find_opt c.leaves dir)
              with
              | Some a, Some b -> a = b
              | _ -> false
            in
            if PT.shares_leaf p.pt c.pt ~vpn:(dir * entries_per_leaf) <> want
            then Alcotest.failf "%s: shares_leaf dir %d <> model" ctx dir)
          !live)
      !live;
    let want = model_refcounts (tables ()) in
    let got = PT.expected_refcounts (List.map (fun m -> m.pt) (tables ())) in
    if Hashtbl.length got <> Hashtbl.length want then
      Alcotest.failf "%s: expected_refcounts names %d frames, model %d" ctx
        (Hashtbl.length got) (Hashtbl.length want);
    Hashtbl.iter
      (fun f n ->
        if Hashtbl.find_opt got f <> Some n then
          Alcotest.failf "%s: frame %d: expected_refcounts disagrees with %d"
            ctx f n)
      want;
    check_refcounts ~ctx frames (List.map (fun m -> m.pt) (tables ()))
  in
  (* Release [m], predicting from the model the frames it frees: its
     unshared leaves in ascending directory order, each leaf's entries
     in ascending order, a frame freed when its last reference goes. *)
  let release ~ctx ((_, m) as victim) =
    let counts = model_refcounts (tables ()) in
    let freed = ref [] in
    List.iter
      (fun (vpn, e) ->
        let dir = vpn / entries_per_leaf in
        if not (shared_elsewhere m dir (Hashtbl.find m.leaves dir)) then begin
          let f = PT.Entry.frame e in
          let n = Hashtbl.find counts f - 1 in
          Hashtbl.replace counts f n;
          if n = 0 then freed := f :: !freed
        end)
      (model_pages m);
    PT.release m.pt;
    live := List.filter (fun v -> v != victim) !live;
    let handed = List.map (fun _ -> F.alloc frames) !freed in
    if handed <> !freed then
      Alcotest.failf "%s: alloc after release hands out [%s], model [%s]" ctx
        (String.concat " " (List.map string_of_int handed))
        (String.concat " " (List.map string_of_int !freed));
    (* Free them again in their release order, restoring the list. *)
    List.iter (F.decref frames) (List.rev handed)
  in
  let step = ref 0 in
  let extra = 100 + Sim.Prng.int prng 100 in
  let finished = ref 0 in
  while !finished < extra do
    incr step;
    if used.(0) = ndirs && used.(1) = ndirs then incr finished;
    let ctx = Printf.sprintf "seed %Ld sched %d step %d" seed sched !step in
    (match Sim.Prng.int prng 100 with
    | r when r < 55 ->
        let fam, m = pick () in
        set m ~vpn:(pick_vpn fam)
          (PT.Entry.make ~frame:(F.alloc frames) ~writable:true ~cow:false
             ~dirty:true)
    | r when r < 65 -> (
        (* A frame any table maps, possibly the other family's, shared
           by reference. *)
        match
          List.concat_map
            (fun (_, o) -> Hashtbl.fold (fun _ e acc -> PT.Entry.frame e :: acc) o.map [])
            !live
        with
        | [] -> ()
        | frs ->
            let fr = List.nth frs (Sim.Prng.int prng (List.length frs)) in
            let fam, m = pick () in
            let vpn = pick_vpn fam in
            (match Hashtbl.find_opt m.map vpn with
            | Some old when PT.Entry.frame old = fr -> ()
            | Some _ | None -> F.incref frames fr);
            set m ~vpn
              (PT.Entry.make ~frame:fr ~writable:false ~cow:true ~dirty:false))
    | r when r < 70 -> (
        let _, m = pick () in
        match model_pages m with
        | [] -> ()
        | pages ->
            let vpn, _ = List.nth pages (Sim.Prng.int prng (List.length pages)) in
            set m ~vpn PT.Entry.absent)
    | r when r < 85 ->
        if List.length !live < max_spaces then begin
          let fam, m = pick () in
          live :=
            ( fam,
              { pt = PT.clone_shallow m.pt; leaves = Hashtbl.copy m.leaves;
                map = Hashtbl.copy m.map } )
            :: !live
        end
    | _ ->
        (* Each family keeps one table, so both stay in play. *)
        let ((fam, _) as victim) = pick () in
        if List.length (List.filter (fun (f, _) -> f = fam) !live) > 1 then
          release ~ctx victim);
    if !step mod 64 = 0 then check ~ctx
  done;
  let ctx = Printf.sprintf "seed %Ld sched %d end" seed sched in
  check ~ctx;
  List.iter (release ~ctx) !live;
  Alcotest.(check int) (ctx ^ ": drained") 0 (F.used_frames frames)

let test_wide_roots_match_model () =
  for sched = 0 to wide_schedules - 1 do
    run_wide_schedule ~seed:base_seed ~sched
  done

(* {1 Free list against a LIFO-stack model} *)

(* The allocator's observable state, kept independently: the free ids
   as a stack (most recently freed first), the next never-used id, and
   each live id's refcount and tag. *)
type alloc_model = {
  mutable stack : int list;
  mutable fresh : int;
  counts : (int, int) Hashtbl.t;
  tags : (int, int) Hashtbl.t;
}

let free_budget = 16

let model_drop m id =
  match Hashtbl.find m.counts id with
  | 1 ->
      Hashtbl.remove m.counts id;
      Hashtbl.remove m.tags id;
      m.stack <- id :: m.stack
  | n -> Hashtbl.replace m.counts id (n - 1)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let check_alloc_model ~ctx frames m =
  if F.used_frames frames <> Hashtbl.length m.counts then
    Alcotest.failf "%s: used_frames %d, model %d" ctx (F.used_frames frames)
      (Hashtbl.length m.counts);
  for id = -1 to m.fresh + 1 do
    let want = Hashtbl.mem m.counts id in
    if F.is_live frames id <> want then
      Alcotest.failf "%s: is_live %d = %b, model %b" ctx id (not want) want;
    if want then begin
      let rc = Hashtbl.find m.counts id and rc' = F.refcount frames id in
      if rc <> rc' then Alcotest.failf "%s: refcount %d = %d, model %d" ctx id rc' rc;
      let tg = Option.value ~default:0 (Hashtbl.find_opt m.tags id)
      and tg' = F.tag frames id in
      if tg <> tg' then Alcotest.failf "%s: tag %d = %d, model %d" ctx id tg' tg
    end
  done

(* Every per-frame entry point on a dead id raises [Invalid_argument]
   and leaves the allocator as it was. *)
let check_dead ~ctx frames id =
  List.iter
    (fun (name, f) ->
      if not (raises_invalid f) then
        Alcotest.failf "%s: %s on dead frame %d did not raise" ctx name id)
    [
      ("incref", fun () -> F.incref frames id);
      ("decref", fun () -> F.decref frames id);
      ("refcount", fun () -> ignore (F.refcount frames id));
      ("tag", fun () -> ignore (F.tag frames id));
      ("set_tag", fun () -> F.set_tag frames id 7);
    ]

(* One schedule over a [free_budget]-frame allocator, so it runs dry
   often: every [alloc] must return the id the model pops (or a fresh
   one when the stack is empty), and after every step the allocator
   agrees with the model on every id it has handed out. *)
let run_free_list_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int (17000 + sched))) in
  let frames =
    F.create ~budget_bytes:(Int64.of_int (free_budget * Mem.Mconfig.page_size)) ()
  in
  let m =
    { stack = []; fresh = 0; counts = Hashtbl.create 64; tags = Hashtbl.create 64 }
  in
  let live () = Hashtbl.fold (fun id _ acc -> id :: acc) m.counts [] |> List.sort compare in
  let pick_live () =
    match live () with
    | [] -> None
    | ids -> Some (List.nth ids (Sim.Prng.int prng (List.length ids)))
  in
  let steps = 80 + Sim.Prng.int prng 80 in
  for step = 1 to steps do
    let ctx = Printf.sprintf "seed %Ld sched %d step %d" seed sched step in
    (match Sim.Prng.int prng 100 with
    | r when r < 40 -> (
        let want =
          if Hashtbl.length m.counts >= free_budget then None
          else
            match m.stack with
            | id :: rest ->
                m.stack <- rest;
                Some id
            | [] ->
                m.fresh <- m.fresh + 1;
                Some (m.fresh - 1)
        in
        match (F.alloc frames, want) with
        | id, Some w ->
            if id <> w then Alcotest.failf "%s: alloc returned %d, model pops %d" ctx id w;
            Hashtbl.replace m.counts id 1
        | id, None -> Alcotest.failf "%s: alloc returned %d past the budget" ctx id
        | exception F.Out_of_memory ->
            if want <> None then Alcotest.failf "%s: Out_of_memory below the budget" ctx)
    | r when r < 52 ->
        Option.iter
          (fun id ->
            F.incref frames id;
            Hashtbl.replace m.counts id (Hashtbl.find m.counts id + 1))
          (pick_live ())
    | r when r < 70 ->
        Option.iter
          (fun id ->
            F.decref frames id;
            model_drop m id)
          (pick_live ())
    | r when r < 80 ->
        (* A leaf naming a few distinct live frames at random entries,
           among non-present entries whose frame bits name dead ids. *)
        let pos = if Sim.Prng.int prng 2 = 0 then 0 else entries_per_leaf in
        let ents = Array.make (2 * entries_per_leaf) PT.Entry.absent in
        for i = pos to pos + entries_per_leaf - 1 do
          if Sim.Prng.int prng 8 = 0 then
            (* The present bit is bit 0: clear it from a writable entry. *)
            ents.(i) <-
              PT.Entry.make ~frame:(m.fresh + i) ~writable:true ~cow:false
                ~dirty:false
              lxor 1
        done;
        let ids = Array.of_list (live ()) in
        Sim.Prng.shuffle prng ids;
        let k = min (Array.length ids) (Sim.Prng.int prng 6) in
        let at = Array.init entries_per_leaf (fun i -> pos + i) in
        Sim.Prng.shuffle prng at;
        let placed = Array.sub at 0 k in
        Array.sort compare placed;
        Array.iteri
          (fun j i ->
            ents.(i) <-
              PT.Entry.make ~frame:ids.(j) ~writable:false ~cow:true ~dirty:false)
          placed;
        F.decref_leaf frames ents ~pos;
        (* Ascending entry order, so the model's pushes follow it. *)
        Array.iteri (fun j _ -> model_drop m ids.(j)) placed
    | r when r < 90 ->
        Option.iter
          (fun id ->
            let tg = 1 + Sim.Prng.int prng 1000 in
            F.set_tag frames id tg;
            Hashtbl.replace m.tags id tg)
          (pick_live ())
    | _ -> (
        match m.stack with
        | [] -> check_dead ~ctx frames m.fresh
        | stack -> check_dead ~ctx frames (List.nth stack (Sim.Prng.int prng (List.length stack)))));
    check_alloc_model ~ctx frames m
  done

let test_free_list_matches_stack_model () =
  for sched = 0 to schedules - 1 do
    run_free_list_schedule ~seed:base_seed ~sched
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
      ( "model",
        [
          case
            (Printf.sprintf "%d schedules: every write entry point == model"
               schedules)
            test_entry_points_match_model;
          case "OOM at every page of a leaf-crossing range"
            test_entry_points_oom_every_page;
        ] );
      ( "freeze",
        [
          case
            (Printf.sprintf "%d schedules: skip-frozen == full walk"
               schedules)
            test_freeze_matches_full_walk;
        ] );
      ( "slab",
        [
          case
            (Printf.sprintf "%d schedules: slot reuse == pure model" schedules)
            test_slot_reuse_matches_model;
          case
            (Printf.sprintf
               "%d schedules: every directory, roots widening == pure model"
               wide_schedules)
            test_wide_roots_match_model;
        ] );
      ( "free list",
        [
          case
            (Printf.sprintf "%d schedules: alloc order == LIFO stack model"
               schedules)
            test_free_list_matches_stack_model;
        ] );
      ( "trace",
        [ case "records fault order once" test_trace_records_fault_order ] );
      ( "drain",
        [
          case "parent release under live clones"
            test_release_parent_under_live_clones;
        ] );
    ]
