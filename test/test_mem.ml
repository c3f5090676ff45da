(* Tests for the frame allocator, shared page tables and COW address
   spaces — the substrate whose accounting drives every memory number in
   the reproduction. *)

module F = Mem.Frame
module PT = Mem.Page_table
module AS = Mem.Addr_space

let small_frames () = F.create ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 64)) ()

(* {1 Frame allocator} *)

let test_frame_alloc_free () =
  let f = small_frames () in
  let a = F.alloc f and b = F.alloc f in
  Alcotest.(check int) "live" 2 (F.used_frames f);
  Alcotest.(check int) "rc" 1 (F.refcount f a);
  F.incref f a;
  F.decref f a;
  Alcotest.(check int) "still live" 2 (F.used_frames f);
  F.decref f a;
  F.decref f b;
  Alcotest.(check int) "all freed" 0 (F.used_frames f);
  Alcotest.(check int) "peak" 2 (F.peak_frames f)

let test_frame_budget_enforced () =
  let f = F.create ~budget_bytes:(Int64.of_int (4096 * 4)) () in
  for _ = 1 to 4 do
    ignore (F.alloc f)
  done;
  Alcotest.check_raises "budget" F.Out_of_memory (fun () -> ignore (F.alloc f))

let test_frame_reuse_after_free () =
  let f = F.create ~budget_bytes:(Int64.of_int (4096 * 2)) () in
  let a = F.alloc f in
  ignore (F.alloc f);
  F.decref f a;
  let c = F.alloc f in
  Alcotest.(check int) "slot recycled" a c

let test_frame_dead_frame_rejected () =
  let f = small_frames () in
  let a = F.alloc f in
  F.decref f a;
  Alcotest.(check bool) "dead decref raises" true
    (match F.decref f a with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_frame_accounting () =
  let f = small_frames () in
  ignore (F.alloc f);
  Alcotest.(check int64) "used bytes" 4096L (F.used_bytes f);
  Alcotest.(check int64) "free bytes"
    (Int64.sub (F.budget_bytes f) 4096L)
    (F.free_bytes f)

(* An allocator that never tags costs one word per frame id: the
   refcount cells, which also carry the free list, plus a constant for
   the record, whether every frame is live or every one is free. *)
let test_frame_footprint_untagged () =
  let f = F.create () in
  let n = 100_000 in
  (* The refcount capacity: 4096 cells, doubled until every id fits. *)
  let rec capacity c = if c >= n then c else capacity (2 * c) in
  let bound = capacity 4096 + 32 in
  let check what =
    let words = Obj.reachable_words (Obj.repr f) in
    if words > bound then
      Alcotest.failf "%s: %d words reachable, bound %d" what words bound
  in
  let ids = Array.init n (fun _ -> F.alloc f) in
  check "after 100k allocations";
  Array.iter (F.decref f) ids;
  check "after freeing them all";
  Alcotest.(check int) "all free" 0 (F.used_frames f)

(* Tags appear with the first [set_tag] and grow with the allocator:
   every other frame reads 0, and a tagged frame comes back untagged
   when its id is recycled. *)
let test_frame_tags_on_demand () =
  let f = F.create () in
  let ids = Array.init 5000 (fun _ -> F.alloc f) in
  Array.iter (fun id -> Alcotest.(check int) "untagged" 0 (F.tag f id)) ids;
  F.set_tag f ids.(17) 99;
  Array.iteri
    (fun i id ->
      Alcotest.(check int) "only the tagged frame" (if i = 17 then 99 else 0)
        (F.tag f id))
    ids;
  (* Past the first capacity: the tags grow with the refcounts. *)
  let more = Array.init 10_000 (fun _ -> F.alloc f) in
  F.set_tag f more.(9999) 5;
  Alcotest.(check int) "tag past growth" 5 (F.tag f more.(9999));
  Alcotest.(check int) "neighbour untagged" 0 (F.tag f more.(9998));
  Alcotest.(check int) "earlier tag kept" 99 (F.tag f ids.(17));
  F.decref f ids.(17);
  let again = F.alloc f in
  Alcotest.(check int) "id recycled" ids.(17) again;
  Alcotest.(check int) "recycled id untagged" 0 (F.tag f again)

let frame_refcount_conservation =
  QCheck.Test.make ~name:"random incref/decref keeps allocator consistent"
    ~count:100
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let f = small_frames () in
      let live = ref [] in
      List.iter
        (fun op ->
          match (op, !live) with
          | 0, _ -> live := (F.alloc f, ref 1) :: !live
          | 1, (fr, rc) :: _ ->
              F.incref f fr;
              incr rc
          | 2, (fr, rc) :: rest ->
              F.decref f fr;
              decr rc;
              if !rc = 0 then live := rest
          | _ -> ())
        ops;
      F.used_frames f = List.length !live)

(* {1 Page table} *)

let entry_rw f =
  PT.Entry.make ~frame:f ~writable:true ~cow:false ~dirty:false

let test_entry_roundtrip () =
  let e =
    PT.Entry.make ~frame:123456 ~writable:true ~cow:false ~dirty:true
  in
  Alcotest.(check bool) "present" true (PT.Entry.present e);
  Alcotest.(check int) "frame" 123456 (PT.Entry.frame e);
  Alcotest.(check bool) "writable" true (PT.Entry.writable e);
  Alcotest.(check bool) "cow" false (PT.Entry.cow e);
  Alcotest.(check bool) "dirty" true (PT.Entry.dirty e);
  let e' = PT.Entry.with_flags ~writable:false ~cow:true e in
  Alcotest.(check bool) "flags updated" true
    (PT.Entry.cow e' && not (PT.Entry.writable e'));
  Alcotest.(check int) "frame preserved" 123456 (PT.Entry.frame e')

let entry_roundtrip_prop =
  QCheck.Test.make ~name:"entry encodes any frame/flag combination" ~count:300
    QCheck.(
      quad (int_range 0 10_000_000) bool bool bool)
    (fun (frame, w, c, d) ->
      let e = PT.Entry.make ~frame ~writable:w ~cow:c ~dirty:d in
      PT.Entry.present e && PT.Entry.frame e = frame
      && PT.Entry.writable e = w && PT.Entry.cow e = c
      && PT.Entry.dirty e = d)

let test_pt_set_get () =
  let f = small_frames () in
  let pt = PT.create f in
  let fr = F.alloc f in
  PT.set pt ~vpn:1000 (entry_rw fr);
  Alcotest.(check int) "frame back" fr (PT.Entry.frame (PT.get pt ~vpn:1000));
  Alcotest.(check int) "absent elsewhere" PT.Entry.absent (PT.get pt ~vpn:1001);
  Alcotest.(check int) "one page" 1 (PT.count_present pt)

let test_pt_overwrite_releases_old_frame () =
  let f = small_frames () in
  let pt = PT.create f in
  let a = F.alloc f and b = F.alloc f in
  PT.set pt ~vpn:5 (entry_rw a);
  PT.set pt ~vpn:5 (entry_rw b);
  Alcotest.(check int) "old frame freed" 1 (F.used_frames f);
  PT.set pt ~vpn:5 PT.Entry.absent;
  Alcotest.(check int) "cleared" 0 (F.used_frames f)

let test_pt_clone_shares_leaves () =
  let f = small_frames () in
  let pt = PT.create f in
  let fr = F.alloc f in
  PT.set pt ~vpn:0 (entry_rw fr);
  let clone = PT.clone_shallow pt in
  (* No frame refcount change on shallow clone. *)
  Alcotest.(check int) "frame rc unchanged" 1 (F.refcount f fr);
  Alcotest.(check int) "clone sees entry" fr
    (PT.Entry.frame (PT.get clone ~vpn:0));
  Alcotest.(check int) "no private leaves in either" 0
    (PT.private_leaf_tables pt + PT.private_leaf_tables clone)

let test_pt_write_privatizes_leaf () =
  let f = small_frames () in
  let pt = PT.create f in
  let fr = F.alloc f in
  PT.set pt ~vpn:0 (entry_rw fr);
  let clone = PT.clone_shallow pt in
  let fr2 = F.alloc f in
  PT.set clone ~vpn:1 (entry_rw fr2);
  (* The clone copied the leaf: the shared frame now has two mapping
     references (one per leaf). *)
  Alcotest.(check int) "shared frame rc" 2 (F.refcount f fr);
  Alcotest.(check int) "original unaffected" PT.Entry.absent
    (PT.get pt ~vpn:1);
  Alcotest.(check int) "clone has both" 2 (PT.count_present clone)

let test_pt_mark_cow_visible_through_shares () =
  let f = small_frames () in
  let pt = PT.create f in
  PT.set pt ~vpn:0 (entry_rw (F.alloc f));
  let clone = PT.clone_shallow pt in
  PT.mark_all_cow_clean pt;
  let e = PT.get clone ~vpn:0 in
  Alcotest.(check bool) "clone sees RO+COW" true
    (PT.Entry.cow e && not (PT.Entry.writable e))

let test_pt_release_returns_frames () =
  let f = small_frames () in
  let pt = PT.create f in
  for vpn = 0 to 99 do
    PT.set pt ~vpn (entry_rw (F.alloc f))
  done;
  let clone = PT.clone_shallow pt in
  PT.release pt;
  Alcotest.(check int) "frames kept by clone" 100 (F.used_frames f);
  PT.release clone;
  Alcotest.(check int) "all returned" 0 (F.used_frames f)

let test_pt_use_after_release_rejected () =
  let f = small_frames () in
  let pt = PT.create f in
  PT.release pt;
  Alcotest.(check bool) "get rejected" true
    (match PT.get pt ~vpn:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pt_vpn_bounds () =
  let f = small_frames () in
  let pt = PT.create f in
  Alcotest.(check bool) "negative rejected" true
    (match PT.get pt ~vpn:(-1) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "beyond max rejected" true
    (match PT.get pt ~vpn:PT.max_vpn with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The zero-allocation contract of the deploy path, the mem twin of
   test_sim's zero-alloc dispatch: once a family's slab and root pool
   have grown, a deploy/destroy cycle recycles leaf slots and roots, so
   it allocates nothing on the major heap and, on the minor heap,
   exactly the clone's table record (three fields plus a header) per
   cycle. *)
let test_pt_zero_alloc_deploy_cycle () =
  let f = small_frames () in
  let entries = Mem.Mconfig.entries_per_table in
  let leaves = 5 in
  let base = PT.create f in
  for leaf = 0 to leaves - 1 do
    for i = 0 to 7 do
      PT.set base ~vpn:((leaf * entries) + (i * 37)) (entry_rw (F.alloc f))
    done
  done;
  PT.mark_all_cow_clean base;
  let fr = F.alloc f in
  (* Each write lands in a shared leaf, so each privatizes one. *)
  let cycle () =
    let clone = PT.clone_shallow base in
    for leaf = 0 to leaves - 1 do
      F.incref f fr;
      PT.set clone ~vpn:((leaf * entries) + 3) (entry_rw fr)
    done;
    PT.release clone
  in
  for _ = 1 to 10 do
    cycle ()
  done;
  let cycles = 1_000 and record_words = 4 in
  (* An empty minor heap holds every record the cycles allocate, so no
     minor collection promotes one into the major count. *)
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  for _ = 1 to cycles do
    cycle ()
  done;
  let minor1 = Gc.minor_words () in
  let _, _, major1 = Gc.counters () in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "major words allocated across %d deploy cycles" cycles)
    0.0 (major1 -. major0);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words allocated across %d deploy cycles" cycles)
    (float_of_int (record_words * cycles))
    (minor1 -. minor0);
  Alcotest.(check int) "only the base's frames and the shared one live"
    ((leaves * 8) + 1) (F.used_frames f)

(* A clone that finds no released root makes one, as wide as the
   directories its family uses rather than all 512: in a family with the
   guest layout's 62 directories (0-54, 72, 76, 80, 81, 128, 129, 256)
   that is a 64-slot root (65 words), the table record (4) and the root
   stack's doubling (3). Words are counted as the GC does (minor + major
   - promoted), less what reading the counters allocates. On OCaml 5
   [Gc.quick_stat] sums only what the last collection recorded and
   [Gc.counters]' minor count is not in words, so the minor words come
   from [Gc.minor_words], the rest from [Gc.counters]. *)
let test_pt_fresh_root_clone_words () =
  let f = small_frames () in
  let entries = Mem.Mconfig.entries_per_table in
  let base = PT.create f in
  List.iter
    (fun dir -> PT.set base ~vpn:(dir * entries) (entry_rw (F.alloc f)))
    (List.init 55 Fun.id @ [ 72; 76; 80; 81; 128; 129; 256 ]);
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  let w1 = words () in
  let clone = PT.clone_shallow base in
  let w2 = words () in
  let clone_words = w2 -. w1 -. (w1 -. w0) in
  if clone_words >= 100.0 then
    Alcotest.failf "a clone making a fresh root allocated %.0f words" clone_words;
  Alcotest.(check bool) "the clone shares the base's leaves" true
    (PT.shares_leaf base clone ~vpn:(256 * entries));
  PT.release clone;
  PT.release base;
  Alcotest.(check int) "drained" 0 (F.used_frames f)

(* Property: an arbitrary interleaving of table operations never breaks
   frame conservation — releasing every table returns the allocator to
   zero live frames. *)
let pt_frame_conservation =
  QCheck.Test.make ~name:"clone/write/release conserve frames" ~count:60
    QCheck.(list (pair (int_range 0 3) (int_range 0 2047)))
    (fun ops ->
      let f = F.create ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 256)) () in
      let tables = ref [ PT.create f ] in
      List.iter
        (fun (op, vpn) ->
          match (op, !tables) with
          | 0, t :: _ -> PT.set t ~vpn (entry_rw (F.alloc f))
          | 1, t :: _ -> tables := PT.clone_shallow t :: !tables
          | 2, t :: (_ :: _ as rest) ->
              PT.release t;
              tables := rest
          | 3, t :: _ -> PT.mark_all_cow_clean t
          | _ -> ())
        ops;
      List.iter PT.release !tables;
      F.used_frames f = 0)

(* {1 Address space} *)

let test_as_zero_fill () =
  let f = small_frames () in
  let a = AS.create f in
  Alcotest.(check bool) "first write zero-fills" true
    (AS.touch_write a ~vpn:10 = AS.Zero_fill);
  Alcotest.(check bool) "second write no fault" true
    (AS.touch_write a ~vpn:10 = AS.No_fault);
  Alcotest.(check int) "mapped" 1 (AS.mapped_pages a);
  Alcotest.(check int) "dirty" 1 (AS.dirty_pages a)

(* A read resolves through the table and never faults: an absent page
   reads as absent, and nothing is mapped or allocated for it. *)
let test_as_read_does_not_allocate () =
  let f = small_frames () in
  let a = AS.create f in
  Alcotest.(check int) "absent" PT.Entry.absent (PT.get (AS.table a) ~vpn:50);
  Alcotest.(check int) "no mapping" 0 (AS.mapped_pages a);
  Alcotest.(check int) "no frame" 0 (F.used_frames f)

let test_as_cow_isolation () =
  let f = small_frames () in
  let parent = AS.create f in
  ignore (AS.write_range parent ~vpn:0 ~pages:10);
  PT.mark_all_cow_clean (AS.table parent);
  let child = AS.of_table f (AS.table parent) in
  Alcotest.(check bool) "child write faults COW" true
    (AS.touch_write child ~vpn:3 = AS.Cow_copy);
  (* Parent mapping unchanged; child now privately owns vpn 3. *)
  let pe = PT.get (AS.table parent) ~vpn:3
  and ce = PT.get (AS.table child) ~vpn:3 in
  Alcotest.(check bool) "different frames" true
    (PT.Entry.frame pe <> PT.Entry.frame ce);
  Alcotest.(check bool) "parent still cow" true (PT.Entry.cow pe);
  Alcotest.(check bool) "child writable" true (PT.Entry.writable ce)

let test_as_write_stats () =
  let f = small_frames () in
  let parent = AS.create f in
  ignore (AS.write_range parent ~vpn:0 ~pages:8);
  PT.mark_all_cow_clean (AS.table parent);
  let child = AS.of_table f (AS.table parent) in
  let stats = AS.write_range child ~vpn:4 ~pages:8 in
  Alcotest.(check int) "cow copies" 4 stats.AS.cow_copies;
  Alcotest.(check int) "zero fills" 4 stats.AS.zero_fills;
  Alcotest.(check int) "lifetime counters" 4 (AS.lifetime_cow_copies child)

(* Word budgets for the address-space hot roots. Each cycle deploys a
   clone of a frozen 8-page base, runs [f] on it and releases it, so
   leaf slots, roots and frames recycle; only [f] is counted, between
   two [Gc.minor_words] reads, which allocate nothing. The result is
   the exact minor words per call of [f] (checked to be a whole
   number). *)
let as_words_per_call f =
  let fr = small_frames () in
  let base = AS.create fr in
  ignore (AS.write_range base ~vpn:0 ~pages:8);
  AS.freeze base;
  let words = ref 0 in
  let cycle () =
    let a = AS.of_table fr (AS.table base) in
    let w0 = Gc.minor_words () in
    f a;
    words := !words + int_of_float (Gc.minor_words () -. w0);
    AS.release a
  in
  for _ = 1 to 10 do
    cycle ()
  done;
  words := 0;
  let cycles = 1_000 in
  for _ = 1 to cycles do
    cycle ()
  done;
  float_of_int !words /. float_of_int cycles

(* [write_range] on either fault arm returns one [write_stats] record
   (three fields plus a header); resolving the page, privatizing its
   leaf and taking a frame recycle what the last cycle released. *)
let test_as_write_range_word_budget () =
  Alcotest.(check (float 0.0)) "minor words per COW write_range" 4.0
    (as_words_per_call (fun a ->
         ignore (Sys.opaque_identity (AS.write_range a ~vpn:3 ~pages:1))));
  Alcotest.(check (float 0.0)) "minor words per zero-fill write_range" 4.0
    (as_words_per_call (fun a ->
         let vpn = Mem.Mconfig.entries_per_table + 5 in
         ignore (Sys.opaque_identity (AS.write_range a ~vpn ~pages:1))))

(* [prefault] over a working set with a COW page, a run of two and a
   zero fill in a second directory returns one [prefault_stats] record
   (four fields plus a header). *)
let test_as_prefault_word_budget () =
  let vpns = [| 1; 4; 5; Mem.Mconfig.entries_per_table + 5 |] in
  Alcotest.(check (float 0.0)) "minor words per prefault" 5.0
    (as_words_per_call (fun a ->
         ignore (Sys.opaque_identity (AS.prefault a ~vpns))))

let test_as_dirty_tracking_resets () =
  let f = small_frames () in
  let a = AS.create f in
  ignore (AS.write_range a ~vpn:0 ~pages:5);
  Alcotest.(check int) "dirty" 5 (AS.dirty_pages a);
  AS.freeze a;
  Alcotest.(check int) "clean" 0 (AS.dirty_pages a);
  ignore (AS.write_range a ~vpn:2 ~pages:1);
  Alcotest.(check int) "re-dirtied" 1 (AS.dirty_pages a)

let test_as_oom_propagates () =
  let f = F.create ~budget_bytes:(Int64.of_int (4096 * 3)) () in
  let a = AS.create f in
  Alcotest.check_raises "out of frames" F.Out_of_memory (fun () ->
      ignore (AS.write_range a ~vpn:0 ~pages:10))

(* Property: a family of children deployed from a frozen parent can write
   anywhere; releasing everything returns all frames. *)
let as_family_conservation =
  QCheck.Test.make ~name:"parent + children writes conserve frames" ~count:40
    QCheck.(list (pair (int_range 0 4) (int_range 0 255)))
    (fun writes ->
      let f = F.create ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 256)) () in
      let parent = AS.create f in
      ignore (AS.write_range parent ~vpn:0 ~pages:64);
      PT.mark_all_cow_clean (AS.table parent);
      let children = Array.init 5 (fun _ -> AS.of_table f (AS.table parent)) in
      List.iter
        (fun (child, vpn) -> ignore (AS.touch_write children.(child) ~vpn))
        writes;
      Array.iter AS.release children;
      AS.release parent;
      F.used_frames f = 0)

(* Property: the O(1) dirty/mapped counters always agree with a full
   page-table walk, across writes, clears, freezes and deploys. *)
let as_counters_match_walk =
  QCheck.Test.make ~name:"incremental counters equal slow walks" ~count:60
    QCheck.(list (pair (int_range 0 3) (int_range 0 127)))
    (fun ops ->
      let f = F.create ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 64)) () in
      let parent = AS.create f in
      ignore (AS.write_range parent ~vpn:0 ~pages:32);
      let space = ref parent in
      List.iter
        (fun (op, vpn) ->
          match op with
          | 0 -> ignore (AS.touch_write !space ~vpn)
          | 1 -> ignore (AS.write_range !space ~vpn ~pages:2)
          | 2 -> AS.freeze !space
          | 3 ->
              AS.freeze !space;
              space := AS.of_table f (AS.table !space)
          | _ -> ())
        ops;
      AS.dirty_pages !space = AS.dirty_pages_slow !space
      && AS.mapped_pages !space = AS.mapped_pages_slow !space)

(* Property: COW from a frozen parent never mutates the parent's view. *)
let as_parent_immutable =
  QCheck.Test.make ~name:"child writes never change parent mappings" ~count:40
    QCheck.(list (int_range 0 63))
    (fun vpns ->
      let f = F.create ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 64)) () in
      let parent = AS.create f in
      ignore (AS.write_range parent ~vpn:0 ~pages:64);
      PT.mark_all_cow_clean (AS.table parent);
      let before =
        PT.fold_present (AS.table parent) ~init:[] ~f:(fun acc ~vpn e ->
            (vpn, PT.Entry.frame e) :: acc)
      in
      let child = AS.of_table f (AS.table parent) in
      List.iter (fun vpn -> ignore (AS.touch_write child ~vpn)) vpns;
      let after =
        PT.fold_present (AS.table parent) ~init:[] ~f:(fun acc ~vpn e ->
            (vpn, PT.Entry.frame e) :: acc)
      in
      before = after)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  let qcase = QCheck_alcotest.to_alcotest in
  Alcotest.run "mem"
    [
      ( "frame",
        [
          case "alloc free" test_frame_alloc_free;
          case "budget enforced" test_frame_budget_enforced;
          case "reuse after free" test_frame_reuse_after_free;
          case "dead frame rejected" test_frame_dead_frame_rejected;
          case "accounting" test_frame_accounting;
          case "footprint untagged" test_frame_footprint_untagged;
          case "tags on demand" test_frame_tags_on_demand;
          qcase frame_refcount_conservation;
        ] );
      ( "page_table",
        [
          case "entry roundtrip" test_entry_roundtrip;
          case "set get" test_pt_set_get;
          case "overwrite releases" test_pt_overwrite_releases_old_frame;
          case "clone shares leaves" test_pt_clone_shares_leaves;
          case "write privatizes leaf" test_pt_write_privatizes_leaf;
          case "mark cow visible" test_pt_mark_cow_visible_through_shares;
          case "release returns frames" test_pt_release_returns_frames;
          case "use after release" test_pt_use_after_release_rejected;
          case "vpn bounds" test_pt_vpn_bounds;
          case "zero-alloc deploy cycle" test_pt_zero_alloc_deploy_cycle;
          case "fresh-root clone words" test_pt_fresh_root_clone_words;
          qcase entry_roundtrip_prop;
          qcase pt_frame_conservation;
        ] );
      ( "addr_space",
        [
          case "zero fill" test_as_zero_fill;
          case "read no alloc" test_as_read_does_not_allocate;
          case "cow isolation" test_as_cow_isolation;
          case "write stats" test_as_write_stats;
          case "dirty tracking" test_as_dirty_tracking_resets;
          case "oom propagates" test_as_oom_propagates;
          case "write_range word budget" test_as_write_range_word_budget;
          case "prefault word budget" test_as_prefault_word_budget;
          qcase as_family_conservation;
          qcase as_counters_match_walk;
          qcase as_parent_immutable;
        ] );
    ]
