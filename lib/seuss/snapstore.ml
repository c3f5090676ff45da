(* The content-addressed function-snapshot store.

   Frames are metadata-only, so "content" is synthesized from the guest
   memory layout, which is deterministic by construction: every function
   snapshot of a runtime is captured at the same compile-ok breakpoint,
   after the same restore/accept/compile writes landed at the same vpns.
   The only pages whose content depends on the function are the compiled
   bytecode at the tail of the heap bump extent — those are salted by
   the program source; everything else keys on (runtime, vpn). Two
   functions with identical source on the same runtime therefore share
   even their bytecode, which is exactly what a real content hash over
   page bytes would find. *)

type ix_entry = {
  ix_frame : Mem.Frame.frame;
      (* canonical frame for this content; kept live by the member
         tables that map it (the index itself holds no reference) *)
  mutable holders : int;  (* member delta pages naming this content *)
}

type member = {
  m_fn_id : string;
  m_snap : Snapshot.t;
  m_hashes : int array;  (* content hash of each delta page *)
  m_delta_pages : int;
  m_shared_pages : int;
  m_unique_pages : int;
  m_structure_bytes : int;  (* member-private page-table overhead *)
  mutable m_last_used : int;  (* logical tick, not wallclock *)
  mutable m_uses : int;
}

type t = {
  env : Osenv.t;
  budget : int64;
  policy : Config.snap_policy;
  on_evict : fn_id:string -> unit;
  index : (int, ix_entry) Hashtbl.t;  (* content hash -> canonical page *)
  members : (string, member) Hashtbl.t;  (* fn_id -> member *)
  mutable tick : int;
  mutable structure_total : int;
  mutable peak_bytes : int64;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
  mutable pages_inserted_total : int;
  mutable pages_unique_total : int;
  c_inserts : Obs.Metrics.counter;
}

let create ~env ~budget_bytes ~policy ~on_evict =
  {
    env;
    budget = budget_bytes;
    policy;
    on_evict;
    index = Hashtbl.create 4096;
    members = Hashtbl.create 256;
    tick = 0;
    structure_total = 0;
    peak_bytes = 0L;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    pages_inserted_total = 0;
    pages_unique_total = 0;
    c_inserts = Obs.Metrics.counter env.Osenv.metrics "snapstore_inserts_total";
  }

let budget_bytes t = t.budget
let policy t = t.policy
let member_count t = Hashtbl.length t.members
let index_pages t = Hashtbl.length t.index
let hits t = t.hit_count
let misses t = t.miss_count
let evictions t = t.eviction_count
let pages_inserted t = t.pages_inserted_total
let pages_unique t = t.pages_unique_total

let dedup_ratio t =
  if t.pages_unique_total = 0 then 1.0
  else float_of_int t.pages_inserted_total /. float_of_int t.pages_unique_total

let resident_bytes t =
  Int64.add
    (Mem.Mconfig.bytes_of_pages (Hashtbl.length t.index))
    (Int64.of_int t.structure_total)

let peak_resident_bytes t = t.peak_bytes

let members t =
  List.map (fun (fn_id, m) -> (fn_id, m.m_snap)) (Det.bindings t.members)

(* {1 Content identity} *)

(* djb2 folded into 58 bits — deterministic across runs and platforms.
   A hash is built incrementally: [djb2_string] and [djb2_decimal] extend
   a running state by a string's bytes or by a non-negative int's
   decimal digits (the bytes [%d] would print), and [djb2_final] maps
   the state to a tag that is never 0 (0 is Frame's "untagged"). *)
let djb2_init = 5381
let djb2_byte h b = ((h * 33) + b) land 0x3FFFFFFFFFFFFFF
let djb2_string h s =
  String.fold_left (fun h c -> djb2_byte h (Char.code c)) h s

let rec djb2_decimal h n =
  let h = if n >= 10 then djb2_decimal h (n / 10) else h in
  djb2_byte h (Char.code '0' + (n mod 10))

let djb2_final h = if h = 0 then 1 else h

(* The function-specific region of a snapshot's address space: the
   compiled bytecode occupies the last [source_bytes * 4] bytes of the
   heap bump extent (see [Unikernel.Guest.compile_into]), plus the page
   it straddles into. Everything outside keys on (runtime, vpn). *)
let fn_region (snap : Snapshot.t) =
  match Unikernel.Guest.snapshot_program_source snap.Snapshot.guest with
  | Some src ->
      let heap_pages =
        Unikernel.Guest.snapshot_heap_pages snap.Snapshot.guest
      in
      let page = Mem.Mconfig.page_size in
      let code_pages = (((String.length src * 4) + page - 1) / page) + 1 in
      let code_pages = min code_pages heap_pages in
      let hi = Unikernel.Gconst.heap_base + heap_pages in
      (hi - code_pages, hi, src)
  | None ->
      (* No loaded program (not a compile-ok capture): refuse to share
         anything — salt every page by the snapshot's own name. *)
      (0, max_int, snap.Snapshot.name)

(* The djb2 of ["fn:%s:%s:%d" rt salt vpn] inside the function region
   and of ["img:%s:%d" rt vpn] outside it, byte for byte: each prefix is
   hashed once per snapshot and each vpn folds in only its digits. *)
let content_hashes (snap : Snapshot.t) vpns =
  let rt =
    Unikernel.Image.runtime_name snap.Snapshot.image.Unikernel.Image.runtime
  in
  let fn_lo, fn_hi, salt = fn_region snap in
  let fn_prefix =
    djb2_string djb2_init (Printf.sprintf "fn:%s:%s:" rt salt)
  in
  let img_prefix = djb2_string djb2_init (Printf.sprintf "img:%s:" rt) in
  Array.map
    (fun vpn ->
      let prefix =
        if vpn >= fn_lo && vpn < fn_hi then fn_prefix else img_prefix
      in
      djb2_final (djb2_decimal prefix vpn))
    vpns

(* The vpns of the snapshot's delta layer, ascending (both folds walk
   directories, then entries, in order). *)
let delta_vpns (snap : Snapshot.t) =
  let collect acc ~vpn _ = vpn :: acc in
  let descending =
    match snap.Snapshot.parent with
    | Some p ->
        Mem.Page_table.fold_delta ~parent:p.Snapshot.table snap.Snapshot.table
          ~init:[] ~f:collect
    | None ->
        Mem.Page_table.fold_present snap.Snapshot.table ~init:[] ~f:collect
  in
  let n = List.length descending in
  let vpns = Array.make n 0 in
  List.iteri (fun i vpn -> vpns.(n - 1 - i) <- vpn) descending;
  vpns

(* Member-private page-table overhead: its root copy plus one leaf per
   directory its delta touches (the leaves it privatized away from the
   base; everything else is structurally shared and charged to the
   base). Computed from the delta's vpns so it is stable — the private
   leaf count of the live table shifts as the capturing UC retires.
   The vpns are ascending, so each directory is one run of them. *)
let member_structure_bytes vpns =
  let word = 8 in
  let per_leaf = Mem.Mconfig.entries_per_table * word in
  let root = 512 * word in
  let dirs = ref 0 and last_dir = ref (-1) in
  Array.iter
    (fun vpn ->
      let dir = vpn / Mem.Mconfig.entries_per_table in
      if dir <> !last_dir then begin
        incr dirs;
        last_dir := dir
      end)
    vpns;
  root + (!dirs * per_leaf)

(* Rewriting a delta entry to the canonical frame of its content: take
   the reference [Page_table.set] will consume; [set] drops the old
   private frame's reference (freeing it — the store was its only
   holder beyond this table). *)
let adopt_canonical frames table ~vpn entry frame =
  Mem.Frame.incref frames frame;
  Mem.Page_table.set table ~vpn
    (Mem.Page_table.Entry.make ~frame
       ~writable:(Mem.Page_table.Entry.writable entry)
       ~cow:(Mem.Page_table.Entry.cow entry)
       ~dirty:(Mem.Page_table.Entry.dirty entry))

(* {1 Membership} *)

(* Drop a member's index holds; returns the content pages whose last
   holder this was (their canonical frames die with the member's table
   release, which is the caller's side of the bargain). *)
let unlink t m =
  let freed = ref 0 in
  Array.iter
    (fun h ->
      match Hashtbl.find_opt t.index h with
      | None -> ()
      | Some ix ->
          ix.holders <- ix.holders - 1;
          if ix.holders = 0 then begin
            Hashtbl.remove t.index h;
            incr freed
          end)
    m.m_hashes;
  t.structure_total <- t.structure_total - m.m_structure_bytes;
  Hashtbl.remove t.members m.m_fn_id;
  !freed

(* Deterministic victim order: [precedes t a b] when [a] evicts before
   [b]. LRU orders by last-use tick; the working-set policy sends
   snapshots that never recorded a working set first (nothing proves
   they are worth keeping warm), then the lowest
   working-set-per-delta-page ratio. Both break ties by tick then
   fn_id, which is unique, so this is a total order over members. *)
let precedes t a b =
  let by_ws =
    match t.policy with
    | Config.Snap_lru -> 0
    | Config.Snap_ws ->
        let wa = Snapshot.working_set_pages a.m_snap
        and wb = Snapshot.working_set_pages b.m_snap in
        let c = Bool.compare (wa > 0) (wb > 0) in
        if c <> 0 then c
        else
          Float.compare
            (float_of_int wa /. float_of_int (max 1 a.m_delta_pages))
            (float_of_int wb /. float_of_int (max 1 b.m_delta_pages))
  in
  let c =
    if by_ws <> 0 then by_ws else Int.compare a.m_last_used b.m_last_used
  in
  (if c <> 0 then c else String.compare a.m_fn_id b.m_fn_id) < 0

(* The minimum unpinned member under [precedes], in one pass over the
   member table with no per-member allocation. *)
let victim t =
  let best = ref None in
  (* seusslint: allow hashtbl-order — a minimum under a total order is the same in every scan order *)
  Hashtbl.iter
    (fun _ m ->
      if Snapshot.dependents m.m_snap = 0 && not (Snapshot.is_deleted m.m_snap)
      then
        match !best with
        | Some b when not (precedes t m b) -> ()
        | None | Some _ -> best := Some m)
    t.members;
  !best

(* The victim leaves the member table and the owner's mirror before the
   first yield, so no lookup or concurrent victim scan can reach it while
   it is being deleted. *)
let evict_one t m =
  let fn_id = m.m_fn_id in
  t.on_evict ~fn_id;
  let freed = unlink t m in
  Osenv.burn t.env Cost.snap_evict_fixed;
  ignore (Snapshot.try_delete ~env:t.env m.m_snap);
  t.eviction_count <- t.eviction_count + 1;
  Osenv.emit t.env
    (Obs.Event.Snap_evict
       {
         fn_id;
         pages_freed = freed;
         resident_bytes = resident_bytes t;
         policy = Config.policy_name t.policy;
       })

let rec enforce_budget t =
  if
    Int64.compare t.budget 0L > 0
    && Int64.compare (resident_bytes t) t.budget > 0
  then
    match victim t with
    | None -> () (* every member is pinned: tolerate the overrun *)
    | Some m ->
        evict_one t m;
        enforce_budget t

let insert t ~fn_id (snap : Snapshot.t) =
  if Hashtbl.mem t.members fn_id then
    invalid_arg (Printf.sprintf "Snapstore.insert: duplicate member %S" fn_id);
  let frames = t.env.Osenv.frames in
  let table = snap.Snapshot.table in
  let vpns = delta_vpns snap in
  let delta_pages = Array.length vpns in
  Osenv.burn t.env (Cost.snap_index_time ~delta_pages);
  let hashes = content_hashes snap vpns in
  let shared = ref 0 and unique = ref 0 in
  (* Each vpn is rewritten at most once, by its own iteration, so [get]
     reads the entry as the delta walk saw it. *)
  Array.iteri
    (fun i vpn ->
      let h = hashes.(i) and e = Mem.Page_table.get table ~vpn in
      match Hashtbl.find_opt t.index h with
      | Some ix ->
          ix.holders <- ix.holders + 1;
          incr shared;
          if ix.ix_frame <> Mem.Page_table.Entry.frame e then
            adopt_canonical frames table ~vpn e ix.ix_frame
      | None ->
          let f = Mem.Page_table.Entry.frame e in
          Mem.Frame.set_tag frames f h;
          Hashtbl.replace t.index h { ix_frame = f; holders = 1 };
          incr unique)
    vpns;
  let structure = member_structure_bytes vpns in
  let m =
    {
      m_fn_id = fn_id;
      m_snap = snap;
      m_hashes = hashes;
      m_delta_pages = delta_pages;
      m_shared_pages = !shared;
      m_unique_pages = !unique;
      m_structure_bytes = structure;
      m_last_used = t.tick;
      m_uses = 0;
    }
  in
  t.tick <- t.tick + 1;
  Hashtbl.replace t.members fn_id m;
  t.structure_total <- t.structure_total + structure;
  t.pages_inserted_total <- t.pages_inserted_total + delta_pages;
  t.pages_unique_total <- t.pages_unique_total + !unique;
  Obs.Metrics.inc t.c_inserts;
  Osenv.emit t.env
    (Obs.Event.Snap_delta
       {
         snapshot = snap.Snapshot.name;
         parent =
           (match snap.Snapshot.parent with
           | Some p -> p.Snapshot.name
           | None -> "-");
         delta_pages;
         delta_bytes = Mem.Mconfig.bytes_of_pages delta_pages;
       });
  Osenv.emit t.env
    (Obs.Event.Snap_dedup
       {
         snapshot = snap.Snapshot.name;
         delta_pages;
         shared_pages = !shared;
         unique_pages = !unique;
       });
  enforce_budget t;
  let res = resident_bytes t in
  if Int64.compare res t.peak_bytes > 0 then t.peak_bytes <- res

let lookup t fn_id =
  match Hashtbl.find_opt t.members fn_id with
  | None ->
      t.miss_count <- t.miss_count + 1;
      None
  | Some m ->
      m.m_last_used <- t.tick;
      t.tick <- t.tick + 1;
      m.m_uses <- m.m_uses + 1;
      t.hit_count <- t.hit_count + 1;
      Some m.m_snap

let drain t =
  List.iter
    (fun (_, m) ->
      ignore (Snapshot.try_delete ~env:t.env m.m_snap);
      ignore (unlink t m))
    (Det.bindings t.members)

(* {1 Self-validation (tests)} *)

let victim_id t = Option.map (fun m -> m.m_fn_id) (victim t)

type member_info = { last_used : int; delta_pages : int }

let member_info t fn_id =
  Option.map
    (fun m -> { last_used = m.m_last_used; delta_pages = m.m_delta_pages })
    (Hashtbl.find_opt t.members fn_id)

let check t =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let frames = t.env.Osenv.frames in
  (* Index entries point at live, correctly tagged frames with a
     positive holder count... *)
  let recount = Hashtbl.create (Hashtbl.length t.index) in
  Det.iter
    (fun h ix ->
      if ix.holders <= 0 then bad "index %d: holders %d <= 0" h ix.holders;
      if not (Mem.Frame.is_live frames ix.ix_frame) then
        bad "index %d: canonical frame %d is dead" h ix.ix_frame
      else if Mem.Frame.tag frames ix.ix_frame <> h then
        bad "index %d: frame %d tagged %d" h ix.ix_frame
          (Mem.Frame.tag frames ix.ix_frame))
    t.index;
  (* ...and the holder counts are exactly the members' hash multiset. *)
  let structure = ref 0 in
  Det.iter
    (fun fn_id m ->
      if Snapshot.is_deleted m.m_snap then
        bad "member %s: snapshot deleted behind the store" fn_id;
      if m.m_shared_pages + m.m_unique_pages <> m.m_delta_pages then
        bad "member %s: shared %d + unique %d <> delta %d" fn_id
          m.m_shared_pages m.m_unique_pages m.m_delta_pages;
      structure := !structure + m.m_structure_bytes;
      Array.iter
        (fun h ->
          if not (Hashtbl.mem t.index h) then
            bad "member %s: hash %d missing from index" fn_id h;
          Hashtbl.replace recount h
            (1 + Option.value ~default:0 (Hashtbl.find_opt recount h)))
        m.m_hashes)
    t.members;
  Det.iter
    (fun h ix ->
      let n = Option.value ~default:0 (Hashtbl.find_opt recount h) in
      if n <> ix.holders then
        bad "index %d: holders %d but %d member pages" h ix.holders n)
    t.index;
  if !structure <> t.structure_total then
    bad "structure accounting: cached %d, recomputed %d" t.structure_total
      !structure;
  (* Over budget is only legal while every member is pinned. *)
  (if
     Int64.compare t.budget 0L > 0
     && Int64.compare (resident_bytes t) t.budget > 0
   then
     match victim t with
     | Some m ->
         bad "over budget (%Ld > %Ld) with evictable member %s"
           (resident_bytes t) t.budget m.m_fn_id
     | None -> ());
  List.rev !problems
