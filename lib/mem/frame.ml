type frame = int

exception Out_of_memory

type t = {
  budget_frames : int;
  (* refcounts.(id) = 0 means the slot is free (and sits on the free
     stack). *)
  mutable refcounts : int array;
  (* tags.(id) = 0 means untagged; a nonzero tag is a content identity
     stamped by the snapshot store and cleared when the frame is freed,
     so a recycled id can never masquerade as old content. *)
  mutable tags : int array;
  mutable next_fresh : int;
  (* The free stack, unboxed: [free.(0 .. free_top - 1)], most recently
     freed on top. Sized by the most frames ever free at once, not by
     the id space. *)
  mutable free : int array;
  mutable free_top : int;
  mutable live : int;
  mutable peak : int;
}

let create ?(budget_bytes = Mconfig.default_budget_bytes) () =
  let frames = Int64.div budget_bytes (Int64.of_int Mconfig.page_size) in
  if Int64.compare frames 1L < 0 then invalid_arg "Frame.create: budget too small";
  {
    budget_frames = Int64.to_int frames;
    refcounts = Array.make 4096 0;
    tags = Array.make 4096 0;
    next_fresh = 0;
    free = Array.make 256 0;
    free_top = 0;
    live = 0;
    peak = 0;
  }

let budget_frames t = t.budget_frames
let budget_bytes t = Mconfig.bytes_of_pages t.budget_frames

(* seussheat: cold — amortized doubling: O(log frames) growths per allocator *)
let ensure_capacity t id =
  if id >= Array.length t.refcounts then begin
    let cap = max (id + 1) (2 * Array.length t.refcounts) in
    let cap = min cap (max (id + 1) t.budget_frames) in
    let refcounts = Array.make cap 0 in
    Array.blit t.refcounts 0 refcounts 0 (Array.length t.refcounts);
    t.refcounts <- refcounts;
    let tags = Array.make cap 0 in
    Array.blit t.tags 0 tags 0 (Array.length t.tags);
    t.tags <- tags
  end

(* seussheat: cold — amortized doubling: O(log frames) growths per allocator *)
let grow_free t =
  let free = Array.make (2 * Array.length t.free) 0 in
  Array.blit t.free 0 free 0 t.free_top;
  t.free <- free

let alloc t =
  if t.live >= t.budget_frames then raise Out_of_memory;
  let id =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      let id = t.next_fresh in
      t.next_fresh <- id + 1;
      ensure_capacity t id;
      id
    end
  in
  t.refcounts.(id) <- 1;
  t.live <- t.live + 1;
  if t.live > t.peak then t.peak <- t.live;
  id

(* seussheat: cold — raises: the message is built only on a refcount bug *)
let dead_frame name id =
  invalid_arg (Printf.sprintf "Frame.%s: dead frame %d" name id)

let check_live t id name =
  if id < 0 || id >= t.next_fresh || t.refcounts.(id) = 0 then
    dead_frame name id

let incref t id =
  check_live t id "incref";
  t.refcounts.(id) <- t.refcounts.(id) + 1

let[@inline] drop t id name =
  check_live t id name;
  t.refcounts.(id) <- t.refcounts.(id) - 1;
  if t.refcounts.(id) = 0 then begin
    t.tags.(id) <- 0;
    if t.free_top = Array.length t.free then grow_free t;
    t.free.(t.free_top) <- id;
    t.free_top <- t.free_top + 1;
    t.live <- t.live - 1
  end

let decref t id = drop t id "decref"

(* The leaf variants walk [entries_per_table] packed page-table entries
   in place: the present bit is bit 0 and the frame id sits above the
   flag bits (Mconfig.pte_flag_bits). One call per leaf replaces 512
   calls, with each entry's dead-frame check kept. *)
let incref_leaf t (ents : int array) ~pos =
  let rc = t.refcounts in
  for i = pos to pos + Mconfig.entries_per_table - 1 do
    let e = ents.(i) in
    if e land 1 <> 0 then begin
      let id = e lsr Mconfig.pte_flag_bits in
      if id >= t.next_fresh || rc.(id) = 0 then dead_frame "incref_leaf" id;
      rc.(id) <- rc.(id) + 1
    end
  done

let decref_leaf t (ents : int array) ~pos =
  for i = pos to pos + Mconfig.entries_per_table - 1 do
    let e = ents.(i) in
    if e land 1 <> 0 then drop t (e lsr Mconfig.pte_flag_bits) "decref_leaf"
  done

let refcount t id =
  check_live t id "refcount";
  t.refcounts.(id)

let is_live t id = id >= 0 && id < t.next_fresh && t.refcounts.(id) > 0

let set_tag t id tag =
  check_live t id "set_tag";
  if tag = 0 then invalid_arg "Frame.set_tag: tag must be nonzero";
  t.tags.(id) <- tag

let tag t id =
  check_live t id "tag";
  t.tags.(id)

let used_frames t = t.live
let used_bytes t = Mconfig.bytes_of_pages t.live
let free_bytes t = Mconfig.bytes_of_pages (t.budget_frames - t.live)
let peak_frames t = t.peak
