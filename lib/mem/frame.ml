type frame = int

exception Out_of_memory

(* One word of host metadata per frame id: [refcounts.(id)] is the
   frame's reference count while it is live (> 0), and while it is free
   (< 0) the link of the free list threaded through the same cells, so
   the allocator keeps no side stack. The content tags cost a second
   word per id only once the snapshot store stamps its first frame. *)
type t = {
  budget_frames : int;
  (* A free id's cell holds [-2 - next], [next] being the id freed
     before it or [-1] at the bottom of the list, so every free cell is
     negative. Cells past [next_fresh] were never handed out and hold
     0. *)
  mutable refcounts : int array;
  (* The most recently freed id, or [-1] when the list is empty: [alloc]
     pops it, so ids come back last-freed first. *)
  mutable free_head : int;
  (* [[||]] until the first [set_tag], then as long as [refcounts].
     tags.(id) = 0 means untagged; a nonzero tag is a content identity
     stamped by the snapshot store and cleared when the frame is freed,
     so a recycled id can never masquerade as old content. *)
  mutable tags : int array;
  mutable next_fresh : int;
  mutable live : int;
  mutable peak : int;
}

let create ?(budget_bytes = Mconfig.default_budget_bytes) () =
  let frames = Int64.div budget_bytes (Int64.of_int Mconfig.page_size) in
  if Int64.compare frames 1L < 0 then invalid_arg "Frame.create: budget too small";
  {
    budget_frames = Int64.to_int frames;
    refcounts = Array.make 4096 0;
    free_head = -1;
    tags = [||];
    next_fresh = 0;
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
    if Array.length t.tags > 0 then begin
      let tags = Array.make cap 0 in
      Array.blit t.tags 0 tags 0 (Array.length t.tags);
      t.tags <- tags
    end
  end

let alloc t =
  if t.live >= t.budget_frames then raise Out_of_memory;
  let id = t.free_head in
  let id =
    if id >= 0 then begin
      t.free_head <- -2 - t.refcounts.(id);
      id
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
  if id < 0 || id >= t.next_fresh || t.refcounts.(id) <= 0 then
    dead_frame name id

let incref t id =
  check_live t id "incref";
  t.refcounts.(id) <- t.refcounts.(id) + 1

let[@inline] drop t id name =
  check_live t id name;
  let n = t.refcounts.(id) - 1 in
  if n > 0 then t.refcounts.(id) <- n
  else begin
    if Array.length t.tags > 0 then t.tags.(id) <- 0;
    t.refcounts.(id) <- -2 - t.free_head;
    t.free_head <- id;
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
      if id >= t.next_fresh || rc.(id) <= 0 then dead_frame "incref_leaf" id;
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

(* seussheat: cold — one allocation per allocator, at its first tag; [ensure_capacity] grows it from then on *)
let create_tags t = t.tags <- Array.make (Array.length t.refcounts) 0

let set_tag t id tag =
  check_live t id "set_tag";
  if tag = 0 then invalid_arg "Frame.set_tag: tag must be nonzero";
  if Array.length t.tags = 0 then create_tags t;
  t.tags.(id) <- tag

let tag t id =
  check_live t id "tag";
  if Array.length t.tags = 0 then 0 else t.tags.(id)

let used_frames t = t.live
let used_bytes t = Mconfig.bytes_of_pages t.live
let free_bytes t = Mconfig.bytes_of_pages (t.budget_frames - t.live)
let peak_frames t = t.peak
