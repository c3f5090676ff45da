module Entry = struct
  type t = int

  let absent = 0
  let present_bit = 1
  let writable_bit = 2
  let cow_bit = 4
  let dirty_bit = 8
  let flag_bits = Mconfig.pte_flag_bits

  let make ~frame ~writable ~cow ~dirty =
    (frame lsl flag_bits)
    lor present_bit
    lor (if writable then writable_bit else 0)
    lor (if cow then cow_bit else 0)
    lor if dirty then dirty_bit else 0

  let present e = e land present_bit <> 0
  let frame e = e lsr flag_bits
  let writable e = e land writable_bit <> 0
  let cow e = e land cow_bit <> 0
  let dirty e = e land dirty_bit <> 0

  let written e = e lor dirty_bit

  let with_flags ?writable:w ?cow:c ?dirty:d e =
    let put bit value e =
      match value with
      | None -> e
      | Some true -> e lor bit
      | Some false -> e land lnot bit
    in
    e |> put writable_bit w |> put cow_bit c |> put dirty_bit d
end

(* A family is one [create] plus every clone of it. Its tables share
   leaves, so they share one slab holding every leaf unboxed: leaf
   [slot] occupies [entries] ints of chunk [chunk slot], starting at
   [base slot], and its reference count and frozen bit sit in that
   chunk's [rc_col] and [frozen_col] columns. The slab grows a fixed
   chunk at a time and never moves entries; a released leaf's slot
   returns to the free list threaded through [rc_col] and a released
   table's root to the [roots] stack, so a steady deploy/destroy cycle
   allocates only each table's record.

   The frozen bit caches "every present entry is already read-only +
   COW and clean", so a freeze can skip the leaf: [mark_all_cow_clean]
   sets it, every [set] through the leaf clears it, and a privatized
   copy inherits it along with the entries.

   Roots hold columns, not directories. A directory gets the family's
   next column the first time any of its tables writes to it, so a root
   is as wide as the directories the family uses (a guest's address
   space uses 62 of the 512), and [dirs] lists the used directories in
   ascending order: the walks that free frames or report pages follow
   it, in the order a 512-slot root would give. *)
type family = {
  frames : Frame.t;
  mutable ents : int array array;
  mutable rc_col : int array array;
  mutable frozen_col : bool array array;
  mutable chunks : int;
  (* The most recently freed slot, or [no_leaf] when none is free. A
     free slot's [rc_col] cell holds [-2 - next], [next] being the slot
     below it on the list or [no_leaf], so the list needs no storage of
     its own; a slot in use holds its reference count (> 0). *)
  mutable free_head : int;
  (* Released roots: [roots.(0 .. nroots - 1)], sized to every root the
     family has made, so a push never grows it. *)
  mutable roots : int array array;
  mutable nroots : int;
  mutable made_roots : int;
  (* [col_of_dir.(d)] is directory [d]'s column, or [no_col];
     [dirs.(0 .. ncols - 1)] the directories that have one, ascending. *)
  col_of_dir : int array;
  dirs : int array;
  mutable ncols : int;
  (* The length of a root made now: a power of two, at least [ncols]. *)
  mutable root_len : int;
}

(* [root.(c)] is the slot of column [c]'s leaf, or [no_leaf]; a root
   shorter than the family's [ncols] reads the columns past its end as
   [no_leaf], and grows on its first write to one of them. *)
type t = { fam : family; mutable root : int array; mutable released : bool }

let entries = Mconfig.entries_per_table
let root_size = 512
let max_vpn = root_size * entries
let no_leaf = -1
let no_col = -1
let min_root_len = 64
let chunk_shift = 6
let chunk_leaves = 1 lsl chunk_shift

let chunk slot = slot lsr chunk_shift
let col slot = slot land (chunk_leaves - 1)
let base slot = col slot * entries

(* Column accessors, inlined: the deploy path runs them once per leaf. *)
let[@inline] rc fam slot = fam.rc_col.(chunk slot).(col slot)
let[@inline] set_rc fam slot n = fam.rc_col.(chunk slot).(col slot) <- n
let[@inline] frozen fam slot = fam.frozen_col.(chunk slot).(col slot)
let[@inline] set_frozen fam slot b = fam.frozen_col.(chunk slot).(col slot) <- b

(* Copies between [int array]s, as a loop: the element type lets the
   compiler store each int directly, where [Array.blit] and [Array.fill]
   on a major-heap array run the write barrier once per element. *)
let blit_ints (src : int array) s (dst : int array) d n =
  for i = 0 to n - 1 do
    dst.(d + i) <- src.(s + i)
  done

let fill_ints (dst : int array) d n v =
  for i = d to d + n - 1 do
    dst.(i) <- v
  done

(* seussheat: cold — slab growth: one fixed chunk per 64 leaves the family holds at once, plus the chunk directory doubling with it; entries are never copied *)
let add_chunk fam =
  let c = fam.chunks in
  if c = Array.length fam.ents then begin
    let cap = max 1 (2 * c) in
    let grow a empty =
      let b = Array.make cap empty in
      Array.blit a 0 b 0 c;
      b
    in
    fam.ents <- grow fam.ents [||];
    fam.rc_col <- grow fam.rc_col [||];
    fam.frozen_col <- grow fam.frozen_col [||]
  end;
  fam.ents.(c) <- Array.make (chunk_leaves * entries) Entry.absent;
  (* Each slot links to the next one up and the last to the old head,
     so the chunk's slots pop in ascending order. *)
  let first = c * chunk_leaves in
  fam.rc_col.(c) <-
    Array.init chunk_leaves (fun k ->
        if k = chunk_leaves - 1 then -2 - fam.free_head
        else -2 - (first + k + 1));
  fam.frozen_col.(c) <- Array.make chunk_leaves false;
  fam.chunks <- c + 1;
  fam.free_head <- first

let take_slot fam =
  if fam.free_head = no_leaf then add_chunk fam;
  let slot = fam.free_head in
  fam.free_head <- -2 - rc fam slot;
  slot

let free_slot fam slot =
  set_rc fam slot (-2 - fam.free_head);
  fam.free_head <- slot

(* seussheat: cold — root-pool growth: a root is made only when no released one is waiting, and the root stack doubles with the roots made *)
let fresh_root fam =
  if fam.made_roots = Array.length fam.roots then begin
    let roots = Array.make (max 1 (2 * fam.made_roots)) [||] in
    Array.blit fam.roots 0 roots 0 fam.nroots;
    fam.roots <- roots
  end;
  fam.made_roots <- fam.made_roots + 1;
  Array.make fam.root_len no_leaf

(* seussheat: cold — a released root narrower than the one being copied is dropped for one of the family's current width, once per root after the family outgrows it *)
let widened_root fam =
  fam.roots.(fam.nroots) <- [||];
  Array.make fam.root_len no_leaf

(* A root at least [len] wide, its contents stale. *)
let take_root fam len =
  if fam.nroots = 0 then fresh_root fam
  else begin
    fam.nroots <- fam.nroots - 1;
    let root = fam.roots.(fam.nroots) in
    if Array.length root >= len then root else widened_root fam
  end

let create frames =
  let fam =
    {
      frames;
      ents = [||];
      rc_col = [||];
      frozen_col = [||];
      chunks = 0;
      free_head = no_leaf;
      roots = [||];
      nroots = 0;
      made_roots = 0;
      col_of_dir = Array.make root_size no_col;
      dirs = Array.make root_size 0;
      ncols = 0;
      root_len = min_root_len;
    }
  in
  { fam; root = fresh_root fam; released = false }

let check_alive t = if t.released then invalid_arg "Page_table: use after release"

let clone_shallow t =
  check_alive t;
  let fam = t.fam in
  let src = t.root in
  let len = Array.length src in
  let root = take_root fam len in
  blit_ints src 0 root 0 len;
  fill_ints root len (Array.length root - len) no_leaf;
  for c = 0 to len - 1 do
    let slot = root.(c) in
    if slot <> no_leaf then set_rc fam slot (rc fam slot + 1)
  done;
  (* seussheat: cold — the table record is the product: one per clone, retained by its owner *)
  { fam; root; released = false }

let check_vpn vpn =
  if vpn < 0 || vpn >= max_vpn then invalid_arg "Page_table: vpn out of range"

(* The slot of directory [dir]'s leaf in [t], or [no_leaf]. *)
let[@inline] slot_of t dir =
  let c = t.fam.col_of_dir.(dir) in
  if c = no_col || c >= Array.length t.root then no_leaf else t.root.(c)

let get t ~vpn =
  check_alive t;
  check_vpn vpn;
  let slot = slot_of t (vpn / entries) in
  if slot = no_leaf then Entry.absent
  else t.fam.ents.(chunk slot).(base slot + (vpn mod entries))

(* seussheat: cold — a directory's first write in its family: at most 512 per family, each an insertion into the ascending directory list *)
let[@inline never] add_column fam dir =
  let c = fam.ncols in
  let k = ref c in
  while !k > 0 && fam.dirs.(!k - 1) > dir do
    fam.dirs.(!k) <- fam.dirs.(!k - 1);
    decr k
  done;
  fam.dirs.(!k) <- dir;
  fam.col_of_dir.(dir) <- c;
  fam.ncols <- c + 1;
  if fam.ncols > fam.root_len then fam.root_len <- 2 * fam.root_len;
  c

(* seussheat: cold — a root's first write to a column its family gained after the root was made: once per root per doubling of the family's width *)
let[@inline never] grow_root t =
  let fam = t.fam in
  let len = Array.length t.root in
  let root = Array.make fam.root_len no_leaf in
  blit_ints t.root 0 root 0 len;
  t.root <- root

(* Give [dir] a leaf of its own in a free slot: a zeroed one if it has
   none, else a copy of the shared one, taking a frame reference for
   every present entry the copy names. *)
let privatize t dir =
  let fam = t.fam in
  let c =
    let c = fam.col_of_dir.(dir) in
    if c = no_col then add_column fam dir else c
  in
  if c >= Array.length t.root then grow_root t;
  let slot = take_slot fam in
  let dst = fam.ents.(chunk slot) and d = base slot in
  let src = t.root.(c) in
  if src = no_leaf then begin
    fill_ints dst d entries Entry.absent;
    set_frozen fam slot false
  end
  else begin
    set_rc fam src (rc fam src - 1);
    blit_ints fam.ents.(chunk src) (base src) dst d entries;
    Frame.incref_leaf fam.frames dst ~pos:d;
    set_frozen fam slot (frozen fam src)
  end;
  set_rc fam slot 1;
  t.root.(c) <- slot;
  slot

(* A leaf this table is about to write through must be exclusively
   owned. *)
let private_leaf t dir =
  let slot = slot_of t dir in
  if slot <> no_leaf && rc t.fam slot = 1 then slot
  else privatize t dir

let set t ~vpn entry =
  check_alive t;
  check_vpn vpn;
  let fam = t.fam in
  let slot = private_leaf t (vpn / entries) in
  let leaf = fam.ents.(chunk slot) and i = base slot + (vpn mod entries) in
  let old = leaf.(i) in
  leaf.(i) <- entry;
  set_frozen fam slot false;
  (* Same-frame updates (flag changes) keep the existing reference;
     otherwise the old mapping's reference is dropped and the new entry's
     reference was transferred in by the caller. *)
  let same_frame =
    Entry.present old && Entry.present entry
    && Entry.frame old = Entry.frame entry
  in
  if (not same_frame) && Entry.present old then
    Frame.decref fam.frames (Entry.frame old)

type write_counts = {
  mutable zero_fills : int;
  mutable cow_copies : int;
  mutable dirty : int;
}

(* The entry of a page just written through a frame fresh from
   [Frame.alloc]: private, writable and dirty. *)
let fresh_written frame =
  (frame lsl Entry.flag_bits) lor Entry.present_bit lor Entry.writable_bit
  lor Entry.dirty_bit

(* Resolve the writes to [vpn, stop), in vpn order. [slot] is the leaf
   of directory [dir] (-1 before the first page), [owned] when this
   table holds it alone; a page in another directory reloads the three,
   and a directory past the root raises [check_vpn]'s range error. A leaf is privatized on its first page whose entry
   changes — after that page's [Frame.alloc], so an allocation failure
   leaves it shared — and at most once.

   One self-tail-recursive function walks both the leaves and the pages
   within them: the guest write path runs on a simulated process's
   fiber stack, so every frame it adds below [Addr_space.write_range]
   is paid in stack size by every process that writes. *)
let rec write_run t c record dir slot owned vpn stop =
  if vpn < stop then begin
    if vpn / entries <> dir then begin
      let dir = vpn / entries in
      if dir >= root_size then check_vpn vpn;
      let slot = slot_of t dir in
      write_run t c record dir slot
        (slot <> no_leaf && rc t.fam slot = 1)
        vpn stop
    end
    else begin
      let fam = t.fam in
      let i = vpn land (entries - 1) in
      let e =
        if slot = no_leaf then Entry.absent
        else fam.ents.(chunk slot).(base slot + i)
      in
      if not (Entry.present e) then begin
        let frame = Frame.alloc fam.frames in
        let slot = if owned then slot else privatize t dir in
        fam.ents.(chunk slot).(base slot + i) <- fresh_written frame;
        set_frozen fam slot false;
        c.zero_fills <- c.zero_fills + 1;
        c.dirty <- c.dirty + 1;
        record vpn;
        write_run t c record dir slot true (vpn + 1) stop
      end
      else if Entry.writable e then begin
        if not (Entry.dirty e) then c.dirty <- c.dirty + 1;
        let w = Entry.written e in
        if w = e then write_run t c record dir slot owned (vpn + 1) stop
        else begin
          let slot = if owned then slot else privatize t dir in
          fam.ents.(chunk slot).(base slot + i) <- w;
          set_frozen fam slot false;
          write_run t c record dir slot true (vpn + 1) stop
        end
      end
      else if Entry.cow e then begin
        (* Clone the shared frame into a private writable copy, and drop
           the leaf's reference to it (a privatized leaf took one). *)
        let frame = Frame.alloc fam.frames in
        let slot = if owned then slot else privatize t dir in
        fam.ents.(chunk slot).(base slot + i) <- fresh_written frame;
        set_frozen fam slot false;
        Frame.decref fam.frames (Entry.frame e);
        c.cow_copies <- c.cow_copies + 1;
        c.dirty <- c.dirty + 1;
        record vpn;
        write_run t c record dir slot true (vpn + 1) stop
      end
      else invalid_arg "Addr_space: write to a read-only, non-COW page"
    end
  end

let write_pages t ~vpn ~pages c record =
  if pages > 0 then begin
    check_alive t;
    check_vpn vpn;
    write_run t c record (-1) no_leaf false vpn (vpn + pages)
  end

let map_leaf fam slot f =
  let leaf = fam.ents.(chunk slot) and b = base slot in
  for i = b to b + entries - 1 do
    let e = leaf.(i) in
    if Entry.present e then leaf.(i) <- f e
  done

let freeze_entry e = Entry.with_flags ~writable:false ~cow:true ~dirty:false e

(* A frozen leaf is a fixed point of [freeze_entry], so skipping it
   changes nothing; an unfrozen one is frozen in place, through every
   table that shares it. *)
let mark_all_cow_clean t =
  check_alive t;
  let fam = t.fam in
  Array.iter
    (fun slot ->
      if slot <> no_leaf && not (frozen fam slot) then begin
        map_leaf fam slot freeze_entry;
        set_frozen fam slot true
      end)
    t.root

(* Both folds walk the family's directories in ascending order, so they
   report pages in vpn order. *)
let fold_present t ~init ~f =
  check_alive t;
  let fam = t.fam in
  let acc = ref init in
  for k = 0 to fam.ncols - 1 do
    let dir = fam.dirs.(k) in
    let slot = slot_of t dir in
    if slot <> no_leaf then begin
      let leaf = fam.ents.(chunk slot) and b = base slot in
      for i = 0 to entries - 1 do
        let e = leaf.(b + i) in
        if Entry.present e then acc := f !acc ~vpn:((dir * entries) + i) e
      done
    end
  done;
  !acc

(* Walk the pages [t] maps through a different frame than [parent] (or
   maps where [parent] has nothing) — the delta layer of a stacked
   snapshot. Leaves physically shared with the parent are skipped
   outright: structural sharing guarantees their entries are identical,
   which is what keeps the walk proportional to the diff's leaves, not
   the whole address space. The parent's leaf is found by directory, so
   a parent of another family (other columns) works too. *)
let fold_delta ~parent t ~init ~f =
  check_alive t;
  check_alive parent;
  (* seusslint: allow physical-eq — slots name the same leaf only within one family's slab *)
  let same_family = parent.fam == t.fam in
  let fam = t.fam in
  let acc = ref init in
  for k = 0 to fam.ncols - 1 do
    let dir = fam.dirs.(k) in
    let slot = slot_of t dir and p = slot_of parent dir in
    if slot <> no_leaf && not (same_family && p = slot) then begin
      let leaf = fam.ents.(chunk slot) and b = base slot in
      for i = 0 to entries - 1 do
        let e = leaf.(b + i) in
        if Entry.present e then
          let same =
            p <> no_leaf
            &&
            let pe = parent.fam.ents.(chunk p).(base p + i) in
            Entry.present pe && Entry.frame pe = Entry.frame e
          in
          if not same then acc := f !acc ~vpn:((dir * entries) + i) e
      done
    end
  done;
  !acc

let count_present t = fold_present t ~init:0 ~f:(fun n ~vpn:_ _ -> n + 1)

let count_dirty t =
  fold_present t ~init:0 ~f:(fun n ~vpn:_ e ->
      if Entry.dirty e then n + 1 else n)

let leaf_tables t =
  check_alive t;
  Array.fold_left (fun n slot -> if slot <> no_leaf then n + 1 else n) 0 t.root

let private_leaf_tables t =
  check_alive t;
  Array.fold_left
    (fun n slot ->
      if slot <> no_leaf && rc t.fam slot = 1 then n + 1 else n)
    0 t.root

let structure_bytes t =
  let word = 8 in
  let root = root_size * word in
  let leaf_bytes = entries * word in
  root + (private_leaf_tables t * leaf_bytes)

(* Validation (tests): walk a family of tables, deduplicating shared
   leaves (the same slot of the same slab), and return the per-frame
   reference counts the allocator should be reporting — each distinct
   leaf holds one reference per present entry, shared leaves exactly
   once. The table is sized for the allocator's live frames, the key
   count when the tables are consistent with it. *)
let expected_refcounts tables =
  let seen = ref [] in
  let counts =
    Hashtbl.create
      (match tables with
      | t :: _ -> max 64 (Frame.used_frames t.fam.frames)
      | [] -> 64)
  in
  List.iter
    (fun t ->
      check_alive t;
      let counted =
        match List.assq_opt t.fam !seen with
        | Some slots -> slots
        | None ->
            let slots = Array.make (t.fam.chunks * chunk_leaves) false in
            seen := (t.fam, slots) :: !seen;
            slots
      in
      let fam = t.fam in
      for k = 0 to fam.ncols - 1 do
        let slot = slot_of t fam.dirs.(k) in
        if slot <> no_leaf && not counted.(slot) then begin
          counted.(slot) <- true;
          let leaf = fam.ents.(chunk slot) and b = base slot in
          for i = b to b + entries - 1 do
            let e = leaf.(i) in
            if Entry.present e then
              let f = Entry.frame e in
              Hashtbl.replace counts f
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
          done
        end
      done)
    tables;
  counts

let shares_leaf a b ~vpn =
  check_alive a;
  check_alive b;
  check_vpn vpn;
  let slot = slot_of a (vpn / entries) in
  slot <> no_leaf
  (* seusslint: allow physical-eq — the question asked is leaf identity, and slots name the same leaf only within one family's slab *)
  && a.fam == b.fam
  && slot = slot_of b (vpn / entries)

(* Frames are released in ascending directory, then entry, order — the
   order that fixes how the frame allocator's free list hands ids back
   out (last freed first). *)
let release t =
  check_alive t;
  let fam = t.fam in
  for k = 0 to fam.ncols - 1 do
    let slot = slot_of t fam.dirs.(k) in
    if slot <> no_leaf then begin
      set_rc fam slot (rc fam slot - 1);
      if rc fam slot = 0 then begin
        Frame.decref_leaf fam.frames fam.ents.(chunk slot) ~pos:(base slot);
        free_slot fam slot
      end
    end
  done;
  t.released <- true;
  fam.roots.(fam.nroots) <- t.root;
  fam.nroots <- fam.nroots + 1
