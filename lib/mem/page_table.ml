module Entry = struct
  type t = int

  let absent = 0
  let present_bit = 1
  let writable_bit = 2
  let cow_bit = 4
  let dirty_bit = 8
  let accessed_bit = 16
  let flag_bits = 5

  let make ~frame ~writable ~cow ~dirty ~accessed =
    (frame lsl flag_bits)
    lor present_bit
    lor (if writable then writable_bit else 0)
    lor (if cow then cow_bit else 0)
    lor (if dirty then dirty_bit else 0)
    lor if accessed then accessed_bit else 0

  let present e = e land present_bit <> 0
  let frame e = e lsr flag_bits
  let writable e = e land writable_bit <> 0
  let cow e = e land cow_bit <> 0
  let dirty e = e land dirty_bit <> 0
  let accessed e = e land accessed_bit <> 0

  let written e = e lor dirty_bit lor accessed_bit

  let with_flags ?writable:w ?cow:c ?dirty:d ?accessed:a e =
    let put bit value e =
      match value with
      | None -> e
      | Some true -> e lor bit
      | Some false -> e land lnot bit
    in
    e |> put writable_bit w |> put cow_bit c |> put dirty_bit d
    |> put accessed_bit a
end

(* [frozen] caches "every present entry is already read-only + COW and
   clean", so a freeze can skip the leaf: [mark_all_cow_clean] sets it,
   every [set] through the leaf clears it, and a privatized copy inherits
   it along with the entries. *)
type leaf = { mutable rc : int; mutable frozen : bool; entries : int array }

type t = {
  frames : Frame.t;
  dirs : leaf option array;
  mutable released : bool;
}

let entries = Mconfig.entries_per_table
let root_size = 512
let max_vpn = root_size * entries

let create frames =
  { frames; dirs = Array.make root_size None; released = false }

let check_alive t = if t.released then invalid_arg "Page_table: use after release"

let clone_shallow t =
  check_alive t;
  Array.iter
    (function Some leaf -> leaf.rc <- leaf.rc + 1 | None -> ())
    t.dirs;
  { frames = t.frames; dirs = Array.copy t.dirs; released = false }

let check_vpn vpn =
  if vpn < 0 || vpn >= max_vpn then invalid_arg "Page_table: vpn out of range"

let get t ~vpn =
  check_alive t;
  check_vpn vpn;
  match t.dirs.(vpn / entries) with
  | None -> Entry.absent
  | Some leaf -> leaf.entries.(vpn mod entries)

(* seussheat: cold — allocates one leaf per table and directory slot (the modelled page-table copy), amortized over up to 512 page writes *)
let privatize t dir =
  let leaf =
    match t.dirs.(dir) with
    | None ->
        { rc = 1; frozen = false; entries = Array.make entries Entry.absent }
    | Some shared ->
        shared.rc <- shared.rc - 1;
        let copy = Array.copy shared.entries in
        for i = 0 to entries - 1 do
          let e = copy.(i) in
          if Entry.present e then Frame.incref t.frames (Entry.frame e)
        done;
        { rc = 1; frozen = shared.frozen; entries = copy }
  in
  t.dirs.(dir) <- Some leaf;
  leaf

(* A leaf this table is about to write through must be exclusively owned:
   copy it if shared, taking a frame reference for every present entry the
   copy now names. *)
let private_leaf t dir =
  match t.dirs.(dir) with
  | Some leaf when leaf.rc = 1 -> leaf
  | None | Some _ -> privatize t dir

let set t ~vpn entry =
  check_alive t;
  check_vpn vpn;
  let idx = vpn mod entries in
  let leaf = private_leaf t (vpn / entries) in
  let old = leaf.entries.(idx) in
  leaf.entries.(idx) <- entry;
  leaf.frozen <- false;
  (* Same-frame updates (flag changes) keep the existing reference;
     otherwise the old mapping's reference is dropped and the new entry's
     reference was transferred in by the caller. *)
  let same_frame =
    Entry.present old && Entry.present entry
    && Entry.frame old = Entry.frame entry
  in
  if (not same_frame) && Entry.present old then
    Frame.decref t.frames (Entry.frame old)

let map_leaf leaf f =
  for i = 0 to entries - 1 do
    let e = leaf.entries.(i) in
    if Entry.present e then leaf.entries.(i) <- f e
  done

let freeze_entry e = Entry.with_flags ~writable:false ~cow:true ~dirty:false e

(* A frozen leaf is a fixed point of [freeze_entry], so skipping it
   changes nothing; an unfrozen one is frozen in place, through every
   table that shares it. *)
let mark_all_cow_clean t =
  check_alive t;
  Array.iter
    (function
      | Some leaf when not leaf.frozen ->
          map_leaf leaf freeze_entry;
          leaf.frozen <- true
      | None | Some _ -> ())
    t.dirs

(* Clearing dirty bits keeps a frozen leaf frozen. *)
let clear_dirty_all t =
  check_alive t;
  Array.iter
    (function
      | Some leaf -> map_leaf leaf (fun e -> Entry.with_flags ~dirty:false e)
      | None -> ())
    t.dirs

let fold_present t ~init ~f =
  check_alive t;
  let acc = ref init in
  Array.iteri
    (fun dir leaf ->
      match leaf with
      | None -> ()
      | Some leaf ->
          for i = 0 to entries - 1 do
            let e = leaf.entries.(i) in
            if Entry.present e then acc := f !acc ~vpn:((dir * entries) + i) e
          done)
    t.dirs;
  !acc

(* Walk the pages [t] maps through a different frame than [parent] (or
   maps where [parent] has nothing) — the delta layer of a stacked
   snapshot. Leaves physically shared with the parent are skipped
   outright: structural sharing guarantees their entries are identical,
   which is what keeps the walk proportional to the diff's leaves, not
   the whole address space. *)
let fold_delta ~parent t ~init ~f =
  check_alive t;
  check_alive parent;
  let acc = ref init in
  Array.iteri
    (fun dir leaf ->
      match leaf with
      | None -> ()
      | Some leaf ->
          let shared =
            match parent.dirs.(dir) with
            (* seusslint: allow physical-eq — leaf sharing between snapshot layers is identity by construction *)
            | Some p -> p == leaf
            | None -> false
          in
          if not shared then
            let parent_entries =
              match parent.dirs.(dir) with
              | Some p -> Some p.entries
              | None -> None
            in
            for i = 0 to entries - 1 do
              let e = leaf.entries.(i) in
              if Entry.present e then
                let same =
                  match parent_entries with
                  | Some pe ->
                      let p = pe.(i) in
                      Entry.present p && Entry.frame p = Entry.frame e
                  | None -> false
                in
                if not same then acc := f !acc ~vpn:((dir * entries) + i) e
            done)
    t.dirs;
  !acc

let count_present t = fold_present t ~init:0 ~f:(fun n ~vpn:_ _ -> n + 1)

let count_dirty t =
  fold_present t ~init:0 ~f:(fun n ~vpn:_ e ->
      if Entry.dirty e then n + 1 else n)

let leaf_tables t =
  check_alive t;
  Array.fold_left
    (fun n leaf -> match leaf with Some _ -> n + 1 | None -> n)
    0 t.dirs

let private_leaf_tables t =
  check_alive t;
  Array.fold_left
    (fun n leaf -> match leaf with Some l when l.rc = 1 -> n + 1 | _ -> n)
    0 t.dirs

let structure_bytes t =
  let word = 8 in
  let root = root_size * word in
  let leaf_bytes = entries * word in
  root + (private_leaf_tables t * leaf_bytes)

(* Validation (tests): walk a family of tables, deduplicating physically
   shared leaves, and return the per-frame reference counts the allocator
   should be reporting — each distinct leaf holds one reference per
   present entry, shared leaves exactly once. *)
let expected_refcounts tables =
  let seen = ref [] in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun t ->
      check_alive t;
      Array.iter
        (function
          | None -> ()
          | Some leaf ->
              if not (List.memq leaf !seen) then begin
                seen := leaf :: !seen;
                Array.iter
                  (fun e ->
                    if Entry.present e then
                      let f = Entry.frame e in
                      Hashtbl.replace counts f
                        (1
                        + Option.value ~default:0 (Hashtbl.find_opt counts f)))
                  leaf.entries
              end)
        t.dirs)
    tables;
  counts

let shares_leaf a b ~vpn =
  check_alive a;
  check_alive b;
  check_vpn vpn;
  match (a.dirs.(vpn / entries), b.dirs.(vpn / entries)) with
  (* seusslint: allow physical-eq — the question asked is leaf identity *)
  | Some la, Some lb -> la == lb
  | _ -> false

let release t =
  check_alive t;
  Array.iteri
    (fun dir leaf ->
      match leaf with
      | None -> ()
      | Some leaf ->
          leaf.rc <- leaf.rc - 1;
          if leaf.rc = 0 then
            Array.iter
              (fun e ->
                if Entry.present e then Frame.decref t.frames (Entry.frame e))
              leaf.entries;
          t.dirs.(dir) <- None)
    t.dirs;
  t.released <- true
