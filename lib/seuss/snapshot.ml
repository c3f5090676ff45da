type t = {
  id : int;
  name : string;
  image : Unikernel.Image.t;
  parent : t option;
  table : Mem.Page_table.t;
  guest : Unikernel.Guest.snapshot_state;
  diff_pages : int;
  total_pages : int;
  mutable dependents : int;
  mutable deleted : bool;
  mutable working_set : int array option;
}

let capture ~env ~name ~parent ~image ~space ~guest =
  let diff_pages = Mem.Addr_space.dirty_pages space in
  Osenv.burn env
    (Cost.capture_fixed
    +. (float_of_int diff_pages *. Cost.capture_per_dirty_page));
  let guest_state = Unikernel.Guest.capture guest in
  Mem.Addr_space.freeze space;
  let table = Mem.Page_table.clone_shallow (Mem.Addr_space.table space) in
  (match parent with
  | Some p ->
      if p.deleted then invalid_arg "Snapshot.capture: deleted parent";
      p.dependents <- p.dependents + 1
  | None -> ());
  {
    id = Osenv.fresh_id env;
    name;
    image;
    parent;
    table;
    guest = guest_state;
    diff_pages;
    total_pages = Mem.Addr_space.mapped_pages space;
    dependents = 0;
    deleted = false;
    working_set = None;
  }

let import ~env ~name ~local_base ~remote ~transfer_time =
  if local_base.deleted || remote.deleted then
    invalid_arg "Snapshot.import: deleted snapshot";
  if local_base.image <> remote.image then
    invalid_arg "Snapshot.import: image mismatch";
  if remote.parent = None then
    invalid_arg "Snapshot.import: remote must be a function snapshot";
  (* The diff travels over the wire (the fetching core is free to do
     other work), then each received page is installed locally. *)
  Sim.Engine.sleep transfer_time;
  Osenv.burn env
    (float_of_int remote.diff_pages *. Cost.capture_per_dirty_page);
  let space =
    Mem.Addr_space.of_table ~mapped_hint:local_base.total_pages
      env.Osenv.frames local_base.table
  in
  (* Install the diff into the guest-heap region: fresh private frames
     standing in for the transferred pages. *)
  ignore
    (Mem.Addr_space.write_range space ~vpn:Unikernel.Gconst.heap_base
       ~pages:remote.diff_pages);
  Mem.Addr_space.freeze space;
  let table = Mem.Page_table.clone_shallow (Mem.Addr_space.table space) in
  let total = Mem.Addr_space.mapped_pages space in
  Mem.Addr_space.release space;
  local_base.dependents <- local_base.dependents + 1;
  {
    id = Osenv.fresh_id env;
    name;
    image = remote.image;
    parent = Some local_base;
    table;
    guest = remote.guest;
    diff_pages = remote.diff_pages;
    total_pages = total;
    dependents = 0;
    deleted = false;
    working_set = None;
  }

let check_alive t name =
  if t.deleted then
    invalid_arg (Printf.sprintf "Snapshot.%s: %s is deleted" name t.name)

let addref t =
  check_alive t "addref";
  t.dependents <- t.dependents + 1

let decref t =
  check_alive t "decref";
  if t.dependents <= 0 then invalid_arg "Snapshot.decref: no dependents";
  t.dependents <- t.dependents - 1

let dependents t = t.dependents

(* First writer wins: the working set is recorded once, from the first
   completed invocation, and replayed verbatim ever after (REAP keeps the
   first trace too — stability of serverless working sets is the paper's
   enabling observation). *)
let record_working_set t vpns =
  check_alive t "record_working_set";
  match t.working_set with
  | Some _ -> ()
  | None -> if Array.length vpns > 0 then t.working_set <- Some vpns

let working_set t =
  check_alive t "working_set";
  t.working_set

let working_set_pages t =
  match t.working_set with None -> 0 | Some a -> Array.length a

let is_deleted t = t.deleted

(* Claimed before the yield in [burn]: a second deleter arriving during
   the destroy cost sees [deleted] and backs off. *)
let try_delete ~env t =
  if t.deleted || t.dependents > 0 then false
  else begin
    t.deleted <- true;
    Osenv.burn env Cost.destroy;
    Mem.Page_table.release t.table;
    (match t.parent with Some p -> decref p | None -> ());
    true
  end

let diff_bytes t = Mem.Mconfig.bytes_of_pages t.diff_pages

let total_bytes t = Mem.Mconfig.bytes_of_pages t.total_pages

let rec depth t = match t.parent with None -> 1 | Some p -> 1 + depth p
