(* Happens-before schedule sanitizer.

   In a discrete-event simulation the only order that can silently flip
   is the order of events at *equal* timestamps: across distinct times
   the clock itself serializes everything. Two processes that touch the
   same shared cell at the same simulated instant, with at least one
   write and no synchronization path between them, are exactly the
   accesses whose outcome the tie shuffler can permute — so that, and
   only that, is what this checker reports.

   Ordering edges come from the cooperative structure the simulator
   already has: spawning a process orders it after everything its parent
   did first, and the blocking primitives (Semaphore, Channel, Ivar)
   publish a release→acquire edge through a per-object [sync] record.
   Edges compose through vector clocks, TSan-style, but pruned to the
   current timestamp: a cell forgets its access history whenever the
   clock advances, and so do process clocks and sync records.

   Why pruning clocks loses nothing. A process's own component only
   moves when it publishes (signal or spawn), and it moves right after
   publishing, so the value a process had at an access is published only
   by a later signal or spawn of that process — no earlier than the
   access itself. An edge chain that carries that value to another
   process therefore happens entirely at or after the access's instant.
   Races are only checked against accesses at the current instant, so
   the only knowledge that can ever order one is knowledge gained at
   that same instant; whatever a clock learned earlier orders only
   earlier accesses, which time already serializes. So on the first
   hook at a new [now], a process clock is reset to its own component
   (kept, so counters stay monotone) and a sync record to nothing. This
   keeps clocks as small as one instant's interactions instead of
   growing with every process the run ever spawned, and reports exactly
   the races an unpruned checker would.

   The checker is armed exactly on a checked engine ([Engine.create
   ~check:true]). Elsewhere every hook is a cheap no-op that draws
   nothing and allocates nothing, so an unchecked run is bit-identical
   to a build without this module. *)

(* Vector clocks as sorted association lists (pid -> count). Pruned to
   one instant, they hold only the processes that synchronized at it. *)
type vc = (int * int) list

let vc_get vc pid = match List.assoc_opt pid vc with Some n -> n | None -> 0

let rec vc_join a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (pa, ca) :: ta, (pb, cb) :: tb ->
      if pa < pb then (pa, ca) :: vc_join ta b
      else if pb < pa then (pb, cb) :: vc_join a tb
      else (pa, Int.max ca cb) :: vc_join ta tb

let vc_set vc pid n =
  let rec go = function
    | [] -> [ (pid, n) ]
    | (p, c) :: rest ->
        if p < pid then (p, c) :: go rest
        else if p = pid then (pid, n) :: rest
        else (pid, n) :: (p, c) :: rest
  in
  go vc

(* [vtime]: the instant [vc] was last pruned to. *)
type pstate = { pid : int; mutable vc : vc; mutable vtime : float }

let prune p now =
  if now > p.vtime then begin
    p.vtime <- now;
    p.vc <- [ (p.pid, vc_get p.vc p.pid) ]
  end

type kind = Write_write | Read_write

let kind_name = function
  | Write_write -> "write/write"
  | Read_write -> "read/write"

type race = {
  cell : string;
  kind : kind;
  time : float;
  first_pid : int;
  second_pid : int;
}

(* [id] tells one engine's state from another's: a cell outlives an
   engine, and what it recorded under another state must not race
   against this one's pids. *)
type state = {
  id : int;
  engine : Engine.t;
  mutable next_pid : int;
  mutable races : race list; (* newest first *)
  mutable reporters : (race -> unit) list; (* registration order *)
}

let state_key : state Engine.key = Engine.new_key ()
let states_made = ref 0

(* A checked engine's state, made on first use: at the first spawn fork
   (so spawn edges from the root process down are tracked) or hook. *)
let state_of engine =
  if not (Engine.checked engine) then None
  else
    match Engine.get_global engine state_key with
    | Some _ as st -> st
    | None ->
        incr states_made;
        let st =
          Some
            { id = !states_made; engine; next_pid = 0; races = [];
              reporters = [] }
        in
        Engine.set_global engine state_key st;
        st

let fresh_pid st =
  st.next_pid <- st.next_pid + 1;
  st.next_pid

(* The spawn fork, on a checked engine: the child gets a fresh pid
   — also when the spawner has no state yet — and is ordered after the
   spawner's history at the spawn point; bumping the spawner's own
   component afterwards keeps its *later* accesses concurrent with the
   child. *)
let fork engine parent =
  match state_of engine with
  | None -> None
  | Some st ->
      let now = Engine.now engine in
      let pid = fresh_pid st in
      let inherited =
        match parent with
        | Some parent ->
            prune parent now;
            let vc = parent.vc in
            parent.vc <-
              vc_set parent.vc parent.pid (vc_get parent.vc parent.pid + 1);
            vc
        | None -> []
      in
      Some { pid; vc = vc_set inherited pid 1; vtime = now }

let pstate_key : pstate Engine.key = Engine.new_key ~fork ()

(* The calling process's sanitizer state, pruned to the current
   instant and created on first use: a process that was never forked
   from an instrumented parent still gets its own identity, just with no
   ordering edges behind it. *)
let pstate st =
  let engine = st.engine in
  let now = Engine.now engine in
  match Engine.get engine pstate_key with
  | Some p ->
      prune p now;
      p
  | None ->
      let pid = fresh_pid st in
      let p = { pid; vc = [ (pid, 1) ]; vtime = now } in
      Engine.set engine pstate_key (Some p);
      p

let add_reporter engine f =
  match state_of engine with
  | None -> invalid_arg "Hb.add_reporter: engine not checked"
  | Some st -> st.reporters <- st.reporters @ [ f ]

let races engine =
  match state_of engine with None -> [] | Some st -> List.rev st.races

let race_count engine =
  match state_of engine with None -> 0 | Some st -> List.length st.races

(* {1 Sync objects} *)

(* One per blocking primitive instance. [svc] holds the joined clocks
   of every signaller at one instant; observers at that instant join it
   into their own clock, and a later one sees nothing. Unchecked, it
   stays [Unsignalled], so an unsanitized sync record is one word. *)
type published = Unsignalled | At of float * vc
type sync = { mutable svc : published }

let make_sync () = { svc = Unsignalled }

(* Hooks are ambient: they find the running engine (if any) and its
   checker state (if armed). Unarmed that is two reads and a match, and
   nothing is allocated: the armed work takes the state as an argument,
   so no closure is built to reach it. *)
let armed () =
  match Engine.self_opt () with None -> None | Some engine -> state_of engine

let signal_in st sync =
  let p = pstate st in
  let joined =
    match sync.svc with
    | At (t, vc) when t = p.vtime -> vc_join vc p.vc
    | At _ | Unsignalled -> p.vc
  in
  sync.svc <- At (p.vtime, joined);
  p.vc <- vc_set p.vc p.pid (vc_get p.vc p.pid + 1)

let signal sync =
  match armed () with None -> () | Some st -> signal_in st sync

let observe_in st sync =
  match sync.svc with
  | Unsignalled -> ()
  | At (t, vc) ->
      let p = pstate st in
      if t = p.vtime then p.vc <- vc_join p.vc vc

let observe sync =
  match armed () with None -> () | Some st -> observe_in st sync

(* {1 Registered shared cells} *)

type access = { pid : int; write : bool; own : int (* accessor's clock *) }

(* [owner] is the id of the state [accs] were recorded under, [0] for
   none. *)
type cell = {
  name : string;
  mutable owner : int;
  mutable atime : float;
  mutable accs : access list; (* accesses at [atime] only *)
}

let cell ~name = { name; owner = 0; atime = neg_infinity; accs = [] }

(* A reporter runs inside the access it reports, so in an atomic
   section: one that suspends fails naming it. *)
let report st race =
  st.races <- race :: st.races;
  List.iter
    (fun f -> Engine.atomic st.engine ~what:"race reporter" f race)
    st.reporters

let access_in st c ~write =
  let engine = st.engine in
  let now = Engine.now engine in
  if now > c.atime || c.owner <> st.id then begin
    (* The clock moved, so everything earlier is serialized by time; or
       the accesses are another engine's, whose pids mean nothing
       here. *)
    c.owner <- st.id;
    c.atime <- now;
    c.accs <- []
  end;
  let p = pstate st in
  let own = vc_get p.vc p.pid in
  (* An equal-or-stronger access by this process at this instant was
     already checked; re-recording it would only duplicate reports. *)
  let covered =
    List.exists
      (fun a -> a.pid = p.pid && a.own = own && (a.write || not write))
      c.accs
  in
  if not covered then begin
    List.iter
      (fun a ->
        if a.pid <> p.pid && (a.write || write) then
          (* [a] happened-before us iff its own-clock value at the
             access is covered by our view of its component. *)
          if a.own > vc_get p.vc a.pid then
            report st
              {
                cell = c.name;
                kind = (if a.write && write then Write_write else Read_write);
                time = now;
                first_pid = a.pid;
                second_pid = p.pid;
              })
      c.accs;
    c.accs <- { pid = p.pid; write; own } :: c.accs
  end

let access c ~write =
  match armed () with None -> () | Some st -> access_in st c ~write

let read c = access c ~write:false
let write c = access c ~write:true
