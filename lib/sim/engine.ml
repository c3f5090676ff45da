(* Key values are stored untyped, as [exn]: each key mints its own
   local exception constructor (the standard universal-type idiom), so
   the engine stays independent of what its clients carry. [Unset] marks
   a vacant cell. *)
exception Unset

(* The currently-dispatching process: its identity and its key values,
   parked as one record with its continuation so both survive
   suspensions. Daemons are processes expected to park forever (accept
   loops, refill loops): they are excluded from [stuck_waiters] and only
   reported by the deadlock detector when they sit on a wait cycle. *)
type proc = {
  p_id : int;
  p_name : string;
  p_born : float;
  p_daemon : bool;
  mutable p_vals : exn array;  (* indexed by key id; [||] holds nothing *)
}

(* A checked engine's record of one parked waiter, keyed by its wait
   token. [w_holders] is the queue's holders function, so the current
   holder set is read at quiescence, not at park time. *)
type wait_record = {
  w_resource : string;
  w_holders : unit -> int list;
  w_pid : int;
  w_name : string;
  w_born : float;
  w_daemon : bool;
  w_since : float;
}

type stranded = {
  resource : string;
  proc : string;
  pid : int;
  spawned_at : float;
  waiting_since : float;
  holders : int list;
  in_cycle : bool;
}

type kont = (unit, unit) Effect.Deep.continuation

(* A queued callback's arena slot and the [seq] it was pushed with:
   [seq] is unique per push, so once the event fires or is cancelled —
   and even after its slot is reused — the handle matches nothing. *)
type timer = { tm_slot : int; tm_seq : int }

(* The handle of no event: no push has [seq] 0. *)
let no_timer = { tm_slot = 0; tm_seq = 0 }

(* One parked process, linked through [w_next] ([nil] ends a list).
   The [Park] handler stores its continuation [w_k]. One that timed out
   stays linked until a wake-one passes over it. *)
type wstate = Parked | Woken | Timed_out

type waiter = {
  mutable w_k : kont;
  w_proc : proc option;
  w_token : int;
  mutable w_state : wstate;
  mutable w_timer : timer;
  mutable w_next : waiter;
}

(* A waiter queue: FIFO from [wq_head] to [wq_tail], both [nil] when
   empty. [wq_name] is [""] until first asked for. *)
type waitq = {
  wq_kind : string;
  wq_holders : unit -> int list;
  mutable wq_name : string;
  mutable wq_head : waiter;
  mutable wq_tail : waiter;
}

(* The simulated clock lives in its own all-float record: float fields
   of a flat float record read and write unboxed, so advancing the clock
   on every dispatch allocates nothing. Inlined into the engine record it
   would be a boxed store per event. [t_limit] is the current run's
   [until] cut, read by the dispatch loop and by {!sleep}'s in-place
   resume. [t_due] is the time of the event being pushed: passed here,
   not as an argument, it reaches the push unboxed also from the
   [Sleep] handler, so the effect a sleep performs is a constant. *)
type clockbox = {
  mutable t_now : float;
  mutable t_limit : float;
  mutable t_due : float;
}

type t = {
  clk : clockbox;
  mutable seq : int;
  (* The event queue, as a binary min-heap over parallel arrays plus a
     payload arena, rather than a heap of event records. The heap
     columns ([q_time]/[q_pri]/[q_seq]/[q_slot]) are all unboxed
     scalars: timestamps stay flat in the float array, the
     (time, pri, seq) comparator is monomorphic float/int compares, and
     — crucially — sift swaps move no pointers, so reheapification never
     calls the GC write barrier. Payloads live in the arena columns
     indexed by [q_slot]: each slot is either a plain callback
     ([a_kind] 0: [a_thunk]) or a parked process continuation with its
     process record ([a_kind] 1: [a_kont]/[a_proc]) — storing both
     directly replaces the per-suspension closure the old record-based
     queue allocated. A slot is written once at push and
     reset to the dummies at pop (so the arena retains nothing), with
     free slots kept on an integer stack. [a_pos] maps a queued slot
     back to its heap index (kept by every push, swap and pop), so
     {!cancel} finds a timer's entry without a search. Nothing on this
     path allocates once the arrays are grown. *)
  mutable q_size : int;
  mutable q_time : float array;
  mutable q_pri : int array;
  mutable q_seq : int array;
  mutable q_slot : int array;
  mutable a_kind : int array;
  mutable a_thunk : (unit -> unit) array;
  mutable a_kont : kont array;
  mutable a_proc : proc option array;
  mutable a_pos : int array;
  mutable free : int array;  (* free arena slots, as a stack *)
  mutable free_top : int;
  prng : Prng.t;
  (* Schedule-sanitizer tie shuffler: when armed, every scheduled event
     draws a random priority from this private stream and equal-timestamp
     events fire in priority order instead of FIFO. A correct experiment
     is insensitive to tie order, so its outputs must be byte-identical
     under any shuffle seed; a divergence pinpoints latent
     order-dependence. [None] (the default) draws nothing and preserves
     exact FIFO tie-breaking, bit-identical to an unarmed build. *)
  tie : Prng.t option;
  mutable running : bool;
  mutable executed : int;
  (* Self-profiling: high-water mark of the event heap. Together with
     [seq] (every schedule is a heap push) and [executed] (every
     dispatch is a pop) this is the engine's always-on perf counter set
     — integer compares only, no allocation, no schedule effect. *)
  mutable max_heap : int;
  (* [Some t], built once at [create] so entering [run] does not
     allocate a fresh option per call (the dynamic zero-alloc test in
     test_sim measures an entire run). *)
  mutable self_some : t option;
  (* Engine-wide key values (the fault plan, the happens-before
     checker's state), indexed by key id like [p_vals]. *)
  mutable globals : exn array;
  (* The checkers' one switch: the race checker ({!Hb}), the deadlock
     detector and the quiescence hooks (the ownership census) all read
     it. The wait counters are always on (integer bumps only — no
     draws, no allocation, no schedule effect), so [stuck_waiters] is
     meaningful unchecked; the [waits] table, resource naming and the
     hooks are used only when [check] is set. *)
  check : bool;
  mutable hooks : (unit -> unit) list;  (* newest first *)
  (* The dispatching process; [None] in a plain callback until a key is
     set there. *)
  mutable proc : proc option;
  mutable next_pid : int;
  mutable parked : int;  (* non-daemon processes currently suspended *)
  mutable parked_daemon : int;
  mutable parking : waiter;  (* for the [Park] handler to fill in *)
  waits : (int, wait_record) Hashtbl.t;  (* token -> record; checked only *)
  mutable next_token : int;
  mutable next_resource : int;
  (* Lock-order cycles found by {!Semaphore}'s acquisition-order check,
     newest first; checked only. *)
  mutable order_cycles : stranded list;
  (* Atomic sections: the nesting depth and the outermost section's
     name. Engine-wide rather than per process: code inside a section
     cannot suspend, so no other process runs until it is left. *)
  mutable atomic_depth : int;
  mutable atomic_what : string;
}

exception Process_failure of string * exn

(* The default printer shows a nested exception as [_], which would hide
   the cause of every failed run. *)
let () =
  Printexc.register_printer (function
    | Process_failure (name, exn) ->
        Some
          (Printf.sprintf "Process_failure(%S, %s)" name
             (Printexc.to_string exn))
    | _ -> None)

type _ Effect.t +=
  | Sleep : unit Effect.t
  | Park : unit Effect.t
  | Never : unit Effect.t  (* performed exactly once, to mint [dummy_kont] *)

let dummy_thunk () = ()

let dummy_kont : kont =
  (* A real continuation that is never resumed: it fills the vacant
     slots of the [a_kont] array so pops can clear their slot without an
     option box per event. Capturing it costs one leaked fiber, once. *)
  let stash : kont option ref = ref None in
  Effect.Deep.match_with
    (fun () -> Effect.perform Never)
    ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Never ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  stash := Some k)
          | _ -> None);
    };
  match !stash with Some k -> k | None -> assert false

(* The end of every list, and the one waiter with a negative token. *)
let rec nil =
  {
    w_k = dummy_kont;
    w_proc = None;
    w_token = -1;
    w_state = Parked;
    w_timer = no_timer;
    w_next = nil;
  }

let is_nil w = w.w_token < 0
let is_daemon w = match w.w_proc with Some p -> p.p_daemon | None -> false

let initial_capacity = 256

let create ?(seed = 1L) ?tie_seed ?(check = false) () =
  let t =
    {
      clk = { t_now = 0.0; t_limit = Float.infinity; t_due = 0.0 };
      seq = 0;
      q_size = 0;
      q_time = Array.make initial_capacity 0.0;
      q_pri = Array.make initial_capacity 0;
      q_seq = Array.make initial_capacity 0;
      q_slot = Array.make initial_capacity 0;
      a_kind = Array.make initial_capacity 0;
      a_thunk = Array.make initial_capacity dummy_thunk;
      a_kont = Array.make initial_capacity dummy_kont;
      a_proc = Array.make initial_capacity None;
      a_pos = Array.make initial_capacity 0;
      free = Array.init initial_capacity (fun i -> i);
      free_top = initial_capacity;
      prng = Prng.create seed;
      tie = Option.map Prng.create tie_seed;
      running = false;
      executed = 0;
      max_heap = 0;
      self_some = None;
      globals = [||];
      check;
      hooks = [];
      proc = None;
      next_pid = 0;
      parked = 0;
      parked_daemon = 0;
      parking = nil;
      waits = Hashtbl.create 16;
      next_token = 0;
      next_resource = 0;
      order_cycles = [];
      atomic_depth = 0;
      atomic_what = "";
    }
  in
  t.self_some <- Some t;
  t

let now t = t.clk.t_now
let rng t = t.prng

let pending t = t.q_size

type perf = { dispatched : int; scheduled : int; max_heap : int }

let perf t =
  { dispatched = t.executed; scheduled = t.seq; max_heap = t.max_heap }

(* {1 The event arena}

   A classic binary min-heap, sifted with the exact tie-breaking of the
   old record comparator ((time, pri, seq), strict-less moves) so event
   dispatch order — and therefore every experiment output byte — is
   unchanged. All compares are monomorphic: float reads from the time
   array, int reads elsewhere. Times are validated finite at schedule,
   so IEEE [<] is a total order here. *)

let ev_before t i j =
  let ti = t.q_time.(i) and tj = t.q_time.(j) in
  if ti < tj then true
  else if tj < ti then false
  else
    let pi = t.q_pri.(i) and pj = t.q_pri.(j) in
    if pi < pj then true
    else if pj < pi then false
    else t.q_seq.(i) < t.q_seq.(j)

let heap_swap t i j =
  let ft = t.q_time.(i) in
  t.q_time.(i) <- t.q_time.(j);
  t.q_time.(j) <- ft;
  let n = t.q_pri.(i) in
  t.q_pri.(i) <- t.q_pri.(j);
  t.q_pri.(j) <- n;
  let n = t.q_seq.(i) in
  t.q_seq.(i) <- t.q_seq.(j);
  t.q_seq.(j) <- n;
  let si = t.q_slot.(i) and sj = t.q_slot.(j) in
  t.q_slot.(i) <- sj;
  t.q_slot.(j) <- si;
  t.a_pos.(sj) <- i;
  t.a_pos.(si) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if ev_before t i parent then begin
      heap_swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < t.q_size && ev_before t l i then l else i in
  let s = if r < t.q_size && ev_before t r s then r else s in
  if s <> i then begin
    heap_swap t i s;
    sift_down t s
  end

let grow t =
  (* Only called when the queue is full, so every arena slot is live
     ([free_top] = 0): heap columns copy the live prefix, arena columns
     copy whole (live slots are scattered), and the new free stack holds
     exactly the freshly minted slots. *)
  let old = Array.length t.q_time in
  let cap = 2 * old in
  let time = Array.make cap 0.0 in
  Array.blit t.q_time 0 time 0 t.q_size;
  t.q_time <- time;
  let copy_int src =
    let a = Array.make cap 0 in
    Array.blit src 0 a 0 old;
    a
  in
  t.q_pri <- copy_int t.q_pri;
  t.q_seq <- copy_int t.q_seq;
  t.q_slot <- copy_int t.q_slot;
  t.a_kind <- copy_int t.a_kind;
  t.a_pos <- copy_int t.a_pos;
  let thunk = Array.make cap dummy_thunk in
  Array.blit t.a_thunk 0 thunk 0 old;
  t.a_thunk <- thunk;
  let kont = Array.make cap dummy_kont in
  Array.blit t.a_kont 0 kont 0 old;
  t.a_kont <- kont;
  let proc = Array.make cap None in
  Array.blit t.a_proc 0 proc 0 old;
  t.a_proc <- proc;
  (* Sized [cap] so the stack can absorb every slot as the queue drains. *)
  t.free <- Array.init cap (fun i -> if i < old then old + i else 0);
  t.free_top <- old

(* Push a heap entry for an event at [t.clk.t_due] and return the fresh
   arena slot; the caller fills the slot's payload columns. *)
let push_due t =
  t.seq <- t.seq + 1;
  let pri = match t.tie with None -> 0 | Some p -> Prng.int p 0x4000_0000 in
  if t.q_size = Array.length t.q_time then grow t;
  let slot = t.free.(t.free_top - 1) in
  t.free_top <- t.free_top - 1;
  let i = t.q_size in
  t.q_time.(i) <- t.clk.t_due;
  t.q_pri.(i) <- pri;
  t.q_seq.(i) <- t.seq;
  t.q_slot.(i) <- slot;
  t.a_pos.(slot) <- i;
  t.q_size <- i + 1;
  sift_up t i;
  if t.q_size > t.max_heap then t.max_heap <- t.q_size;
  slot

(* [push_due] for an event [delay] from now. *)
let push_event t ~delay =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  t.clk.t_due <- t.clk.t_now +. delay;
  push_due t

let schedule t ~delay thunk =
  let slot = push_event t ~delay in
  (* Vacated slots are pre-cleared, so only the thunk column is set. *)
  t.a_thunk.(slot) <- thunk

let schedule_timer t ~delay thunk =
  let slot = push_event t ~delay in
  t.a_thunk.(slot) <- thunk;
  { tm_slot = slot; tm_seq = t.seq }

(* Drop heap entry [i]: the last entry fills the hole and sifts to its
   place (up or down, as it compares with its new parent). The entry's
   arena slot is left to the caller. *)
let heap_remove t i =
  let last = t.q_size - 1 in
  if i < last then begin
    t.q_time.(i) <- t.q_time.(last);
    t.q_pri.(i) <- t.q_pri.(last);
    t.q_seq.(i) <- t.q_seq.(last);
    t.q_slot.(i) <- t.q_slot.(last);
    t.a_pos.(t.q_slot.(i)) <- i
  end;
  t.q_time.(last) <- 0.0;
  t.q_pri.(last) <- 0;
  t.q_seq.(last) <- 0;
  t.q_slot.(last) <- 0;
  t.q_size <- last;
  if i < last then
    if i > 0 && ev_before t i ((i - 1) / 2) then sift_up t i
    else sift_down t i

(* Reset a vacated slot's payload columns to the dummies (only the
   columns its kind used: callbacks never touch the continuation
   columns and vice versa) and return it to the free stack. *)
let free_slot t slot =
  if t.a_kind.(slot) = 0 then t.a_thunk.(slot) <- dummy_thunk
  else begin
    t.a_kind.(slot) <- 0;
    t.a_kont.(slot) <- dummy_kont;
    t.a_proc.(slot) <- None
  end;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

let cancel t tm =
  let i = t.a_pos.(tm.tm_slot) in
  if i < t.q_size && t.q_seq.(i) = tm.tm_seq then begin
    heap_remove t i;
    free_slot t tm.tm_slot
  end

(* Park a process continuation with its process record, due at
   [t.clk.t_due]. *)
let push_resume t k saved_proc =
  let slot = push_due t in
  t.a_kind.(slot) <- 1;
  t.a_kont.(slot) <- k;
  t.a_proc.(slot) <- saved_proc

(* The engine currently dispatching an event; the simulator is
   single-threaded so a global is unambiguous. *)
let current : t option ref = ref None

let self () =
  match !current with
  | Some t -> t
  | None -> invalid_arg "Engine.self: no simulation is running"

let self_opt () = !current

(* {1 Atomic sections} *)

let atomic_enter t ~what =
  if t.atomic_depth = 0 then t.atomic_what <- what;
  t.atomic_depth <- t.atomic_depth + 1

let atomic_leave t =
  if t.atomic_depth = 0 then
    invalid_arg "Engine.atomic_leave: no atomic section to leave";
  t.atomic_depth <- t.atomic_depth - 1

(* An exception leaves the section too: cleanup code further up (a
   [with_permit] release, an interpreter's billing flush) may block. *)
let atomic t ~what f x =
  atomic_enter t ~what;
  match f x with
  | v ->
      atomic_leave t;
      v
  | exception exn ->
      atomic_leave t;
      raise exn

let in_atomic t prim =
  invalid_arg
    (Printf.sprintf "%s inside atomic section %S, which must not suspend" prim
       t.atomic_what)

let may_block prim =
  match !current with
  | Some t when t.atomic_depth > 0 -> in_atomic t prim
  | _ -> ()

(* {1 Keys} *)

type 'a key = {
  id : int;
  inj : 'a -> exn;
  prj : exn -> 'a option;
  fork : t -> 'a option -> 'a option;
}

type any_key = Key : 'a key -> any_key

(* Every key ever minted, oldest first; [spawn] forks each of them in
   this order. *)
let keys : any_key list ref = ref []
let key_count = ref 0

let new_key (type a) ?(fork = fun _ v -> v) () : a key =
  let module M = struct
    exception V of a
  end in
  let k =
    {
      id = !key_count;
      inj = (fun v -> M.V v);
      prj = (function M.V v -> Some v | _ -> None);
      fork;
    }
  in
  incr key_count;
  keys := !keys @ [ Key k ];
  k

let find vals k = if k.id < Array.length vals then k.prj vals.(k.id) else None

(* [vals] with [k] bound to [v]; grows (so copies) a short array, which
   keeps the shared [[||]] of a record that holds nothing untouched. *)
let store vals k v =
  match v with
  | None ->
      if k.id < Array.length vals then vals.(k.id) <- Unset;
      vals
  | Some v ->
      let vals =
        if k.id < Array.length vals then vals
        else begin
          let a = Array.make !key_count Unset in
          Array.blit vals 0 a 0 (Array.length vals);
          a
        end
      in
      vals.(k.id) <- k.inj v;
      vals

let get t k = match t.proc with None -> None | Some p -> find p.p_vals k

(* A plain callback gets a record of its own on its first [set], dropped
   when the next event dispatches. *)
let set t k v =
  match t.proc with
  | Some p -> p.p_vals <- store p.p_vals k v
  | None ->
      if Option.is_some v then
        t.proc <-
          Some
            {
              p_id = 0;
              p_name = "callback";
              p_born = t.clk.t_now;
              p_daemon = false;
              p_vals = store [||] k v;
            }

let get_global t k = find t.globals k
let set_global t k v = t.globals <- store t.globals k v

(* The values a child starts with: each key's fork of the spawner's
   value, computed at [spawn] time. *)
let rec fork_keys t parent vals = function
  | [] -> vals
  | Key k :: rest ->
      fork_keys t parent (store vals k (k.fork t (find parent k))) rest

let fork_vals t =
  let parent = match t.proc with None -> [||] | Some p -> p.p_vals in
  fork_keys t parent [||] !keys

(* {1 Checkers} *)

let checked t = t.check
let at_quiescence t f = t.hooks <- f :: t.hooks
let stuck_waiters t = t.parked
let current_pid t = match t.proc with Some p -> p.p_id | None -> 0

let waitq_name t q =
  if String.equal q.wq_name "" then begin
    t.next_resource <- t.next_resource + 1;
    q.wq_name <- Printf.sprintf "%s#%d" q.wq_kind t.next_resource
  end;
  q.wq_name

(* The current process's pid, name and spawn time. *)
let provenance t =
  match t.proc with
  | Some p -> (p.p_id, p.p_name, p.p_born)
  | None -> (0, "callback", t.clk.t_now)

let record_waiter t w q =
  let pid, name, born = provenance t in
  Hashtbl.replace t.waits w.w_token
    {
      w_resource = waitq_name t q;
      w_holders = q.wq_holders;
      w_pid = pid;
      w_name = name;
      w_born = born;
      w_daemon = is_daemon w;
      w_since = t.clk.t_now;
    }

let note_order_cycle t cycle =
  let pid, name, born = provenance t in
  t.order_cycles <-
    {
      resource = cycle;
      proc = name;
      pid;
      spawned_at = born;
      waiting_since = t.clk.t_now;
      holders = [];
      in_cycle = true;
    }
    :: t.order_cycles

(* Walk the wait-for graph over parked processes: an edge goes from a
   waiter to each holder of the resource it waits on that is itself
   parked. Non-daemon waiters are stranded outright at quiescence;
   daemons are reported only when they sit on a cycle. The lock-order
   cycles follow, except one closed by a process already reported on
   a wait-for cycle: that is the same deadlock, seen twice. *)
let stranded_waiters t =
  if not t.check then []
  else begin
    let entries = Det.bindings t.waits in
    let waiting = List.map (fun (_, w) -> w.w_pid) entries in
    let adj =
      List.map
        (fun (_, w) ->
          (w.w_pid, List.filter (fun h -> List.mem h waiting) (w.w_holders ())))
        entries
    in
    let succs p =
      match List.assoc_opt p adj with Some l -> l | None -> []
    in
    let reaches_self p0 =
      let rec go visited = function
        | [] -> false
        | x :: rest ->
            if List.mem x visited then go visited rest
            else if List.mem p0 (succs x) then true
            else go (x :: visited) (succs x @ rest)
      in
      go [] (succs p0)
    in
    let parked =
      List.filter_map
        (fun (_, w) ->
          let in_cycle = reaches_self w.w_pid in
          if w.w_daemon && not in_cycle then None
          else
            Some
              {
                resource = w.w_resource;
                proc = w.w_name;
                pid = w.w_pid;
                spawned_at = w.w_born;
                waiting_since = w.w_since;
                holders = w.w_holders ();
                in_cycle;
              })
        entries
    in
    let on_wait_cycle pid =
      List.exists (fun s -> s.in_cycle && s.pid = pid) parked
    in
    parked
    @ List.filter
        (fun s -> not (on_wait_cycle s.pid))
        (List.rev t.order_cycles)
  end

(* A sleep that would be the very next event resumes in place: no
   effect, no heap push and pop, just the bookkeeping the round trip
   would have left — one [seq] (a push), one [executed] (a pop), the
   heap high-water mark at [q_size + 1], and the clock at the due time.
   That holds only for a real process (a callback, pid 0, must still
   raise [Effect.Unhandled]), with the tie shuffler unarmed (each push
   draws a priority), for a wakeup due within the run's [until] cut and
   strictly before the heap root: at an equal time the queued event was
   pushed first, so FIFO order runs it first. Inside an atomic section
   neither path is taken: the sleep fails, naming [prim].

   A bad delay is rejected here, in the sleeping process, before either
   path: raised from the effect handler it would escape the process's
   own handler and abort the run without naming the process. *)
let sleep_as prim delay =
  if not (delay >= 0.0 && delay < Float.infinity) then
    invalid_arg "Engine.sleep: delay must be finite and non-negative";
  match !current with
  | Some t when t.atomic_depth > 0 -> in_atomic t prim
  | Some t
    when (match t.proc with Some p -> p.p_id > 0 | None -> false)
         && Option.is_none t.tie
         && t.clk.t_now +. delay <= t.clk.t_limit
         && (t.q_size = 0 || t.clk.t_now +. delay < t.q_time.(0)) ->
      t.seq <- t.seq + 1;
      if t.q_size >= t.max_heap then t.max_heap <- t.q_size + 1;
      t.executed <- t.executed + 1;
      t.clk.t_now <- t.clk.t_now +. delay
  | Some t ->
      t.clk.t_due <- t.clk.t_now +. delay;
      Effect.perform Sleep
  | None -> Effect.perform Sleep

let sleep delay = sleep_as "Engine.sleep" delay
let yield () = sleep_as "Engine.yield" 0.0

(* {1 Waiter queues}

   The parking process builds, links, counts and (checked) records its
   waiter, then performs [Park], whose handler only stores the
   continuation in it. A wake pushes that continuation at the current
   time, in the waker's context. *)

let resume t w state =
  if w.w_state <> Parked then invalid_arg "Engine: process resumed twice";
  w.w_state <- state;
  if is_daemon w then t.parked_daemon <- t.parked_daemon - 1
  else t.parked <- t.parked - 1;
  if t.check then Hashtbl.remove t.waits w.w_token;
  (* Resumed now, then its deadline cancelled: a no-op once it fired. *)
  t.clk.t_due <- t.clk.t_now;
  push_resume t w.w_k w.w_proc;
  cancel t w.w_timer

(* The deadline fires only on a parked waiter: a wake cancels it. *)
let expire w = resume (self ()) w Timed_out

(* Park on [q], [timed] with a deadline [delay] from now, which is
   queued first: a bad [delay] fails before anything is linked. *)
let park_for t q ~timed delay =
  let w =
    {
      w_k = dummy_kont;
      w_proc = t.proc;
      w_token = t.next_token;
      w_state = Parked;
      w_timer = no_timer;
      w_next = nil;
    }
  in
  t.next_token <- t.next_token + 1;
  if timed then w.w_timer <- schedule_timer t ~delay (fun () -> expire w);
  if is_nil q.wq_head then q.wq_head <- w else q.wq_tail.w_next <- w;
  q.wq_tail <- w;
  if is_daemon w then t.parked_daemon <- t.parked_daemon + 1
  else t.parked <- t.parked + 1;
  if t.check then record_waiter t w q;
  t.parking <- w;
  Effect.perform Park;
  w.w_state

(* The [Sleep] and [Park] handlers, built once. Each runs at suspension
   time, so [t.proc] still belongs to the suspending process: a sleep
   parks it with its continuation at the time [sleep] left in
   [t.clk.t_due], no closure needed. *)
let sleep_handler : (kont -> unit) option =
  Some
    (fun k ->
      match !current with
      | Some t -> push_resume t k t.proc
      | None -> assert false)

let park_handler : (kont -> unit) option =
  Some
    (fun k ->
      match !current with
      | Some t ->
          t.parking.w_k <- k;
          t.parking <- nil
      | None -> assert false)

module Waitq = struct
  type t = waitq

  let create ?(holders = fun () -> []) kind =
    { wq_kind = kind; wq_holders = holders; wq_name = ""; wq_head = nil;
      wq_tail = nil }

  let name = waitq_name
  let park q = ignore (park_for (self ()) q ~timed:false 0.0)

  let park_until q ~deadline =
    let t = self () in
    let delay = deadline -. t.clk.t_now in
    if delay < 0.0 then false else park_for t q ~timed:true delay = Woken

  (* Unlink and return the head waiter, [nil] when there is none. *)
  let pop q =
    let w = q.wq_head in
    q.wq_head <- w.w_next;
    if is_nil q.wq_head then q.wq_tail <- nil;
    w

  let rec wake_one q =
    let w = pop q in
    if is_nil w then false
    else if w.w_state = Timed_out then wake_one q
    else begin
      resume (self ()) w Woken;
      true
    end

  let rec wake_all q =
    let w = pop q in
    if not (is_nil w) then begin
      if w.w_state <> Timed_out then resume (self ()) w Woken;
      wake_all q
    end
end

(* Run [f] as a process: a deep handler parks a Sleep's continuation in
   the event arena and a Park's in its waiter. The handler stays
   attached when the continuation is resumed later, so an exception
   raised after a suspension still names the process. *)
let exec ~daemon t name vals f =
  t.next_pid <- t.next_pid + 1;
  t.proc <-
    Some
      {
        p_id = t.next_pid;
        p_name = name;
        p_born = t.clk.t_now;
        p_daemon = daemon;
        p_vals = vals;
      };
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> ());
      exnc =
        (fun exn ->
          (* Keep the trace of the raise inside the process. *)
          let bt = Printexc.get_raw_backtrace () in
          Printexc.raise_with_backtrace (Process_failure (name, exn)) bt);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Sleep -> sleep_handler
          | Park -> park_handler
          | _ -> None);
    }

let spawn t ?(name = "process") ?(daemon = false) f =
  (* Children fork the spawner's key values (e.g. its trace context),
     so work fanned out by an invocation records into the invocation's
     own trace. *)
  let vals = fork_vals t in
  schedule t ~delay:0.0 (fun () -> exec ~daemon t name vals f)

let restore_idle t =
  t.running <- false;
  t.atomic_depth <- 0;
  t.proc <- None;
  current := None

(* Quiescence hooks run outside any process, so each runs in an atomic
   section: a suspension there fails naming the section instead of
   escaping as an unhandled effect. *)
let run_hooks t =
  List.iter (fun f -> atomic t ~what:"quiescence hook" f ()) (List.rev t.hooks)

(* The dispatch loop, as a tail-recursive drain so an unarmed run
   allocates nothing at all: no option per peek/pop (slot columns are
   read in place), no refs, no closures. Returns whether the queue
   drained (as opposed to stopping at the [until] cut). *)
let rec dispatch_loop t =
  if t.q_size = 0 then true
  else begin
    let time = t.q_time.(0) in
    if time > t.clk.t_limit then false
    else begin
      (* Pop the heap root (scalar moves only), then read out and reset
         its arena slot so the arena retains nothing. *)
      let slot = t.q_slot.(0) in
      heap_remove t 0;
      let kind = t.a_kind.(slot) in
      let thunk = t.a_thunk.(slot) in
      let k = t.a_kont.(slot) in
      let p = t.a_proc.(slot) in
      free_slot t slot;
      t.clk.t_now <- time;
      t.executed <- t.executed + 1;
      (* Each event starts with its own record: a plain callback with
         none, a resumed process with the one it parked. *)
      t.proc <- p;
      if kind = 0 then thunk () else Effect.Deep.continue k ();
      dispatch_loop t
    end
  end

let run ?until t =
  if t.running then invalid_arg "Engine.run: already running";
  t.running <- true;
  current := t.self_some;
  t.clk.t_limit <- (match until with None -> Float.infinity | Some l -> l);
  match dispatch_loop t with
  | drained ->
      if not drained then t.clk.t_now <- t.clk.t_limit;
      (* Natural quiescence (the queue drained, not an [until] cut):
         anything still parked can never be woken, and nothing held
         can still be released — the hooks read the wait-for graph and
         the censuses now. *)
      if drained && t.check then run_hooks t;
      restore_idle t
  | exception exn ->
      restore_idle t;
      raise exn
