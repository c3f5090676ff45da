type t = {
  capacity : int;
  mutable avail : int;
  waiters : (unit -> unit) Queue.t;
  (* Happens-before edge carrier: release publishes, a successful
     acquire observes (no-op unless the schedule sanitizer is armed). *)
  hb : Hb.sync;
  (* Deadlock-sanitizer bookkeeping, maintained only when the engine's
     detector is armed: [rname] is assigned on first acquire or wait,
     [holders] tracks the pids currently owning permits so the wait-for
     graph can find lock cycles. *)
  mutable rname : string;
  mutable holders : int list;
}

let create n =
  if n < 0 then invalid_arg "Semaphore.create: negative capacity";
  {
    capacity = n;
    avail = n;
    waiters = Queue.create ();
    hb = Hb.make_sync ();
    rname = "";
    holders = [];
  }

let capacity t = t.capacity
let available t = t.avail
let in_use t = t.capacity - t.avail

let resource t e =
  if String.equal t.rname "" then t.rname <- Engine.fresh_resource e "semaphore";
  t.rname

let rec remove_once eq x = function
  | [] -> []
  | y :: rest -> if eq x y then rest else y :: remove_once eq x rest

(* {1 Acquisition order}

   Kept only when the detector is armed, after the Linux kernel's
   lockdep: each process's held semaphores (by resource name, newest
   first; a spawned child starts holding none) and the engine's
   held -> wanted edges. An acquire records its edges when it is
   attempted, before it can park, so two processes that take the same
   two semaphores in opposite orders are caught whether or not their
   critical sections ever overlap; a real ABBA deadlock closes the
   cycle too. The edge that closes a cycle becomes an entry of the
   stranded report ({!Engine.note_order_cycle}). *)

let held : string list Engine.key = Engine.new_key ~fork:(fun _ _ -> None) ()
let edges : (string, string list) Hashtbl.t Engine.key = Engine.new_key ()
let held_by e = Option.value ~default:[] (Engine.get e held)
let succs g n = Option.value ~default:[] (Hashtbl.find_opt g n)

(* The shortest edge path [src; ...; dst], if [dst] is reachable. *)
let path g src dst =
  let rec bfs seen = function
    | [] -> None
    | [] :: rest -> bfs seen rest
    | (n :: _ as p) :: rest ->
        if String.equal n dst then Some (List.rev p)
        else if List.exists (String.equal n) seen then bfs seen rest
        else bfs (n :: seen) (rest @ List.map (fun m -> m :: p) (succs g n))
  in
  bfs [] [ [ src ] ]

let note_wanted t e =
  let want = resource t e in
  let g =
    match Engine.get_global e edges with
    | Some g -> g
    | None ->
        let g = Hashtbl.create 8 in
        Engine.set_global e edges (Some g);
        g
  in
  List.iter
    (fun h ->
      let out = succs g h in
      if not (String.equal h want || List.exists (String.equal want) out)
      then begin
        Option.iter
          (fun back ->
            Engine.note_order_cycle e
              ("lock order " ^ String.concat " -> " (h :: back)))
          (path g want h);
        Hashtbl.replace g h (want :: out)
      end)
    (held_by e)

(* The armed bookkeeping lives in functions of its own, so the unarmed
   path keeps its stack frames: guest processes run on fiber stacks,
   where one deeper frame grows many of them. *)
let took t e =
  t.holders <- Engine.current_pid e :: t.holders;
  Engine.set e held (Some (resource t e :: held_by e))

let gave t e =
  t.holders <- remove_once Int.equal (Engine.current_pid e) t.holders;
  Engine.set e held (Some (remove_once String.equal t.rname (held_by e)))

let note_acquire t =
  match Engine.self_opt () with
  | Some e when Engine.deadlock_armed e -> took t e
  | _ -> ()

let note_release t =
  match Engine.self_opt () with
  | Some e when Engine.deadlock_armed e -> gave t e
  | _ -> ()

let try_acquire t =
  if t.avail > 0 then begin
    t.avail <- t.avail - 1;
    Hb.observe t.hb;
    note_acquire t;
    true
  end
  else false

(* [acquire] and [with_permit] check for an atomic section on entry,
   each under its own name, then take the permit here. *)
let take t =
  (match Engine.self_opt () with
  | Some e when Engine.deadlock_armed e -> note_wanted t e
  | _ -> ());
  if not (try_acquire t) then begin
    let e = Engine.self () in
    let tok =
      Engine.wait_begin e
        ~resource:(fun () -> resource t e)
        ~holders:(fun () -> t.holders)
    in
    Engine.suspend (fun resume ->
        Queue.add
          (fun () ->
            Engine.wait_end e tok;
            resume ())
          t.waiters);
    Hb.observe t.hb;
    (* The permit was handed to us directly by [release]; we are the
       holder from the moment we run again. *)
    note_acquire t
  end

let acquire t =
  Engine.may_block "Semaphore.acquire";
  take t

(* The permit is handed directly to the woken waiter: [release] does not
   increment [avail] when a waiter is pending, so no third party can steal
   the permit between release and wakeup. *)

let release t =
  Hb.signal t.hb;
  note_release t;
  match Queue.take_opt t.waiters with
  | Some resume -> resume ()
  | None ->
      if t.avail >= t.capacity then
        invalid_arg "Semaphore.release: released above capacity";
      t.avail <- t.avail + 1

let with_permit t f =
  Engine.may_block "Semaphore.with_permit";
  take t;
  match f () with
  | v ->
      release t;
      v
  | exception exn ->
      release t;
      raise exn
