type 'a t = {
  items : 'a Queue.t;
  (* Each waiter is woken at most once; a woken receiver re-checks the
     queue because an item can be consumed by a non-blocked receiver that
     runs first at the same timestamp. A reader returns whether it took
     the wakeup: one left behind by a receive that timed out declines,
     and [send] passes the wakeup on to the next. *)
  readers : (unit -> bool) Queue.t;
  (* Happens-before edge carrier: send publishes, a successful receive
     observes (no-op unless the schedule sanitizer is armed). *)
  hb : Hb.sync;
  (* Deadlock-sanitizer display name, assigned on first armed wait. *)
  mutable rname : string;
}

let create () =
  {
    items = Queue.create ();
    readers = Queue.create ();
    hb = Hb.make_sync ();
    rname = "";
  }

let resource t e =
  if String.equal t.rname "" then t.rname <- Engine.fresh_resource e "channel";
  t.rname

let rec wake_one readers =
  match Queue.take_opt readers with
  | Some take -> if not (take ()) then wake_one readers
  | None -> ()

(* [send] never parks today, but it is checked like the receives: an
   atomic callback holds no channel traffic at all, so bounding a
   channel later cannot turn a quiet section into a suspension. *)
let send t x =
  Engine.may_block "Channel.send";
  Hb.signal t.hb;
  Queue.add x t.items;
  wake_one t.readers

let try_recv t =
  match Queue.take_opt t.items with
  | Some x ->
      Hb.observe t.hb;
      Some x
  | None -> None

let rec recv_loop t =
  match try_recv t with
  | Some x -> x
  | None ->
      let e = Engine.self () in
      let tok =
        Engine.wait_begin e
          ~resource:(fun () -> resource t e)
          ~holders:(fun () -> [])
      in
      Engine.suspend (fun resume ->
          Queue.add
            (fun () ->
              Engine.wait_end e tok;
              resume ();
              true)
            t.readers);
      (* An item can be stolen at the same timestamp; re-parking takes a
         fresh wait token. *)
      recv_loop t

let recv t =
  Engine.may_block "Channel.recv";
  recv_loop t

let recv_timeout t ~timeout =
  Engine.may_block "Channel.recv_timeout";
  match try_recv t with
  | Some x -> Some x
  | None ->
      let deadline = Engine.now (Engine.self ()) +. timeout in
      let rec wait () =
        let race : [ `Ready | `Timeout ] Ivar.t = Ivar.create () in
        let engine = Engine.self () in
        let remaining = deadline -. Engine.now engine in
        if remaining < 0.0 then try_recv t
        else begin
          let timer =
            Engine.schedule_timer engine ~delay:remaining (fun () ->
                ignore (Ivar.try_fill race `Timeout))
          in
          (* The item won: its timer has nothing left to decide. *)
          Queue.add
            (fun () ->
              let won = Ivar.try_fill race `Ready in
              if won then Engine.cancel engine timer;
              won)
            t.readers;
          match Ivar.read race with
          | `Timeout -> try_recv t
          | `Ready -> (
              match try_recv t with
              | Some x -> Some x
              | None -> wait () (* item stolen at same timestamp; re-arm *))
        end
      in
      wait ()
