type 'a t = {
  items : 'a Queue.t;
  (* A receive that timed out stays queued; the next send's wake passes
     over it. *)
  readers : Engine.Waitq.t;
  (* Happens-before edge carrier: send publishes, a successful receive
     observes (no-op unless the engine is checked). *)
  hb : Hb.sync;
}

let create () =
  {
    items = Queue.create ();
    readers = Engine.Waitq.create "channel";
    hb = Hb.make_sync ();
  }

(* [send] never parks today, but it is checked like the receives: an
   atomic callback holds no channel traffic at all, so bounding a
   channel later cannot turn a quiet section into a suspension. *)
let send t x =
  Engine.may_block "Channel.send";
  Hb.signal t.hb;
  Queue.add x t.items;
  ignore (Engine.Waitq.wake_one t.readers)

(* The head item, which the caller has seen is there. *)
let take t =
  let x = Queue.take t.items in
  Hb.observe t.hb;
  x

let try_recv t = if Queue.is_empty t.items then None else Some (take t)

(* An item can be stolen at the same timestamp: a woken receiver that
   finds the queue empty parks again. *)
let rec recv t =
  Engine.may_block "Channel.recv";
  if Queue.is_empty t.items then begin
    Engine.Waitq.park t.readers;
    recv t
  end
  else take t

(* A receiver that timed out takes an item sent at the very deadline,
   between its deadline and its resumption. *)
let rec recv_until t deadline =
  if Engine.Waitq.park_until t.readers ~deadline then
    if Queue.is_empty t.items then recv_until t deadline else Some (take t)
  else try_recv t

let recv_timeout t ~timeout =
  Engine.may_block "Channel.recv_timeout";
  if Queue.is_empty t.items then
    recv_until t (Engine.now (Engine.self ()) +. timeout)
  else Some (take t)
