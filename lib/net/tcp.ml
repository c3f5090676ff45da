type msg = { data : string; size : int }

type frame = Data of msg | Fin

(* One direction of a connection. Frames are stamped with a sequence
   number in sender program order and re-ordered on the receiving side,
   so delivery order matches send order even when several frames land at
   the same simulated instant and the engine's tie shuffler permutes
   their events — real TCP is FIFO per direction, and the schedule
   sanitizer holds the model to that. *)
type dir = {
  ch : (int * frame) Sim.Channel.t;
  mutable tx_seq : int;  (* next sequence number to assign (sender side) *)
  mutable rx_seq : int;  (* next sequence number to deliver (receiver side) *)
  mutable ooo : (int * frame) list;  (* out-of-order frames, buffered *)
}

let make_dir () = { ch = Sim.Channel.create (); tx_seq = 0; rx_seq = 0; ooo = [] }

type conn = {
  out : dir;
  inc : dir;
  link : Netconf.link;
  mutable closed_local : bool;
  mutable closed_remote : bool;
}

(* [None] on the accept queue is a shutdown's wakeup for a parked
   acceptor; [shut] is what every later accept reads. *)
type listener = {
  port : int;
  accepts : conn option Sim.Channel.t;
  mutable shut : bool;
}

let listener ~port = { port; accepts = Sim.Channel.create (); shut = false }

let port l = l.port

let syn_timeout = 1.0
let syn_retries = 2

let connect ?(admit = fun () -> true) ~link l =
  let engine = Sim.Engine.self () in
  (* Fault plane: an injected drop loses this SYN exactly like an
     admission refusal — the client sleeps the retransmission timeout and
     spends one attempt of its retry budget. *)
  let admit () =
    admit () && not (Faults.Fault.fire Net_drop ~detail:(fun () -> "syn"))
  in
  let rec attempt tries =
    if admit () then begin
      (* Handshake: SYN, SYN/ACK, ACK before data can flow. *)
      Sim.Engine.sleep (3.0 *. link.Netconf.latency);
      let a2b = make_dir () and b2a = make_dir () in
      let client =
        { out = a2b; inc = b2a; link; closed_local = false; closed_remote = false }
      in
      let server =
        { out = b2a; inc = a2b; link; closed_local = false; closed_remote = false }
      in
      Sim.Engine.schedule engine ~delay:link.Netconf.latency (fun () ->
          Sim.Channel.send l.accepts (Some server));
      Some client
    end
    else if tries >= syn_retries then None
    else begin
      Sim.Engine.sleep syn_timeout;
      attempt (tries + 1)
    end
  in
  attempt 0

(* A connection queued before the shutdown is never handed out: the
   acceptor's owner has gone away. *)
let accept_opt l =
  if l.shut then None
  else
    match Sim.Channel.recv l.accepts with
    | Some _ as conn when not l.shut -> conn
    | _ -> None

let accept l =
  match accept_opt l with
  | Some conn -> conn
  | None -> invalid_arg "Tcp.accept: listener shut"

(* The [None] wakes an acceptor parked on the queue; with none parked it
   only sits in the queue, and no event is scheduled. *)
let shutdown l =
  if not l.shut then begin
    l.shut <- true;
    Sim.Channel.send l.accepts None
  end

(* Put a frame on the wire: claim the next sequence number now (sender
   program order), deliver one link latency later. *)
let transmit dir ~latency frame =
  let seq = dir.tx_seq in
  dir.tx_seq <- seq + 1;
  match Sim.Engine.self () with
  | engine ->
      Sim.Engine.schedule engine ~delay:latency (fun () ->
          Sim.Channel.send dir.ch (seq, frame))
  | exception Invalid_argument _ ->
      (* Outside a run (cleanup after the simulation ended). *)
      Sim.Channel.send dir.ch (seq, frame)

(* Next frame in sequence order, buffering any that arrive early.
   [deadline] is an absolute sim time; [None] means block forever. *)
let rec next_frame dir ~deadline =
  match List.assoc_opt dir.rx_seq dir.ooo with
  | Some frame ->
      dir.ooo <- List.remove_assoc dir.rx_seq dir.ooo;
      dir.rx_seq <- dir.rx_seq + 1;
      Some frame
  | None -> (
      let arrived =
        match deadline with
        | None -> Some (Sim.Channel.recv dir.ch)
        | Some d ->
            let remaining = d -. Sim.Engine.now (Sim.Engine.self ()) in
            if remaining < 0.0 then None
            else Sim.Channel.recv_timeout dir.ch ~timeout:remaining
      in
      match arrived with
      | None -> None
      | Some (seq, frame) ->
          if seq = dir.rx_seq then begin
            dir.rx_seq <- dir.rx_seq + 1;
            Some frame
          end
          else begin
            dir.ooo <- (seq, frame) :: dir.ooo;
            next_frame dir ~deadline
          end)

let send conn ?size data =
  if conn.closed_local then invalid_arg "Tcp.send: connection closed";
  let size = Option.value size ~default:(String.length data) in
  let link = conn.link in
  (* Fault plane: a delay spike stalls the sender (head-of-line blocking
     on a congested path); 0.0 whenever no plan is armed. *)
  Sim.Engine.sleep
    (link.Netconf.per_message
    +. (float_of_int size /. link.Netconf.bandwidth)
    +. Faults.Fault.delay ());
  transmit conn.out ~latency:link.Netconf.latency (Data { data; size })

let interpret conn = function
  | Some (Data m) -> Some m
  | Some Fin ->
      conn.closed_remote <- true;
      None
  | None ->
      (* Channels never yield None without timeout; treated as close. *)
      conn.closed_remote <- true;
      None

let recv conn =
  if conn.closed_remote then None
  else interpret conn (next_frame conn.inc ~deadline:None)

let recv_timeout conn ~timeout =
  if conn.closed_remote then Some None
  else
    let deadline = Sim.Engine.now (Sim.Engine.self ()) +. timeout in
    match next_frame conn.inc ~deadline:(Some deadline) with
    | None -> None
    | Some frame -> Some (interpret conn (Some frame))

let close conn =
  if not conn.closed_local then begin
    conn.closed_local <- true;
    transmit conn.out ~latency:conn.link.Netconf.latency Fin
  end

let is_closed conn = conn.closed_local || conn.closed_remote
