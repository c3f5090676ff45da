type 'a state = Empty of (unit -> unit) Queue.t | Full of 'a

type 'a t = {
  mutable state : 'a state;
  (* Happens-before edge carrier: the fill publishes, readers observe
     (no-op unless the schedule sanitizer is armed). *)
  hb : Hb.sync;
  (* Deadlock-sanitizer display name, assigned on first armed wait. *)
  mutable rname : string;
}

let create () =
  { state = Empty (Queue.create ()); hb = Hb.make_sync (); rname = "" }

let resource t e =
  if String.equal t.rname "" then t.rname <- Engine.fresh_resource e "ivar";
  t.rname

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty waiters ->
      Hb.signal t.hb;
      t.state <- Full v;
      Queue.iter (fun resume -> resume ()) waiters;
      true

let fill t v =
  if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

let is_full t = match t.state with Full _ -> true | Empty _ -> false

let peek t =
  match t.state with
  | Full v ->
      Hb.observe t.hb;
      Some v
  | Empty _ -> None

let read t =
  Engine.may_block "Ivar.read";
  match t.state with
  | Full v ->
      Hb.observe t.hb;
      v
  | Empty waiters -> (
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
              resume ())
            waiters);
      match t.state with
      | Full v ->
          Hb.observe t.hb;
          v
      | Empty _ -> assert false)

let read_timeout t ~timeout =
  Engine.may_block "Ivar.read_timeout";
  match t.state with
  | Full v ->
      Hb.observe t.hb;
      Some v
  | Empty waiters ->
      (* Race the fill against a timer through a secondary ivar so the
         blocked reader is woken exactly once; a fill that wins cancels
         the timer. *)
      let race : [ `Value | `Timeout ] t = create () in
      let engine = Engine.self () in
      let timer =
        Engine.schedule_timer engine ~delay:timeout (fun () ->
            ignore (try_fill race `Timeout))
      in
      Queue.add
        (fun () -> if try_fill race `Value then Engine.cancel engine timer)
        waiters;
      (match read race with
      | `Value -> peek t
      | `Timeout -> peek t (* a fill at exactly the deadline still counts *))
