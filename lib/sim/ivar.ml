type 'a t = {
  mutable value : 'a option;
  readers : Engine.Waitq.t;
  (* Happens-before edge carrier: the fill publishes, readers observe
     (no-op unless the schedule sanitizer is armed). *)
  hb : Hb.sync;
}

let create () =
  { value = None; readers = Engine.Waitq.create "ivar"; hb = Hb.make_sync () }

let try_fill t v =
  match t.value with
  | Some _ -> false
  | None ->
      Hb.signal t.hb;
      t.value <- Some v;
      Engine.Waitq.wake_all t.readers;
      true

let fill t v =
  if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

let is_full t = Option.is_some t.value

let read t =
  Engine.may_block "Ivar.read";
  if Option.is_none t.value then Engine.Waitq.park t.readers;
  match t.value with
  | Some v ->
      Hb.observe t.hb;
      v
  | None -> assert false
