type t = {
  capacity : int;
  mutable avail : int;
  waiters : (unit -> unit) Queue.t;
  (* Happens-before edge carrier: release publishes, a successful
     acquire observes (no-op unless the schedule sanitizer is armed). *)
  hb : Hb.sync;
  (* Deadlock-sanitizer bookkeeping, maintained only when the engine's
     detector is armed: [rname] is assigned on first wait, [holders]
     tracks the pids currently owning permits so the wait-for graph can
     find lock cycles. *)
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

let rec remove_once x = function
  | [] -> []
  | y :: rest -> if x = y then rest else y :: remove_once x rest

let note_acquire t =
  match Engine.self_opt () with
  | Some e when Engine.deadlock_armed e ->
      t.holders <- Engine.current_pid e :: t.holders
  | _ -> ()

let note_release t =
  match Engine.self_opt () with
  | Some e when Engine.deadlock_armed e ->
      t.holders <- remove_once (Engine.current_pid e) t.holders
  | _ -> ()

let try_acquire t =
  if t.avail > 0 then begin
    t.avail <- t.avail - 1;
    Hb.observe t.hb;
    note_acquire t;
    true
  end
  else false

let acquire t =
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
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception exn ->
      release t;
      raise exn
