type record = { time : float; ev : Event.t }

(* The ring is two parallel arrays, so retaining an event costs one
   unboxed float and one pointer store — no per-event record. Slot
   [(head - len + i) mod capacity] holds the i-th oldest retained event;
   vacant slots hold [vacant]. *)
type t = {
  clock : unit -> float;
  times : float array;
  events : Event.t array;
  mutable head : int;  (* next write position *)
  mutable len : int;
  mutable dropped : int;
  mutable subscribers : (record -> unit) list;  (* subscription order *)
  mutable emitted : int;
}

let default_capacity = 16384

(* Never read back: only slots outside the retained window hold it. *)
let vacant = Event.Invoke_start { fn_id = "" }

let create ~clock () =
  {
    clock;
    times = Array.make default_capacity 0.0;
    events = Array.make default_capacity vacant;
    head = 0;
    len = 0;
    dropped = 0;
    subscribers = [];
    emitted = 0;
  }

(* Top-level so emitting to subscribers allocates no iterator closure. *)
let rec notify r = function
  | [] -> ()
  | f :: rest ->
      f r;
      notify r rest

let emit t ev =
  let time = t.clock () in
  let cap = Array.length t.events in
  t.times.(t.head) <- time;
  t.events.(t.head) <- ev;
  t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
  t.emitted <- t.emitted + 1;
  if t.len < cap then t.len <- t.len + 1
  else t.dropped <- t.dropped + 1;
  match t.subscribers with
  | [] -> ()
  | subscribers ->
      (* seussheat: cold — the record is built only when a subscriber is attached; the ring stores time and event unboxed *)
      notify { time; ev } subscribers

let subscribe t f =
  (* Append (subscription is rare; emission is the hot path). *)
  t.subscribers <- t.subscribers @ [ f ]

(* Oldest first. *)
let iter f t =
  let cap = Array.length t.events in
  let start = t.head - t.len + cap in
  for i = 0 to t.len - 1 do
    let slot = (start + i) mod cap in
    f { time = t.times.(slot); ev = t.events.(slot) }
  done

let records t =
  let acc = ref [] in
  iter (fun r -> acc := r :: !acc) t;
  List.rev !acc

let emitted t = t.emitted
let dropped t = t.dropped

let to_jsonl t =
  let buf = Buffer.create 4096 in
  iter
    (fun r ->
      Buffer.add_string buf (Json.to_string (Event.to_json ~time:r.time r.ev));
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let parse_jsonl text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else begin
          match Json.of_string line with
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
          | Ok json -> (
              match Event.of_json json with
              | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
              | Ok (time, ev) -> go (lineno + 1) ({ time; ev } :: acc) rest)
        end
  in
  go 1 [] lines
