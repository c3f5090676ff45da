type span = {
  id : int;
  parent : int option;
  pid : int;
  name : string;
  depth : int;
  t_start : float;
  t_end : float;
}

type t = {
  engine : Engine.t;
  mutable rev_spans : span list;
  mutable next_id : int;
  mutable active : bool;
}

(* Per-process view of one trace: the shared span sink plus this
   process's own open-span stack. The parent link and depth a process
   starts from are captured at spawn time (see [fork]), which is what
   makes cross-process spans causally connected. *)
type ctx = {
  tr : t;
  mutable stack : int list;  (* open span ids, innermost first *)
  inherit_parent : int option;
  inherit_depth : int;
}

(* seussheat: cold — the option is retained as the child's inherited parent link *)
let parent_of c =
  match c.stack with s :: _ -> Some s | [] -> c.inherit_parent

let depth_of c = c.inherit_depth + List.length c.stack

(* The spawn fork: a child gets a fresh stack over the same sink, with
   the spawner's innermost open span as its inherited parent; a stopped
   context passes through as is. *)
let fork _ parent =
  match parent with
  | Some c when c.tr.active ->
      (* seussheat: cold — the forked context is the product: one per spawn, retained by the child *)
      Some
        {
          tr = c.tr;
          stack = [];
          inherit_parent = parent_of c;
          inherit_depth = depth_of c;
        }
  | other -> other

let key : ctx Engine.key = Engine.new_key ~fork ()

let current () =
  match Engine.self_opt () with
  | None -> None
  | Some engine -> (
      match Engine.get engine key with
      | Some c as cur when c.tr.active -> cur
      | _ -> None)

let start_ctx engine =
  let tr = { engine; rev_spans = []; next_id = 0; active = true } in
  Engine.set engine key
    (Some { tr; stack = []; inherit_parent = None; inherit_depth = 0 });
  tr

let sorted_spans t =
  (* Spans are recorded at exit; present them in start order. Ids are
     allocated at entry, so they break same-instant same-depth ties
     deterministically. *)
  List.sort
    (fun a b ->
      match compare a.t_start b.t_start with
      | 0 -> (
          match compare a.depth b.depth with 0 -> compare a.id b.id | c -> c)
      | c -> c)
    (List.rev t.rev_spans)

let stop_ctx t =
  t.active <- false;
  (match Engine.self_opt () with
  | Some engine -> (
      match Engine.get engine key with
      (* seusslint: allow physical-eq — only this exact context may uninstall itself *)
      | Some c when c.tr == t -> Engine.set engine key None
      | _ -> ())
  | None -> ());
  sorted_spans t

let fresh_id tr =
  tr.next_id <- tr.next_id + 1;
  tr.next_id

let record tr ~id ~parent ~pid ~name ~depth ~t_start =
  let t_end = Engine.now tr.engine in
  tr.rev_spans <- { id; parent; pid; name; depth; t_start; t_end } :: tr.rev_spans

let span name f =
  match current () with
  | None -> f ()
  | Some c -> (
      let tr = c.tr in
      let id = fresh_id tr in
      let parent = parent_of c in
      let depth = depth_of c in
      let pid = Engine.current_pid tr.engine in
      let t_start = Engine.now tr.engine in
      c.stack <- id :: c.stack;
      (* Remove by id rather than popping the head, so a mis-nested
         close can never leave this span open forever. *)
      let close () = c.stack <- List.filter (fun s -> s <> id) c.stack in
      match f () with
      | v ->
          close ();
          record tr ~id ~parent ~pid ~name ~depth ~t_start;
          v
      | exception exn ->
          (* Exception safety: close the span (so siblings recorded
             after the handler see the right parent/depth) and record it
             flagged, then re-raise. *)
          close ();
          record tr ~id ~parent ~pid ~name:(name ^ " [failed]") ~depth ~t_start;
          raise exn)

let mark name =
  match current () with
  | None -> ()
  | Some c ->
      let tr = c.tr in
      let id = fresh_id tr in
      let now = Engine.now tr.engine in
      tr.rev_spans <-
        {
          id;
          parent = parent_of c;
          pid = Engine.current_pid tr.engine;
          name;
          depth = depth_of c;
          t_start = now;
          t_end = now;
        }
        :: tr.rev_spans

let render spans =
  match spans with
  | [] -> "(no spans)\n"
  | first :: _ ->
      let t0 =
        List.fold_left (fun acc s -> Float.min acc s.t_start) first.t_start spans
      in
      let buf = Buffer.create 512 in
      Buffer.add_string buf
        (Printf.sprintf "%10s %10s %10s  operation\n" "start" "end" "dur");
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "%10.3f %10.3f %10.3f  %s%s\n"
               ((s.t_start -. t0) *. 1e3)
               ((s.t_end -. t0) *. 1e3)
               ((s.t_end -. s.t_start) *. 1e3)
               (String.make (2 * s.depth) ' ')
               s.name))
        spans;
      Buffer.add_string buf "(times in ms)\n";
      Buffer.contents buf
