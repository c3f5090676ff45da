type request = { path : string; body : string; body_size : int }

type response = { status : int; body : string; body_size : int }

let ok body = { status = 200; body; body_size = String.length body }

(* Wire framing: a one-line header then the body, carried in a single
   Tcp message whose modeled [size] includes the body size. *)

let encode_request r = Printf.sprintf "REQ %s\n%s" r.path r.body

let encode_response r = Printf.sprintf "RES %d\n%s" r.status r.body

let split_header s =
  match String.index_opt s '\n' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let decode_request m =
  let header, body = split_header m.Tcp.data in
  let path =
    if String.length header > 4 then String.sub header 4 (String.length header - 4)
    else ""
  in
  { path; body; body_size = m.Tcp.size }

let decode_response m =
  let header, body = split_header m.Tcp.data in
  let status =
    match String.split_on_char ' ' header with
    | [ "RES"; code ] -> ( match int_of_string_opt code with Some c -> c | None -> 500)
    | _ -> 500
  in
  { status; body; body_size = m.Tcp.size }

let request ~conn ?timeout ~path body =
  let wire = encode_request { path; body; body_size = 0 } in
  let size = String.length body + String.length path + 64 in
  Tcp.send conn ~size wire;
  let reply =
    match timeout with
    | None -> Some (Tcp.recv conn)
    | Some timeout -> Tcp.recv_timeout conn ~timeout
  in
  match reply with
  | None -> Error `Timeout
  | Some None -> Error `Closed
  | Some (Some m) -> Ok (decode_response m)

let serve ~listener handler =
  let engine = Sim.Engine.self () in
  (* The accept loop parks forever once traffic stops — a daemon by
     design, not a stranded waiter. *)
  Sim.Engine.spawn engine ~name:"http-accept" ~daemon:true (fun () ->
      let rec accept_loop () =
        let conn = Tcp.accept listener in
        Sim.Engine.spawn engine ~name:"http-conn" (fun () ->
            let rec serve_loop () =
              match Tcp.recv conn with
              | None -> ()
              | Some m ->
                  let resp = handler (decode_request m) in
                  let size = resp.body_size + 64 in
                  if not (Tcp.is_closed conn) then begin
                    Tcp.send conn ~size (encode_response resp);
                    serve_loop ()
                  end
            in
            serve_loop ());
        accept_loop ()
      in
      accept_loop ())

let get ~link ?admit ?timeout listener ~path =
  match Tcp.connect ?admit ~link listener with
  | None -> Error `Refused
  | Some conn -> (
      let result = request ~conn ?timeout ~path "" in
      Tcp.close conn;
      match result with
      | Ok r -> Ok r
      | Error `Timeout -> Error `Timeout
      | Error `Closed -> Error `Closed)
