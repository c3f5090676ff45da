(** Minimal HTTP-shaped request/response framing over {!Tcp}.

    Both the OpenWhisk API surface and the guest invocation driver speak
    this framing; the external blocking endpoint of the burst experiment
    (a server that sleeps 250 ms before answering OK) is three lines of
    {!serve}. *)

type request = { path : string; body : string; body_size : int }

type response = { status : int; body : string; body_size : int }

val ok : string -> response
(** A 200 response whose modeled size is its body's length. *)

val request :
  conn:Tcp.conn ->
  ?timeout:float ->
  path:string ->
  string ->
  (response, [ `Timeout | `Closed ]) result
(** One round trip on an established connection. *)

val serve : listener:Tcp.listener -> (request -> response) -> unit
(** Spawn an accept loop on the current engine: one simulation process
    per connection, requests handled sequentially per connection. The
    handler runs inside the connection's process and may sleep. *)

val get :
  link:Netconf.link ->
  ?admit:(unit -> bool) ->
  ?timeout:float ->
  Tcp.listener ->
  path:string ->
  (response, [ `Timeout | `Closed | `Refused ]) result
(** Connect, perform one request, close. *)
