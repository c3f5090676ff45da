(** The Linux-side shim process (§6, FaaS Platform Integration).

    The shim reads requests from the platform's message bus and relays
    them to the SEUSS OS VM over a single TCP connection — an extra
    network hop that adds ~8 ms to round trips and caps the UC creation
    rate at ~128/s (Table 3), both reproduced here by serializing each
    request and each response transfer on the connection for
    {!Cost.shim_per_message}. *)

type t

val create : Osenv.t -> Node.t -> t

val invoke :
  t -> Node.fn -> args:string -> (string, Node.invoke_error) result * Node.path
(** Relay one invocation: request transfer (serialized), node
    processing (parallel), response transfer (serialized). *)

val deploy_idle : t -> Unikernel.Image.runtime -> bool
(** Relay a Table 3 instance-creation request. *)
