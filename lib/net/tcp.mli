(** Point-to-point reliable byte-stream connections.

    A deliberately small TCP model: connections carry framed messages
    with costs derived from a {!Netconf.link} (handshake = 1.5 RTT,
    per-message cost = serialization + fixed overhead, delivery delayed
    by the one-way latency). Organic loss is not modeled here —
    admission failure and drop-induced timeouts live in {!Bridge}, where
    the paper observed them — but the fault plane can inject loss at two
    sites: [Net_drop] loses a SYN (consuming one retry of the budget
    below), and [Net_delay] stalls a {!send} by the plan's delay spike.
    Both are no-ops when no {!Faults.Fault.plan} is installed. *)

type msg = { data : string; size : int }
(** [size] is the modeled wire size; it may exceed [String.length data]
    (e.g. a 1 MB body carried as a short tag). *)

type conn
(** One endpoint's view of an established connection. *)

type listener

val listener : port:int -> listener

val port : listener -> int

val connect : ?admit:(unit -> bool) -> link:Netconf.link -> listener -> conn option
(** Establish a connection from within a simulation process: sleeps the
    handshake, then queues the peer endpoint on the listener's accept
    queue. [admit] (default always-true) is consulted once per SYN; on
    refusal the caller sleeps a retransmission timeout and retries, and
    after the retry budget the connect fails with [None] — the behaviour
    behind the paper's container connection timeouts. *)

val accept : listener -> conn
(** Blocks until a peer connects.
    @raise Invalid_argument if the listener is shut. *)

val accept_opt : listener -> conn option
(** [accept] that ends with the listener: [None] at once on a shut
    listener, and [None] to an acceptor parked when {!shutdown} runs. *)

val shutdown : listener -> unit
(** Idempotent. Every later {!accept_opt} returns [None], a parked
    acceptor is woken with [None], and connections still queued are
    never accepted. Costs one engine event only when an acceptor is
    parked. *)

val send : conn -> ?size:int -> string -> unit
(** Blocks the sender for serialization + overhead; the peer receives the
    message one latency later. [size] defaults to the string length.
    @raise Invalid_argument if the connection is closed. *)

val recv : conn -> msg option
(** Blocks until a message or the peer's close arrives; [None] on close. *)

val recv_timeout : conn -> timeout:float -> msg option option
(** [Some (Some m)] message, [Some None] peer closed, [None] timed out. *)

val close : conn -> unit
(** Idempotent; wakes the peer's pending [recv] with end-of-stream. *)

val is_closed : conn -> bool

val syn_timeout : float
(** Retransmission pause after a refused SYN (1 s, Linux-like initial
    SYN retry). *)

val syn_retries : int
(** Refused/dropped SYNs tolerated after the first attempt (2): a
    connect makes at most [1 + syn_retries] attempts before giving up —
    the retry budget the Figures 6-8 'x' marks and the fault-plane drop
    tests assert against. *)
