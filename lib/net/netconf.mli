(** Link parameters for the simulated fabric.

    The paper's testbed is a 10 GbE private VLAN between four machines,
    plus near-zero-cost paths inside one machine (SEUSS OS -> UC over
    the internal network). *)

type link = {
  latency : float;  (** one-way propagation + stack traversal, seconds *)
  bandwidth : float;  (** bytes per second *)
  per_message : float;  (** fixed per-message processing cost, seconds *)
}

val lan : link
(** Machine-to-machine over the 10 GbE switch (~80 us one-way). *)

val internal : link
(** SEUSS OS to a UC through the per-core network proxy (~10 us). *)

val loopback : link
(** Inside one OS instance. *)
