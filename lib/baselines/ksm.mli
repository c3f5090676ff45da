(** Kernel Samepage Merging, the retroactive alternative to SEUSS's
    proactive sharing (discussed in §5: "In contrast to KSM, page-sharing
    in SEUSS is not applied retroactively").

    A background daemon scans registered address spaces at a bounded
    rate and merges pages whose content duplicates a master copy:
    mechanically, a merged page's table entry is redirected to the
    shared master frame, read-only + copy-on-write (a later write
    un-merges it), and the private frame is released. We do not model
    page *contents*; instead each registration declares how many of its
    pages are duplicates of the master image — for freshly initialized
    interpreter processes that fraction is large, which is exactly the
    workload KSM is advertised for.

    What the model exposes (and the ablation measures) is KSM's
    structural weaknesses against snapshot stacks: merging costs CPU,
    trails instance creation by the scan latency, and the shared pages
    open the deduplication side channel the paper cites. *)

type t

val create : Seuss.Osenv.t -> t
(** A 25,000 pages/s scan rate (a generous `ksmd`), with 45% of a
    process's private pages dedupable. *)

val register : t -> Mem.Addr_space.t -> private_base_vpn:int -> private_pages:int -> unit
(** Enroll a space's private region for scanning. *)

val run_daemon : t -> stop:unit Sim.Ivar.t -> unit
(** Spawn the scanning daemon on the env's engine; it merges enrolled
    regions until [stop] is filled. Merging burns core time at the scan
    rate. *)

val scan_once : t -> int
(** Process the backlog synchronously (blocking, for tests and for
    density sweeps): returns pages merged. *)

val merged_pages : t -> int

val pending_pages : t -> int
