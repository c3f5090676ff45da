(** Memory geometry shared by the whole stack.

    Mirrors the paper's testbed: 4 KiB x86-64 pages on a compute-node VM
    with 88 GB of RAM. *)

val page_size : int
(** Bytes per page (4096). *)

val entries_per_table : int
(** Entries in one page-table leaf (512, as on x86-64). *)

val pte_flag_bits : int
(** Low bits of a packed page-table entry that hold its flags, bit 0
    being the present bit; the frame id sits above them. Shared by
    [Page_table.Entry] and [Frame]'s per-leaf reference operations. *)

val default_budget_bytes : int64
(** The paper's compute-node memory: 88 GiB. *)

val bytes_of_pages : int -> int64

val mib : int -> int
(** [mib n] is [n] MiB in bytes (host [int]). *)

(** {1 Modeled hardware/kernel costs}

    Derived from Table 1: capturing the 2 MB (512-page) NOP function
    snapshot took "around 400 us", i.e. ~0.78 us per page clone. *)

val page_copy_time : float
(** Seconds to service a copy-on-write fault (trap + 4 KiB copy + remap). *)

val zero_fill_time : float
(** Seconds to service a demand-zero fault. *)
