(** Shared rendering for the reproduction reports: every experiment
    prints the paper's value next to the measured one. *)

type entry = { label : string; paper : string; measured : string }

val comparison : title:string -> note:string -> entry list -> string
(** A titled paper-vs-measured table. *)

val ms : float -> string
(** Seconds rendered as milliseconds ("7.5 ms"). *)

val mb : int64 -> string
(** Bytes rendered as MB. *)

val mb_of_pages : int -> string

val per_s : float -> string

val failed_calls : int -> string
(** The line a direct-node experiment appends for the calls that were
    not served on their expected path (see {!Harness.invoke}); [""]
    for 0, so a fault-free report is unchanged. *)

val heading : string -> string
(** Underlined section heading. *)

val write_csv : path:string -> header:string list -> string list list -> unit
(** Write rows as a CSV file (naive quoting: fields containing commas or
    quotes are double-quoted). Used by the CLI's [--csv PATH] flag,
    which writes one file per run, so figure data can be re-plotted
    with external tools. *)
