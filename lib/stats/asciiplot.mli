(** ASCII scatter/line plots for regenerating the paper's figures in a
    terminal. Supports log-scaled axes (the burst figures use a log-scale
    latency axis) and multiple labelled series sharing one canvas. *)

type scale = Linear | Log

type t

val create :
  ?width:int ->
  ?height:int ->
  ?xscale:scale ->
  ?yscale:scale ->
  title:string ->
  xlabel:string ->
  ylabel:string ->
  unit ->
  t
(** Default canvas is 72x20 characters, both axes linear. *)

val add_series : t -> label:string -> mark:char -> (float * float) list -> unit

val render : t -> string
(** Renders the canvas, axis ticks and a legend. Points that fall outside
    a log-scaled axis' positive domain are dropped. *)
