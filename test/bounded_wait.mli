(** A bounded wait for the suites' simulated processes: a component that
    never finishes fails its test with a message instead of leaving
    tier-1 spinning. *)

val until : what:string -> within:float -> ?poll:float -> (unit -> bool) -> unit
(** [until ~what ~within cond], called from a simulated process, sleeps
    [poll] simulated seconds (default 0.01) at a time until [cond ()]
    holds. If it still does not hold [within] simulated seconds after the
    call, it fails the test with a message naming [what]. *)
