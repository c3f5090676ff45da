(* Fixture: a frame acquisition outside the audited site list. *)
let grab frames = Frame.alloc frames
let keep frames f = Frame.incref frames f
let drop frames f = Frame.decref frames f
let keep_leaf frames ents = Frame.incref_leaf frames ents ~pos:0
