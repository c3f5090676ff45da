(** The call graph of the heat pass, built once per run from the loaded
    sources (the base pass borrows {!traverse}).

    One node per top-level binding (keyed ["Module.binding"]) plus one
    ["<toplevel>"] node per file, each with the identifiers it
    references. Referencing a function counts as calling it; an
    unqualified reference to one of the binding's own leading
    parameters is the parameter and is dropped. A reference resolves by
    its last two path components, an unqualified one within its own
    module; two files with one basename merge under one key, so
    resolution returns the whole candidate set and {!ambiguity}
    surfaces the collision. *)

type ref_ = {
  path : string list;
  line : int;
  col : int;
  args : (Asttypes.arg_label * Parsetree.expression) list option;
      (** [Some] when the reference is the head of an application *)
  mutable targets : node list;  (** the definitions it resolves to *)
}

and node = {
  id : int;  (** index into [nodes] *)
  key : string;  (** ["Module.binding"] *)
  modname : string;
  binding : string;  (** the bound name, or {!toplevel} *)
  file : string;  (** repo-relative defining file *)
  def_line : int;
  mutable params : string list;  (** names bound by the parameter chain *)
  mutable is_fun : bool;
      (** the binding has a leading [fun]/[function] chain; a value's body
          runs once at module init, so referencing it is not calling it *)
  mutable arity : int option;
      (** leading positional parameter count; [None] when labels or a
          non-function body make it unreliable *)
  mutable refs : ref_ list;  (** source order *)
}

type t = {
  nodes : node array;
  files : (Source.t * node list) list;
      (** each source with its nodes, the file's toplevel node first *)
  defs : (string, node list) Hashtbl.t;
  def_files : (string, string list) Hashtbl.t;
}

val toplevel : string
(** ["<toplevel>"]: the binding name of code outside a named binding. *)

val suffix2 : string list -> string
(** Last one or two components of an identifier path, joined. *)

val shadowed : node -> string list -> bool
(** Whether the path is one of the node's own parameters. *)

val last : string list -> string
(** The last component of a path ([""] for none). *)

val positional :
  (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression list
(** The unlabelled arguments of an application. *)

val build : Source.t list -> t

val ambiguous : t -> node -> string list -> bool
(** Whether the path's key is defined in two or more files. *)

val binding_name : Parsetree.value_binding -> string
(** The bound name, or {!toplevel} for any other pattern. *)

val traverse :
  top:'n ->
  next:(Parsetree.value_binding -> 'n) ->
  enter:('n -> unit) ->
  ?binding:(Ast_iterator.iterator -> Parsetree.value_binding -> unit) ->
  Ast_iterator.iterator ->
  Parsetree.structure ->
  unit
(** Walk a structure with a pass's iterator, tracking the current
    top-level binding: [enter] is told [top] first, then [next vb] for
    each binding (nested modules included) as it is entered and the
    enclosing one again as it is left; [binding] walks one binding
    (default: the iterator's [value_binding]). *)

val walk :
  Source.t * node list ->
  enter:(node -> unit) ->
  ?binding:(Ast_iterator.iterator -> Parsetree.value_binding -> unit) ->
  Ast_iterator.iterator ->
  unit
(** {!traverse} one file of the graph, its nodes standing for its
    bindings. A source that failed to parse is skipped. *)

val reach : t -> node list -> follow:(node -> bool) -> int array
(** Breadth-first reach from the roots over reference targets that
    satisfy [follow], in reference order: the parent of every reached
    node ([-1] if unreached; a root is its own parent). *)

val chain : t -> int array -> node -> string list
(** The keys from a root down to a reached node along {!reach}'s
    parent links. *)

val ambiguity : t -> node list -> Source.violation list
(** [ambiguous-resolve] at every reference of the given nodes whose key
    is defined in two or more files, sorted and deduplicated. *)
