(** Facade: compile and run MiniJS programs against a host.

    This is the interpreter instance a unikernel context embeds. A
    program is expected to define a [main] entry point:

    {[
      function main(args) { return { ok: true }; }
    ]}

    Invocation arguments and results travel as MiniJS literal text
    (JSON-compatible), mirroring how OpenWhisk passes JSON through the
    invocation driver. *)

type t
(** A loaded program instance (bindings live in its global scope). *)

val load :
  ?hooks:Eval.hooks -> host:Builtins.host -> string -> (t, string) result
(** Compile source and execute its top-level, binding declarations.
    Returns [Error] on syntax or top-level runtime errors. *)

val compiled : t -> Compile.t

val clone : ?hooks:Eval.hooks -> host:Builtins.host -> t -> t
(** An isolated copy of the program instance: the environment graph is
    deep-copied ({!Value.deep_copy_env}) and builtins are rebound to the
    new [host]/[hooks]. Used on deploy (give each UC its own mutable
    world). *)

val freeze : t -> t
(** An isolated copy to keep as a deploy template ({!clone} it to run
    it): like {!clone}, but it keeps nothing of [t]'s host or hooks —
    its builtins are one null-host set shared by every template, its
    hooks {!Eval.default_hooks}. A template therefore holds no closure
    over the instance it was frozen from. Used on snapshot capture. *)

val call : t -> fname:string -> Value.t list -> (Value.t, string) result
(** Call a global function by name. *)

val run_main : t -> args_literal:string -> (string, string) result
(** Parse [args_literal] as a MiniJS expression, call [main], return the
    JSON-rendered result. *)

val parse_literal : t -> string -> (Value.t, string) result
(** Evaluate a literal/expression string in the program's scope.

    The instance keeps the last text it compiled here with its AST (and
    {!clone} carries it over), so a repeated text skips the compile but
    is still evaluated: compiling charges no simulated time, while the
    evaluation's steps and allocations are charged as on every call. A
    text that fails to compile is never kept. *)
