type t = {
  compiled : Compile.t;
  env : Value.env;
  hooks : Eval.hooks;
  mutable literal : (string * Ast.program) option;
      (* The last literal [parse_literal] compiled, with its AST. A hot
         call passes the same argument text every time; compiling charges
         no simulated time and the AST is immutable, so reusing it
         changes nothing but host time. Compile errors are not kept. *)
}

let load ?(hooks = Eval.default_hooks) ~host source =
  match Compile.compile source with
  | Error _ as e -> e
  | Ok compiled -> (
      let globals = Value.new_env () in
      List.iter
        (fun (name, v) -> Value.define globals name v)
        (Builtins.install host);
      let env = Value.new_env ~parent:globals () in
      match Eval.exec_program hooks ~env compiled.Compile.ast with
      | () -> Ok { compiled; env; hooks; literal = None }
      | exception Eval.Runtime_error msg -> Error ("runtime error: " ^ msg)
      | exception Eval.Ops_exhausted -> Error "runtime error: step budget exhausted")

let compiled t = t.compiled

let rec builtin_named name = function
  | [] -> None
  | (n, v) :: rest ->
      if String.equal n name then Some v else builtin_named name rest

let copy ~hooks ~builtins t =
  let rebind_builtin name = builtin_named name builtins in
  {
    compiled = t.compiled;
    env = Value.deep_copy_env ~rebind_builtin t.env;
    hooks;
    literal = t.literal;
  }

let clone ?hooks ~host t =
  let hooks = Option.value hooks ~default:t.hooks in
  copy ~hooks ~builtins:(Builtins.install host) t

(* Every frozen template shares one null-host builtin set, built here
   once: [clone] rebinds a template's builtins by name and never calls
   them. *)
let frozen_builtins = Builtins.install Builtins.null_host

let freeze t = copy ~hooks:Eval.default_hooks ~builtins:frozen_builtins t

let call t ~fname args =
  match Value.lookup t.env fname with
  | None -> Error (Printf.sprintf "no function '%s'" fname)
  | Some f -> (
      match Eval.call t.hooks f args with
      | v -> Ok v
      | exception Eval.Runtime_error msg -> Error ("runtime error: " ^ msg)
      | exception Eval.Ops_exhausted -> Error "runtime error: step budget exhausted")

let eval_literal t = function
  | [ Ast.Expr e ] -> (
      match Eval.eval_expr t.hooks ~env:t.env e with
      | v -> Ok v
      | exception Eval.Runtime_error msg -> Error ("runtime error: " ^ msg)
      | exception Eval.Ops_exhausted ->
          Error "runtime error: step budget exhausted")
  | [] -> Ok Value.Null
  | _ -> Error "expected a single expression"

let parse_literal t source =
  match t.literal with
  | Some (text, ast) when String.equal text source -> eval_literal t ast
  | _ -> (
      match Compile.compile source with
      | Error _ as e -> e
      | Ok { Compile.ast; _ } ->
          t.literal <- Some (source, ast);
          eval_literal t ast)

let run_main t ~args_literal =
  match parse_literal t args_literal with
  | Error msg -> Error ("bad arguments: " ^ msg)
  | Ok args -> (
      match call t ~fname:"main" [ args ] with
      | Ok v -> Ok (Value.to_string v)
      | Error _ as e -> e)
