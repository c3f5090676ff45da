type hooks = { alloc : int -> unit; work : float -> unit; max_ops : int }

let default_hooks =
  { alloc = (fun _ -> ()); work = (fun _ -> ()); max_ops = 100_000_000 }

let seconds_per_op = 2e-8

exception Runtime_error of string
exception Ops_exhausted

(* Non-local control flow inside function bodies. *)
exception Return_exc of Value.t
exception Break_exc
exception Continue_exc

type ctx = {
  hooks : hooks;
  mutable ops : int;
  mutable unbilled : int;
  mutable depth : int;  (** closure calls in progress *)
}

(* Each nested call costs host stack, so unbounded recursion must fail
   as a guest error long before the step budget runs out. Far above any
   shipped function, none of which recurses. *)
let max_call_depth = 10_000

(* CPU time is reported in batches to keep simulated-event counts sane on
   busy loops. *)
let bill_batch = 4096

let step ctx =
  ctx.ops <- ctx.ops + 1;
  ctx.unbilled <- ctx.unbilled + 1;
  if ctx.ops > ctx.hooks.max_ops then raise Ops_exhausted;
  if ctx.unbilled >= bill_batch then begin
    ctx.hooks.work (float_of_int ctx.unbilled *. seconds_per_op);
    ctx.unbilled <- 0
  end

let flush ctx =
  if ctx.unbilled > 0 then begin
    ctx.hooks.work (float_of_int ctx.unbilled *. seconds_per_op);
    ctx.unbilled <- 0
  end

let note_alloc ctx v =
  let bytes = Value.heap_bytes v in
  if bytes > 0 then ctx.hooks.alloc bytes

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let as_num what = function
  | Value.Num n -> n
  | v -> error "%s: expected number, got %s" what (Value.type_name v)

let binop op a b =
  let open Value in
  match (op, a, b) with
  | Ast.Add, Num x, Num y -> Num (x +. y)
  | Ast.Add, Str x, Str y -> Str (x ^ y)
  | Ast.Add, Str x, y -> Str (x ^ Value.to_string y)
  | Ast.Add, x, Str y -> Str (Value.to_string x ^ y)
  | Ast.Sub, Num x, Num y -> Num (x -. y)
  | Ast.Mul, Num x, Num y -> Num (x *. y)
  | Ast.Div, Num x, Num y ->
      if y = 0.0 then error "division by zero" else Num (x /. y)
  | Ast.Mod, Num x, Num y ->
      if y = 0.0 then error "modulo by zero" else Num (Float.rem x y)
  | Ast.Eq, x, y -> Bool (Value.equal x y)
  | Ast.Neq, x, y -> Bool (not (Value.equal x y))
  | Ast.Lt, Num x, Num y -> Bool (x < y)
  | Ast.Le, Num x, Num y -> Bool (x <= y)
  | Ast.Gt, Num x, Num y -> Bool (x > y)
  | Ast.Ge, Num x, Num y -> Bool (x >= y)
  | Ast.Lt, Str x, Str y -> Bool (x < y)
  | Ast.Le, Str x, Str y -> Bool (x <= y)
  | Ast.Gt, Str x, Str y -> Bool (x > y)
  | Ast.Ge, Str x, Str y -> Bool (x >= y)
  | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), x, y ->
      error "arithmetic on %s and %s" (Value.type_name x) (Value.type_name y)
  | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), x, y ->
      error "comparison of %s and %s" (Value.type_name x) (Value.type_name y)

let rec eval ctx env (e : Ast.expr) : Value.t =
  step ctx;
  match e with
  | Ast.Num n -> Value.Num n
  | Ast.Str s -> Value.Str s
  | Ast.Bool b -> Value.Bool b
  | Ast.Null -> Value.Null
  | Ast.Var name -> (
      match Value.lookup env name with
      | Some v -> v
      | None -> error "unbound variable '%s'" name)
  | Ast.Array es ->
      let v = Value.arr_of_list (List.map (eval ctx env) es) in
      note_alloc ctx v;
      v
  | Ast.Object fields ->
      let v =
        Value.obj_of_list (List.map (fun (k, e) -> (k, eval ctx env e)) fields)
      in
      note_alloc ctx v;
      v
  | Ast.Index (a, i) -> (
      (* Explicit left-to-right order (tuples evaluate right-to-left). *)
      let va = eval ctx env a in
      let vi = eval ctx env i in
      match (va, vi) with
      | Value.Arr arr, Value.Num n ->
          let idx = int_of_float n in
          if idx < 0 || idx >= arr.Value.len then
            error "array index %d out of bounds (length %d)" idx arr.Value.len
          else arr.Value.items.(idx)
      | Value.Obj h, Value.Str key ->
          Option.value (Hashtbl.find_opt h key) ~default:Value.Null
      | Value.Str s, Value.Num n ->
          let idx = int_of_float n in
          if idx < 0 || idx >= String.length s then error "string index out of bounds"
          else Value.Str (String.make 1 s.[idx])
      | v, _ -> error "cannot index %s" (Value.type_name v))
  | Ast.Field (e, name) -> (
      match eval ctx env e with
      | Value.Obj h -> Option.value (Hashtbl.find_opt h name) ~default:Value.Null
      | Value.Arr a when name = "length" -> Value.Num (float_of_int a.Value.len)
      | Value.Str s when name = "length" ->
          Value.Num (float_of_int (String.length s))
      | v -> error "cannot access field '%s' of %s" name (Value.type_name v))
  | Ast.Call (f, args) ->
      let fv = eval ctx env f in
      let argv = List.map (eval ctx env) args in
      apply ctx fv argv
  | Ast.Unop (Ast.Neg, e) -> Value.Num (-.as_num "unary -" (eval ctx env e))
  | Ast.Unop (Ast.Not, e) -> Value.Bool (not (Value.truthy (eval ctx env e)))
  | Ast.Binop (op, a, b) ->
      let va = eval ctx env a in
      let vb = eval ctx env b in
      let v = binop op va vb in
      note_alloc ctx v;
      v
  | Ast.And (a, b) ->
      if Value.truthy (eval ctx env a) then eval ctx env b else Value.Bool false
  | Ast.Or (a, b) ->
      let va = eval ctx env a in
      if Value.truthy va then va else eval ctx env b
  | Ast.Ternary (c, a, b) ->
      if Value.truthy (eval ctx env c) then eval ctx env a else eval ctx env b
  | Ast.Lambda (params, body) ->
      let v = Value.Closure { Value.params; body; env } in
      note_alloc ctx v;
      v

and apply ctx fv argv =
  match fv with
  | Value.Builtin (_, f) -> f argv
  | Value.Closure { Value.params; body; env } ->
      if List.length params <> List.length argv then
        error "arity mismatch: expected %d arguments, got %d"
          (List.length params) (List.length argv);
      if ctx.depth >= max_call_depth then
        error "maximum call depth %d exceeded" max_call_depth;
      let frame = Value.new_env ~parent:env () in
      ctx.hooks.alloc (48 + (16 * List.length params));
      List.iter2 (Value.define frame) params argv;
      let depth = ctx.depth in
      ctx.depth <- depth + 1;
      (* Restored on every exit: break/continue may unwind a call into
         the caller's loop. *)
      (match exec_block ctx frame body with
      | () ->
          ctx.depth <- depth;
          Value.Null
      | exception Return_exc v ->
          ctx.depth <- depth;
          v
      | exception e ->
          ctx.depth <- depth;
          raise e)
  | v -> error "cannot call %s" (Value.type_name v)

and exec_stmt ctx env (s : Ast.stmt) =
  step ctx;
  match s with
  | Ast.Expr e -> ignore (eval ctx env e)
  | Ast.Let (name, e) ->
      let v = eval ctx env e in
      ctx.hooks.alloc 32;
      Value.define env name v
  | Ast.Assign (Ast.Lvar name, e) ->
      let v = eval ctx env e in
      if not (Value.assign env name v) then error "assignment to unbound '%s'" name
  | Ast.Assign (Ast.Lindex (a, i), e) -> (
      let va = eval ctx env a in
      let vi = eval ctx env i in
      match (va, vi) with
      | Value.Arr arr, Value.Num n ->
          let idx = int_of_float n in
          let v = eval ctx env e in
          if idx = arr.Value.len then begin
            Value.arr_push arr v;
            ctx.hooks.alloc 16
          end
          else if idx < 0 || idx > arr.Value.len then
            error "array store index %d out of bounds" idx
          else arr.Value.items.(idx) <- v
      | Value.Obj h, Value.Str key ->
          let v = eval ctx env e in
          if not (Hashtbl.mem h key) then ctx.hooks.alloc 48;
          Hashtbl.replace h key v
      | v, _ -> error "cannot index-assign %s" (Value.type_name v))
  | Ast.Assign (Ast.Lfield (obj, name), e) -> (
      match eval ctx env obj with
      | Value.Obj h ->
          let v = eval ctx env e in
          if not (Hashtbl.mem h name) then ctx.hooks.alloc 48;
          Hashtbl.replace h name v
      | v -> error "cannot set field of %s" (Value.type_name v))
  | Ast.If (c, then_, else_) ->
      if Value.truthy (eval ctx env c) then exec_scoped ctx env then_
      else exec_scoped ctx env else_
  | Ast.While (c, body) -> (
      try
        while Value.truthy (eval ctx env c) do
          try exec_scoped ctx env body with Continue_exc -> ()
        done
      with Break_exc -> ())
  | Ast.Return None -> raise (Return_exc Value.Null)
  | Ast.Return (Some e) -> raise (Return_exc (eval ctx env e))
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc

and exec_scoped ctx env block =
  if block = [] then ()
  else begin
    let scope = Value.new_env ~parent:env () in
    exec_block ctx scope block
  end

and exec_block ctx env block = List.iter (exec_stmt ctx env) block

let with_ctx hooks f =
  let ctx = { hooks; ops = 0; unbilled = 0; depth = 0 } in
  match f ctx with
  | v ->
      flush ctx;
      v
  | exception exn ->
      flush ctx;
      raise exn

let exec_program hooks ~env program =
  with_ctx hooks (fun ctx ->
      try exec_block ctx env program
      with Return_exc _ -> error "return outside function")

let call hooks f args = with_ctx hooks (fun ctx -> apply ctx f args)

let eval_expr hooks ~env e = with_ctx hooks (fun ctx -> eval ctx env e)
