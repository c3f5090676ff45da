type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of arr
  | Obj of (string, t) Hashtbl.t
  | Closure of closure
  | Builtin of string * (t list -> t)

and arr = { mutable items : t array; mutable len : int }

and closure = { params : string list; body : Ast.block; env : env }

and env = { vars : (string, t) Hashtbl.t; mutable parent : env option }

let arr_of_list vs =
  let items = Array.of_list vs in
  Arr { items; len = Array.length items }

let arr_items a = Array.to_list (Array.sub a.items 0 a.len)

let arr_push a v =
  if a.len = Array.length a.items then begin
    let cap = max 4 (2 * Array.length a.items) in
    let items = Array.make cap Null in
    Array.blit a.items 0 items 0 a.len;
    a.items <- items
  end;
  a.items.(a.len) <- v;
  a.len <- a.len + 1

let obj_of_list fields =
  let h = Hashtbl.create (max 4 (List.length fields)) in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) fields;
  Obj h

let truthy = function
  | Null -> false
  | Bool b -> b
  | Num n -> n <> 0.0 && not (Float.is_nan n)
  | Str s -> s <> ""
  | Arr _ | Obj _ | Closure _ | Builtin _ -> true

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> x = y
  (* Reference types compare by identity — the guest language's (==)
     semantics, like JS objects. *)
  | Arr x, Arr y -> x == y (* seusslint: allow physical-eq — guest reference identity *)
  | Obj x, Obj y -> x == y (* seusslint: allow physical-eq — guest reference identity *)
  | Closure x, Closure y -> x == y (* seusslint: allow physical-eq — guest reference identity *)
  | Builtin (_, f), Builtin (_, g) -> f == g (* seusslint: allow physical-eq — guest reference identity *)
  | _ -> false

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"
  | Closure _ | Builtin _ -> "function"

(* Results render on every invocation, so [to_string] writes into one
   buffer and keeps [Printf] off the common cases. An integer-valued
   number below 1e15 is exact in an [int], and [string_of_int] prints
   the digits [%.0f] would; only [-0.0] needs its sign put back. *)
let number_to_string n =
  if Float.is_integer n && Float.abs n < 1e15 then
    if n = 0.0 && Float.sign_bit n then "-0" else string_of_int (int_of_float n)
  else Printf.sprintf "%g" n

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num n -> Buffer.add_string buf (number_to_string n)
  | Str s -> add_quoted buf s
  | Arr a ->
      Buffer.add_char buf '[';
      for i = 0 to a.len - 1 do
        if i > 0 then Buffer.add_string buf ", ";
        render buf a.items.(i)
      done;
      Buffer.add_char buf ']'
  | Obj h ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_quoted buf k;
          Buffer.add_string buf ": ";
          render buf v)
        (Det.bindings_by String.compare h);
      Buffer.add_char buf '}'
  | Closure _ | Builtin _ -> Buffer.add_string buf "<function>"

let to_string = function
  | Num n -> number_to_string n
  | v ->
      let buf = Buffer.create 64 in
      render buf v;
      Buffer.contents buf

let heap_bytes = function
  | Null | Bool _ | Num _ -> 0
  | Str s -> 24 + String.length s
  | Arr a -> 32 + (16 * Array.length a.items)
  | Obj h -> 64 + (48 * Hashtbl.length h)
  | Closure c -> 64 + (16 * List.length c.params)
  | Builtin _ -> 0

(* Deep copy with physical-identity memoization. The memo tables must be
   seeded *before* recursing into children because environment graphs are
   cyclic (an env binds a closure whose env is that same env). Identity
   lists ([List.assq_opt], physical equality) are O(n^2) but guest
   programs are small.

   Each table is copied whole ([Hashtbl.copy], bucket layout and all)
   and its values are then replaced in place. The order in which that
   visits bindings decides only which child gets memoized first, and a
   memo keyed by identity maps every original to one copy whatever the
   order: the copied graph is the same graph. Nothing downstream can
   see the copy's bucket layout either, since everything that reads a
   table's order goes through [Det]'s sorted views. *)
type memo = {
  mutable envs : (env * env) list;
  mutable vals : (t * t) list;
  rebind : string -> t option;
}

let rec copy_value memo v =
  match v with
  | Null | Bool _ | Num _ | Str _ -> v
  | Builtin (name, _) -> (
      match memo.rebind name with Some fresh -> fresh | None -> v)
  | Arr a -> (
      match List.assq_opt v memo.vals with
      | Some copy -> copy
      | None ->
          let fresh = { items = Array.make (Array.length a.items) Null; len = a.len } in
          let copy = Arr fresh in
          memo.vals <- (v, copy) :: memo.vals;
          for i = 0 to a.len - 1 do
            fresh.items.(i) <- copy_value memo a.items.(i)
          done;
          copy)
  | Obj h -> (
      match List.assq_opt v memo.vals with
      | Some copy -> copy
      | None ->
          let fresh = Hashtbl.copy h in
          let copy = Obj fresh in
          memo.vals <- (v, copy) :: memo.vals;
          copy_bindings memo fresh;
          copy)
  | Closure c -> (
      match List.assq_opt v memo.vals with
      | Some copy -> copy
      | None ->
          let copy = Closure { c with env = copy_env_memo memo c.env } in
          memo.vals <- (v, copy) :: memo.vals;
          copy)

(* Replace every value of a freshly copied table by its copy. *)
and copy_bindings memo tbl =
  (* seusslint: allow hashtbl-order — visit order only picks which child is memoized first; the copied graph is the same in every order *)
  Hashtbl.filter_map_inplace (fun _ x -> Some (copy_value memo x)) tbl

and copy_env_memo memo env =
  match List.assq_opt env memo.envs with
  | Some copy -> copy
  | None ->
      (* Seed before touching parent or values: the graph may reach this
         env again through either. *)
      let fresh = { vars = Hashtbl.copy env.vars; parent = None } in
      memo.envs <- (env, fresh) :: memo.envs;
      (match env.parent with
      | Some p -> fresh.parent <- Some (copy_env_memo memo p)
      | None -> ());
      copy_bindings memo fresh.vars;
      fresh

let deep_copy_env ~rebind_builtin env =
  copy_env_memo { envs = []; vals = []; rebind = rebind_builtin } env

let new_env ?parent () = { vars = Hashtbl.create 8; parent }

let define env name v = Hashtbl.replace env.vars name v

let rec lookup env name =
  match Hashtbl.find_opt env.vars name with
  | Some v -> Some v
  | None -> ( match env.parent with Some p -> lookup p name | None -> None)

let rec assign env name v =
  if Hashtbl.mem env.vars name then begin
    Hashtbl.replace env.vars name v;
    true
  end
  else match env.parent with Some p -> assign p name v | None -> false
