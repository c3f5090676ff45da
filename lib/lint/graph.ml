(* The call graph the interprocedural passes share, built once per run.

   Each top-level binding becomes a node keyed "Module.binding" (module =
   capitalized file basename), plus one "<toplevel>" node per file for
   code outside any named binding. Every identifier a node mentions is a
   conservative call edge — referencing a function counts as calling it,
   which keeps higher-order code (callbacks handed to registrars,
   closures stored in records) inside the approximation. An unqualified
   reference to one of the binding's own leading parameters is the
   parameter, never the same-named top-level binding, and is dropped.

   Resolution is suffix-based: a reference [Sim.Semaphore.acquire]
   resolves to every definition keyed by its last two components
   ("Semaphore.acquire"), and an unqualified reference resolves within
   its own module. Two files with one basename merge under one key —
   passes analyze the whole candidate set, and [ambiguity] surfaces the
   collision instead of silently conflating modules. *)

type ref_ = {
  path : string list;
  line : int;
  col : int;
  args : (Asttypes.arg_label * Parsetree.expression) list option;
      (* Some when the reference is the head of an application *)
  mutable targets : node list;
}

and node = {
  id : int;
  key : string;
  modname : string;
  binding : string;
  file : string;
  def_line : int;
  mutable params : string list;
  mutable is_fun : bool;
  mutable arity : int option;
  mutable refs : ref_ list;
}

type t = {
  nodes : node array;
  files : (Source.t * node list) list;
  defs : (string, node list) Hashtbl.t;
  def_files : (string, string list) Hashtbl.t;
}

let toplevel = "<toplevel>"

let suffix2 path =
  match List.rev path with [] -> "" | [ x ] -> x | x :: m :: _ -> m ^ "." ^ x

let key_of ~modname path =
  match path with [ x ] -> modname ^ "." ^ x | _ -> suffix2 path

let module_of rel =
  String.capitalize_ascii Filename.(remove_extension (basename rel))

let shadowed node = function [ x ] -> List.mem x node.params | _ -> false

(* {1 AST helpers the passes share} *)

let last path = match List.rev path with [] -> "" | x :: _ -> x

let in_module node path m =
  match List.rev path with
  | _ :: q :: _ -> String.equal q m
  | [ _ ] -> String.equal node.modname m
  | [] -> false

let positional args =
  List.filter_map (function Asttypes.Nolabel, e -> Some e | _ -> None) args

let name_of (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } | Pexp_field (_, { txt; _ }) ->
      last (Longident.flatten txt)
  | _ -> ""

let rec pat_vars acc (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (q, { txt; _ }) -> pat_vars (txt :: acc) q
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_vars acc ps
  | Ppat_construct (_, Some (_, q)) | Ppat_variant (_, Some q) -> pat_vars acc q
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, q) -> pat_vars acc q) acc fields
  | Ppat_or (a, b) -> pat_vars (pat_vars acc a) b
  | Ppat_constraint (q, _) | Ppat_open (_, q) -> pat_vars acc q
  | _ -> acc

(* {1 Walking top-level bindings} *)

let binding_name (vb : Parsetree.value_binding) =
  match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> toplevel

let traverse ~top ~next ~enter
    ?(binding = fun sub vb -> sub.Ast_iterator.value_binding sub vb)
    (it : Ast_iterator.iterator) ast =
  enter top;
  let cur = ref top in
  let switch n =
    cur := n;
    enter n
  in
  let structure_item sub (item : Parsetree.structure_item) =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
        let saved = !cur in
        List.iter
          (fun vb ->
            switch (next vb);
            binding sub vb;
            switch saved)
          vbs
    | _ -> it.structure_item sub item
  in
  let it = { it with structure_item } in
  it.structure it ast

let walk (src, nodes) ~enter ?binding it =
  match (src.Source.ast, nodes) with
  | Ok ast, top :: rest ->
      let rest = ref rest in
      let next _ =
        match !rest with
        | n :: tl ->
            rest := tl;
            n
        | [] -> invalid_arg "Graph.walk: a binding the graph never saw"
      in
      traverse ~top ~next ~enter ?binding it ast
  | _ -> ()

(* {1 Building} *)

let scan_source next_id (src : Source.t) =
  let modname = module_of src.rel in
  let nodes = ref [] in
  let new_node binding def_line =
    let n =
      { id = !next_id; key = modname ^ "." ^ binding; modname; binding;
        file = src.rel; def_line; params = []; is_fun = false; arity = None;
        refs = [] }
    in
    incr next_id;
    nodes := n :: !nodes;
    n
  in
  let top = new_node toplevel 1 in
  let cur = ref top in
  let open Ast_iterator in
  let add path (loc : Location.t) args =
    if not (shadowed !cur path) then
      let p = loc.loc_start in
      !cur.refs <-
        { path; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; args;
          targets = [] }
        :: !cur.refs
  in
  let expr sub (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> add (Longident.flatten txt) loc None
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        add (Longident.flatten txt) loc (Some args);
        List.iter (fun (_, a) -> sub.expr sub a) args
    | _ -> default_iterator.expr sub e
  in
  (* The binding's own leading parameter chain: its names shadow
     top-level bindings, and its shape gives the syntactic arity (None
     when labels make it unreliable). A binding without one is a value,
     whose body runs once at module init. *)
  let binding sub (vb : Parsetree.value_binding) =
    let n = !cur in
    let rec peel k labeled (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_fun (lbl, default, pat, body) ->
          Option.iter (sub.expr sub) default;
          sub.pat sub pat;
          n.params <- pat_vars n.params pat;
          peel (k + 1) (labeled || lbl <> Asttypes.Nolabel) body
      | Pexp_function cases ->
          n.is_fun <- true;
          if not labeled then n.arity <- Some (k + 1);
          List.iter (sub.case sub) cases
      | _ ->
          if k > 0 then begin
            n.is_fun <- true;
            if not labeled then n.arity <- Some k
          end;
          sub.expr sub e
    in
    peel 0 false vb.pvb_expr
  in
  let next (vb : Parsetree.value_binding) =
    new_node (binding_name vb) vb.pvb_loc.loc_start.pos_lnum
  in
  (match src.ast with
  | Ok ast ->
      traverse ~top ~next ~enter:(fun n -> cur := n) ~binding
        { default_iterator with expr } ast
  | Error _ -> ());
  let nodes = List.rev !nodes in
  List.iter (fun n -> n.refs <- List.rev n.refs) nodes;
  (src, nodes)

let lookup tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

let find g node path = lookup g.defs (key_of ~modname:node.modname path)

let build sources =
  let next_id = ref 0 in
  let files = List.map (scan_source next_id) sources in
  let nodes = Array.of_list (List.concat_map snd files) in
  let g =
    {
      nodes;
      files;
      defs = Hashtbl.create 1024;
      def_files = Hashtbl.create 1024;
    }
  in
  Array.iter
    (fun n ->
      if n.binding <> toplevel then begin
        Hashtbl.replace g.defs n.key (lookup g.defs n.key @ [ n ]);
        let fs = lookup g.def_files n.key in
        if not (List.mem n.file fs) then
          Hashtbl.replace g.def_files n.key (fs @ [ n.file ])
      end)
    nodes;
  Array.iter
    (fun n -> List.iter (fun r -> r.targets <- find g n r.path) n.refs)
    nodes;
  g

(* {1 Analyses} *)

let fixpoint g ~init ~join ~equal =
  let s = Array.map init g.nodes in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun n ->
        let acc =
          List.fold_left
            (fun acc r ->
              List.fold_left (fun acc t -> join acc s.(t.id)) acc r.targets)
            s.(n.id) n.refs
        in
        if not (equal acc s.(n.id)) then begin
          s.(n.id) <- acc;
          changed := true
        end)
      g.nodes
  done;
  s

let reach g roots ~follow ?(stop = fun _ -> false) () =
  let parent = Array.make (Array.length g.nodes) (-1) in
  let queue = Queue.create () in
  let visit p n =
    if parent.(n.id) < 0 then begin
      parent.(n.id) <- p;
      Queue.add n queue
    end
  in
  List.iter (fun n -> visit n.id n) roots;
  let rec drain () =
    match Queue.take_opt queue with
    | None -> None
    | Some n when stop n -> Some n
    | Some n ->
        List.iter
          (fun r ->
            List.iter (fun t -> if follow t then visit n.id t) r.targets)
          n.refs;
        drain ()
  in
  (parent, drain ())

let chain g parent n =
  let rec up acc id =
    let acc = g.nodes.(id).key :: acc in
    if parent.(id) = id then acc else up acc parent.(id)
  in
  up [] n.id

let defining_files g node path =
  lookup g.def_files (key_of ~modname:node.modname path)

let ambiguous g node path = List.length (defining_files g node path) >= 2

let ambiguity g nodes =
  List.concat_map
    (fun n ->
      List.filter_map
        (fun r ->
          if ambiguous g n r.path then
            Some
              (Source.violation n.file r.line 0 Rules.ambiguous_resolve
                 (Printf.sprintf
                    "%s resolves to definitions in %s; suffix-2 resolution \
                     conflates these same-named modules — rename one or \
                     avoid the shared suffix"
                    (suffix2 r.path)
                    (String.concat " and " (defining_files g n r.path))))
          else None)
        n.refs)
    nodes
  |> List.sort_uniq Source.compare_violation
