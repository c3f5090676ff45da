(* seussheat — the hot-path allocation/boxing pass.

   This pass asks "does the per-event path allocate?". It seeds a reach
   over the call graph ({!Graph}) with the registered hot roots
   ({!Hotroots.registry} — the engine dispatch loop and queue ops, the
   observability emit path and breakdown fold, counter bumps, trace
   forks) plus any binding marked
   (* seussheat: hot — <reason> *), and marks everything reachable as
   hot. Only a binding with its own parameter chain re-executes its body
   per reference, so hotness does not propagate into values. Inside hot
   bindings it flags the allocation classes that dominate the engine's
   words-per-event budget:

   - heat-closure: fun/function outside the binding's own leading
     parameter chain — a closure allocated per execution;
   - heat-alloc: tuple/record/array/ref/lazy construction,
     argument-carrying constructors and variants, and calls to
     known-allocating stdlib functions (List.map, Array.append,
     Hashtbl.create, boxed Int64 arithmetic, ...);
   - heat-string: string building — ^, String.concat/make/sub,
     Printf/Format, string_of_*;
   - heat-float-box: a float-arithmetic result stored into a record
     field, which boxes two words unless the record is all-float
     (fields declared only in all-float records are exempt);
   - heat-poly-cmp: compare/min/max/Hashtbl.hash, and =/<> against a
     structured operand — representation-walking C calls;
   - heat-partial-apply: applying a tree-defined function to fewer
     positional arguments than its definition takes — a closure per
     call. Skipped when the callee's arity is unclear (labels,
     non-fun bodies) or its name resolves ambiguously.

   Each violation carries the root-to-function chain that makes the
   site hot, so the report reads as a proof obligation: break the chain
   or fix the site. A registered root whose file is scanned but no
   longer defines it, or is missing from a scanned directory, is
   reported as stale-hot-root.

   Suppression is the pass's own marker with two verbs:

   - (* seussheat: cold — <reason> *) covering a top-level binding's
     [let] line prunes the binding from the hot set entirely (its body
     and callees stay unanalyzed); covering any other line silences
     every site inside expressions that *start* on a covered line,
     whole-subtree, so one marker above a multi-line record silences
     the record and its fields.
   - (* seussheat: hot — <reason> *) covering a [let] line registers an
     extra hot root, which is how fixtures and out-of-tree code seed
     the analysis without editing {!Hotroots}. *)

let rules =
  Rules.
    [ Heat_closure; Heat_alloc; Heat_string; Heat_float_box; Heat_poly_cmp;
      Heat_partial ]

(* {1 Rule tables} *)

(* Known-allocating stdlib calls, by resolution suffix. Boxed Int64
   arithmetic is here too: every operation returns a fresh box. *)
let alloc_fns =
  [
    "ref"; "Array.make"; "Array.init"; "Array.copy"; "Array.append";
    "Array.sub"; "Array.concat"; "Array.of_list"; "Array.to_list";
    "Array.of_seq"; "Array.map"; "Array.mapi"; "Bytes.create"; "Bytes.make";
    "Bytes.copy"; "Bytes.sub"; "Buffer.create"; "Buffer.contents";
    "List.map"; "List.mapi"; "List.rev_map"; "List.filter";
    "List.filter_map"; "List.rev"; "List.append"; "List.concat";
    "List.concat_map"; "List.flatten"; "List.init"; "List.sort";
    "List.sort_uniq"; "List.stable_sort"; "List.fast_sort"; "List.split";
    "List.combine"; "List.of_seq"; "Hashtbl.create"; "Hashtbl.copy";
    "Queue.create"; "Stack.create"; "@"; "Int64.add"; "Int64.sub";
    "Int64.mul"; "Int64.div"; "Int64.rem"; "Int64.neg"; "Int64.logand";
    "Int64.logor"; "Int64.logxor"; "Int64.lognot"; "Int64.shift_left";
    "Int64.shift_right"; "Int64.shift_right_logical"; "Int64.of_int";
    "Int64.of_float";
  ]

let string_fns =
  [
    "^"; "String.concat"; "String.make"; "String.sub"; "String.init";
    "String.map"; "String.cat"; "String.trim"; "String.escaped";
    "String.uppercase_ascii"; "String.lowercase_ascii"; "string_of_int";
    "string_of_float"; "string_of_bool"; "Int.to_string"; "Float.to_string";
    "Bool.to_string"; "Int64.to_string"; "Printf.sprintf"; "Printf.printf";
    "Printf.eprintf"; "Printf.fprintf"; "Printf.ksprintf"; "Printf.bprintf";
    "Format.sprintf"; "Format.printf"; "Format.eprintf"; "Format.fprintf";
    "Format.asprintf";
  ]

(* Guaranteed-polymorphic comparison entry points. (=)/(<>) are handled
   separately: they are flagged only against structured operands, since
   int/char comparisons specialize. *)
let poly_fns = [ "compare"; "Stdlib.compare"; "min"; "max"; "Hashtbl.hash" ]

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

(* {1 The transfer function: what one binding allocates} *)

type site = {
  st_rule : Rules.id;
  st_line : int;
  st_col : int;
  st_what : string;
}

type tstate = {
  mutable cur : Graph.node;
  flat : string -> bool;  (* field of an all-float record *)
  colds : Marker.t list;  (* the file's cold markers *)
  mutable supp : Marker.t option;  (* innermost covering cold marker *)
  sites : site list array;  (* per node, unsilenced *)
  silenced : Marker.t list array;  (* per node, the markers silencing a site *)
}

let record_site st rule (loc : Location.t) what =
  let p = loc.loc_start in
  let id = st.cur.id in
  match st.supp with
  | Some m -> st.silenced.(id) <- m :: st.silenced.(id)
  | None ->
      st.sites.(id) <-
        { st_rule = rule; st_line = p.pos_lnum; st_col = p.pos_cnum - p.pos_bol;
          st_what = what }
        :: st.sites.(id)

(* Structural glue through which a cold marker must not leak: a marker
   above [let x = ... in body] is meant for the definition, not for
   everything sequenced after it. *)
let is_glue (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_let _ | Pexp_sequence _ | Pexp_ifthenelse _ | Pexp_match _
  | Pexp_try _ | Pexp_open _ | Pexp_letmodule _ | Pexp_letexception _ ->
      true
  | _ -> false

(* An operand whose =/<> comparison cannot have specialized away the
   representation walk: structured literals and payload carriers. *)
let structured_operand (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) | Pexp_variant (_, Some _) -> true
  | Pexp_constant (Pconst_string _ | Pconst_float _) -> true
  | _ -> false

(* Field names that every declaring record in the tree stores flat: a
   record whose fields are all [float] is one unboxed float block, so a
   float-arithmetic store into it allocates nothing. Resolution is by
   name, so a name also declared in any mixed record (or inline
   constructor record) stays flagged. *)
let flat_float_fields (g : Graph.t) =
  let flat = Hashtbl.create 256 in
  let is_float (ld : Parsetree.label_declaration) =
    match ld.pld_type.ptyp_desc with
    | Ptyp_constr ({ txt = Lident "float"; _ }, []) -> true
    | _ -> false
  in
  let record lds =
    let all = List.for_all is_float lds in
    List.iter
      (fun (ld : Parsetree.label_declaration) ->
        let name = ld.pld_name.txt in
        let seen = Option.value ~default:true (Hashtbl.find_opt flat name) in
        Hashtbl.replace flat name (all && seen))
      lds
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      type_kind =
        (fun sub k ->
          (match k with Ptype_record lds -> record lds | _ -> ());
          default_iterator.type_kind sub k);
      constructor_declaration =
        (fun sub cd ->
          (match cd.pcd_args with Pcstr_record lds -> record lds | _ -> ());
          default_iterator.constructor_declaration sub cd);
    }
  in
  List.iter
    (fun ((src : Source.t), _) ->
      match src.ast with Ok str -> it.structure it str | Error _ -> ())
    g.files;
  fun name -> Option.value ~default:false (Hashtbl.find_opt flat name)

let float_op_apply (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Longident.flatten txt with
      | [ op ] -> List.mem op float_ops
      | _ -> false)
  | _ -> false

let poly sfx = Printf.sprintf "polymorphic %s walks the representation" sfx

let iterator st =
  let open Ast_iterator in
  (* Classify an application by its head's resolution suffix. *)
  let apply_site sfx loc args =
    if List.mem sfx string_fns then
      record_site st Rules.Heat_string loc
        (Printf.sprintf "%s builds a string" sfx)
    else if List.mem sfx alloc_fns then
      record_site st Rules.Heat_alloc loc (Printf.sprintf "%s allocates" sfx)
    else if List.mem sfx poly_fns then
      record_site st Rules.Heat_poly_cmp loc (poly sfx)
    else if String.equal sfx "=" || String.equal sfx "<>" then (
      match Graph.positional args with
      | [ a; b ] when structured_operand a || structured_operand b ->
          record_site st Rules.Heat_poly_cmp loc
            (Printf.sprintf
               "polymorphic (%s) against a structured operand walks the \
                representation"
               sfx)
      | _ -> ())
  in
  let alloc sub e what =
    record_site st Rules.Heat_alloc e.Parsetree.pexp_loc what;
    default_iterator.expr sub e
  in
  let expr sub (e : Parsetree.expression) =
    let entered =
      if Option.is_some st.supp || is_glue e then None
      else
        Marker.covering st.colds ~file:st.cur.file
          e.pexp_loc.loc_start.pos_lnum
    in
    if entered <> None then st.supp <- entered;
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        let path = Longident.flatten txt in
        let sfx = Graph.suffix2 path in
        if (not (Graph.shadowed st.cur path)) && List.mem sfx poly_fns then
          record_site st Rules.Heat_poly_cmp loc (poly sfx)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        let path = Longident.flatten txt in
        if not (Graph.shadowed st.cur path) then
          apply_site (Graph.suffix2 path) loc args;
        List.iter (fun (_, a) -> sub.expr sub a) args
    | Pexp_fun _ | Pexp_function _ ->
        record_site st Rules.Heat_closure e.pexp_loc
          "a closure is allocated here";
        default_iterator.expr sub e
    | Pexp_tuple _ -> alloc sub e "a tuple is allocated here"
    | Pexp_record _ -> alloc sub e "a record is allocated here"
    | Pexp_array _ -> alloc sub e "an array is allocated here"
    | Pexp_lazy _ -> alloc sub e "a lazy block is allocated here"
    | Pexp_construct ({ txt; _ }, Some _) ->
        alloc sub e
          (Printf.sprintf "constructor %s carries a payload block"
             (Graph.last (Longident.flatten txt)))
    | Pexp_variant (_, Some _) ->
        alloc sub e "a polymorphic variant payload is allocated here"
    | Pexp_setfield (_, { txt; _ }, rhs)
      when float_op_apply rhs && not (st.flat (Longident.last txt)) ->
        record_site st Rules.Heat_float_box e.pexp_loc
          "a float-arithmetic result is stored into a record field (boxes \
           unless the record is all-float)";
        default_iterator.expr sub e
    | _ -> default_iterator.expr sub e);
    if entered <> None then st.supp <- None
  in
  (* Peel the binding's own parameter chain: those funs are the
     definition, not per-call closures. *)
  let binding sub (vb : Parsetree.value_binding) =
    let rec peel (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_fun (_, default, pat, body) ->
          Option.iter (sub.expr sub) default;
          sub.pat sub pat;
          peel body
      | Pexp_function cases -> List.iter (sub.case sub) cases
      | _ -> sub.expr sub e
    in
    peel vb.pvb_expr
  in
  ({ default_iterator with expr }, binding)

(* {1 The pass} *)

let marker =
  {
    Marker.word = "seussheat:";
    verbs =
      [
        {
          verb = "cold";
          arg = No_arg;
          reason = true;
          unused =
            (fun _ ->
              "cold marker covers no binding and silences nothing; delete it");
        };
        {
          verb = "hot";
          arg = No_arg;
          reason = true;
          unused =
            (fun _ -> "hot marker covers no top-level binding; delete it");
        };
      ];
    malformed =
      "malformed seussheat comment; expected: cold — <reason> or hot — \
       <reason>";
  }

let check pass (prog : Pass.program) =
  let g = Lazy.force prog.graph in
  let markers, bad = Pass.markers prog pass in
  let colds = Marker.with_verb "cold" markers in
  let hots = Marker.with_verb "hot" markers in
  let n = Array.length g.nodes in
  let sites = Array.make n [] and silenced = Array.make n [] in
  let flat = flat_float_fields g in
  List.iter
    (fun ((src, nodes) as file) ->
      let colds =
        List.filter (fun m -> String.equal m.Marker.m_file src.Source.rel) colds
      in
      let st =
        { cur = List.hd nodes; flat; colds; supp = None; sites; silenced }
      in
      let it, binding = iterator st in
      Graph.walk file it ~binding ~enter:(fun n -> st.cur <- n))
    g.files;
  (* A cold/hot marker covering a binding's [let] line classifies the
     whole binding, and covering a def line is what makes it used (range
     markers are used only if they silence a hot site). *)
  let marks ms (f : Graph.node) =
    f.binding <> Graph.toplevel
    && List.fold_left
         (fun acc m ->
           if Marker.covers m ~file:f.file f.def_line then begin
             m.Marker.m_used <- true;
             true
           end
           else acc)
         false ms
  in
  let cold = Array.map (marks colds) g.nodes in
  let roots =
    List.filter
      (fun (f : Graph.node) ->
        let hot_marked = marks hots f in
        (not cold.(f.id))
        && f.binding <> Graph.toplevel
        && (hot_marked || Hotroots.mem ~file:f.file ~binding:f.binding))
      (Array.to_list g.nodes)
  in
  let parent =
    Graph.reach g roots ~follow:(fun t -> t.is_fun && not cold.(t.id))
  in
  let hot =
    List.filter
      (fun (f : Graph.node) -> parent.(f.id) >= 0)
      (Array.to_list g.nodes)
  in
  let hits =
    List.concat_map
      (fun (f : Graph.node) ->
        let chain = String.concat " -> " (Graph.chain g parent f) in
        let hit line col rule msg =
          Source.violation f.file line col (Rules.name rule) msg
        in
        (* Silenced sites in a hot binding are what make a range marker
           earn its keep. *)
        List.iter (fun m -> m.Marker.m_used <- true) silenced.(f.id);
        List.map
          (fun s ->
            hit s.st_line s.st_col s.st_rule
              (Printf.sprintf
                 "%s on a hot path (%s); restructure it or justify with (* \
                  seussheat: cold — <why> *)"
                 s.st_what chain))
          sites.(f.id)
        (* Partial applications, where the callee's syntactic arity is
           known and unambiguous. *)
        @ List.filter_map
            (fun (r : Graph.ref_) ->
              match r.args with
              | Some args
                when List.for_all (fun (l, _) -> l = Asttypes.Nolabel) args
                     && args <> []
                     && not (Graph.ambiguous g f r.path) -> (
                  let npos = List.length args in
                  match
                    List.map (fun (t : Graph.node) -> t.arity) r.targets
                  with
                  | Some a :: rest
                    when List.for_all (fun x -> x = Some a) rest && npos < a ->
                      Some
                        (hit r.line r.col Rules.Heat_partial
                           (Printf.sprintf
                              "partial application of %s (%d of %d arguments) \
                               allocates a closure on a hot path (%s); apply it \
                               fully or eta-expand"
                              (Graph.suffix2 r.path) npos a chain))
                  | _ -> None)
              | _ -> None)
            f.refs)
      hot
  in
  (* A registered root whose binding or file is gone seeds nothing:
     the hot set would shrink without a word. *)
  let stale =
    List.filter_map
      (fun (r : Hotroots.root) ->
        Option.map
          (fun why ->
            Source.violation r.hr_file 1 0 Rules.stale_root
              (Printf.sprintf
                 "hot root %s is registered in Lint.Hotroots but %s; update \
                  or delete the entry"
                 r.hr_binding why))
          (Pass.stale_entry prog ~file:r.hr_file ~binding:r.hr_binding))
      Hotroots.registry
  in
  hits @ stale @ Marker.unused marker markers @ bad
  (* Ambiguous resolution only matters where the verdict is drawn
     through it: at hot references. *)
  @ Graph.ambiguity g hot

let rec pass =
  {
    Pass.name = "heat";
    rules;
    marker;
    hint = "a seussheat: cold marker";
    check = (fun prog -> check pass prog);
  }
