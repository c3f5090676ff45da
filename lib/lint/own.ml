(* seussown — the interprocedural ownership/lifecycle typestate pass.

   Where {!Deadlock} asks "can this block?" and {!Heat} asks "does this
   allocate?", this pass asks "does every acquired resource reach its
   release?". Three resource classes are tracked, by name:

   - frame references: Frame.alloc / Frame.incref -> Frame.decref;
   - snapshot references: Snapshot.addref -> Snapshot.decref;
   - unikernel contexts: Uc.boot / Uc.deploy -> Uc.destroy
     (destroy-at-most-once).

   The analysis runs in two layers over the shared parse:

   1. Flow-insensitive, interprocedural (own-escape): a may-release
      summary per function and class over the shared call graph
      ({!Graph}). A direct acquire in a function whose transitive callee
      cone contains no release of that class leaks on every path —
      unless the (file, binding, class) triple is in the
      {!Sites.transfers} registry or a transfer marker covers the
      acquire line.

   2. Flow-sensitive, per-path (the typestate rules): each function
      body is walked tracking the set of resources acquired on the
      current path (bound by [let x = Uc.boot ...] or hinted by the
      argument of incref/addref), with branch arms (match / if / try /
      function) walked from a saved state and joined by must-semantics
      (intersection), arms that definitely raise excluded from the
      join:

      - own-exn-leak: raise / failwith / invalid_arg (outside a try)
        while a path-owned resource has not been released;
      - own-double-release: a second release of a (class, name) already
        released on the path;
      - own-use-after-destroy: a liveness-requiring Uc operation
        (connect, send, request, resume, capture, prefault, ...) on a
        name destroyed on the path;
      - own-unbalanced: branch arms that disagree about whether a
        resource owned before the branch is released.

      Passing an owned name as a positional argument to a callee whose
      may-release summary covers its class is an ownership transfer:
      the callee (or something it reaches) releases it, so the path
      walk drops it without marking it released.

   Each finding carries a root-to-site chain like seussheat
   ("Node.start -> Uc.boot -> failwith"), so the report reads as the
   ownership flow that breaks.

   Suppression is the pass's own marker with one verb:
   (* seussown: transfer — <reason> *). Covering an acquire line it
   declares the ownership handed off (the acquire is untracked, escape
   and path rules both silenced for it); covering a reported site line
   it silences that finding. *)

let rules =
  Rules.
    [ Own_escape; Own_exn_leak; Own_double_release; Own_use_after_destroy;
      Own_unbalanced ]

type which_arg = A_first | A_last

type op_class =
  | Op_acquire_ret of Sites.resource * string
      (* acquired by return value: hint = the binding name *)
  | Op_acquire_arg of Sites.resource * string * which_arg
      (* an extra reference on an existing resource: hint = the arg *)
  | Op_release of Sites.resource * string * which_arg
  | Op_use of string  (* a liveness-requiring Uc operation *)

(* Uc operations that read state Uc.destroy released. Uc.id / port /
   status / footprint accessors stay valid on a dead UC (the reclaimer
   logs ids after destroy) and are deliberately absent. *)
let uc_liveness =
  [
    "connect"; "send"; "request"; "resume"; "capture"; "prefault";
    "start_ws_record"; "take_ws_record"; "await_breakpoint"; "guest_state";
  ]

let res_op node path =
  let op = Graph.last path in
  let in_module = Graph.in_module node path in
  if in_module "Frame" then
    match op with
    | "alloc" -> Some (Op_acquire_ret (Sites.Frame_ref, "Frame.alloc"))
    | "incref" ->
        Some (Op_acquire_arg (Sites.Frame_ref, "Frame.incref", A_last))
    | "decref" -> Some (Op_release (Sites.Frame_ref, "Frame.decref", A_last))
    | _ -> None
  else if in_module "Snapshot" then
    match op with
    | "addref" ->
        Some (Op_acquire_arg (Sites.Snap_ref, "Snapshot.addref", A_first))
    | "decref" ->
        Some (Op_release (Sites.Snap_ref, "Snapshot.decref", A_first))
    | _ -> None
  else if in_module "Uc" then
    match op with
    | "boot" | "deploy" -> Some (Op_acquire_ret (Sites.Uc_ctx, "Uc." ^ op))
    | "destroy" -> Some (Op_release (Sites.Uc_ctx, "Uc.destroy", A_first))
    | _ when List.mem op uc_liveness -> Some (Op_use ("Uc." ^ op))
    | _ -> None
  else None

(* Definitions that ARE the release primitives: their bodies mutate
   refcount fields rather than calling a release op, so the may-release
   fixpoint seeds them by key. *)
let release_keys =
  [
    ("Frame.decref", Sites.Frame_ref);
    ("Snapshot.decref", Sites.Snap_ref);
    ("Uc.destroy", Sites.Uc_ctx);
  ]

let raise_names = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let is_raise path =
  match path with
  | [ x ] | [ "Stdlib"; x ] -> List.mem x raise_names
  | _ -> false

(* Tiny set ops over the three-element resource universe. *)
let radd r l = if List.mem r l then l else r :: l
let runion a b = List.fold_left (fun acc r -> radd r acc) a b

let req a b =
  List.length a = List.length b && List.for_all (fun r -> List.mem r b) a

let hint_of_arg which pos =
  match (which, pos) with
  | A_first, e :: _ -> Graph.name_of e
  | A_last, (_ :: _ as l) -> Graph.name_of (List.hd (List.rev l))
  | _, [] -> ""

(* {1 The per-path typestate walk} *)

(* A transfer marker covering the acquire line (now used), or the
   registry entry for the binding, hands the resource off. *)
let cleared transfers (f : Graph.node) res line =
  (match Marker.covering transfers ~file:f.file line with
  | Some m ->
      m.m_used <- true;
      true
  | None -> false)
  || Sites.transfer ~file:f.file ~binding:f.binding res <> None

type acq_info = { ai_res : Sites.resource; ai_op : string; ai_line : int }

type pstate = {
  p_graph : Graph.t;
  p_rel : Sites.resource list array;  (* may-release summary per node *)
  p_transfers : Marker.t list;
  mutable p_cur : Graph.node;
  mutable p_hint : string;  (* innermost binding/field name *)
  mutable p_owned : (string * acq_info) list;
  mutable p_released : (Sites.resource * string * int) list;
  mutable p_destroyed : (string * int) list;
  mutable p_raised : bool;
  mutable p_in_try : int;
  mutable p_hits : Source.violation list;
}

let report st loc rule message =
  st.p_hits <-
    Source.at st.p_cur.file loc (Rules.name rule) message :: st.p_hits

let track_acquire st ~res ~op ~hint ~line =
  let cleared = cleared st.p_transfers st.p_cur res line in
  if not (String.equal hint "") then begin
    (* Rebinding a name re-acquires it: the old typestate dies. *)
    st.p_released <-
      List.filter
        (fun (r, h, _) -> not (r = res && String.equal h hint))
        st.p_released;
    if res = Sites.Uc_ctx then
      st.p_destroyed <- List.remove_assoc hint st.p_destroyed;
    if not cleared then
      st.p_owned <-
        (hint, { ai_res = res; ai_op = op; ai_line = line })
        :: List.remove_assoc hint st.p_owned
  end

(* Walk each arm from the pre-branch state; join the arms that can fall
   through by must-semantics (intersection); report pre-branch-owned
   resources the joining arms disagree about. *)
let walk_arms st (loc : Location.t) arms =
  let pre_owned = st.p_owned
  and pre_rel = st.p_released
  and pre_des = st.p_destroyed
  and pre_raised = st.p_raised in
  let ends =
    List.map
      (fun walk ->
        st.p_owned <- pre_owned;
        st.p_released <- pre_rel;
        st.p_destroyed <- pre_des;
        st.p_raised <- false;
        walk ();
        (st.p_owned, st.p_released, st.p_destroyed, st.p_raised))
      arms
  in
  let joining = List.filter (fun (_, _, _, r) -> not r) ends in
  if List.length joining >= 2 then
    List.iter
      (fun (hint, ai) ->
        let owned_in (ow, _, _, _) = List.mem_assoc hint ow in
        if
          List.exists owned_in joining
          && List.exists (fun s -> not (owned_in s)) joining
        then
          report st loc Rules.Own_unbalanced
            (Printf.sprintf
               "branch arms disagree about %s (%s, line %d): one arm \
                releases it, another leaves it owned (%s -> %s); release \
                on every arm or transfer explicitly"
               hint ai.ai_op ai.ai_line st.p_cur.key ai.ai_op))
      pre_owned;
  match joining with
  | [] ->
      st.p_owned <- pre_owned;
      st.p_released <- pre_rel;
      st.p_destroyed <- pre_des;
      st.p_raised <- true
  | (ow0, rl0, ds0, _) :: rest ->
      st.p_owned <-
        List.filter
          (fun (h, _) ->
            List.for_all (fun (ow, _, _, _) -> List.mem_assoc h ow) rest)
          ow0;
      st.p_released <-
        List.filter
          (fun (r, h, _) ->
            List.for_all
              (fun (_, rl, _, _) ->
                List.exists
                  (fun (r', h', _) -> r = r' && String.equal h h')
                  rl)
              rest)
          rl0;
      st.p_destroyed <-
        List.filter
          (fun (h, _) ->
            List.for_all (fun (_, _, ds, _) -> List.mem_assoc h ds) rest)
          ds0;
      st.p_raised <- pre_raised

let path_iterator st =
  let open Ast_iterator in
  let handle_apply sub (loc : Location.t) path args =
    let line = loc.loc_start.Lexing.pos_lnum in
    let pos = Graph.positional args in
    let walk_args () = List.iter (fun (_, a) -> sub.expr sub a) args in
    match res_op st.p_cur path with
    | Some (Op_acquire_ret (res, op)) ->
        walk_args ();
        track_acquire st ~res ~op ~hint:st.p_hint ~line
    | Some (Op_acquire_arg (res, op, which)) ->
        walk_args ();
        track_acquire st ~res ~op ~hint:(hint_of_arg which pos) ~line
    | Some (Op_release (res, op, which)) ->
        walk_args ();
        let hint = hint_of_arg which pos in
        if not (String.equal hint "") then begin
          (match
             List.find_opt
               (fun (r, h, _) -> r = res && String.equal h hint)
               st.p_released
           with
          | Some (_, _, prev) ->
              report st loc Rules.Own_double_release
                (Printf.sprintf
                   "%s of %s already released at line %d (%s -> %s -> %s); \
                    the second release double-frees"
                   op hint prev st.p_cur.key op op)
          | None -> ());
          st.p_released <- (res, hint, line) :: st.p_released;
          if res = Sites.Uc_ctx && not (List.mem_assoc hint st.p_destroyed)
          then st.p_destroyed <- (hint, line) :: st.p_destroyed;
          st.p_owned <-
            List.filter
              (fun (h, ai) ->
                not (String.equal h hint && ai.ai_res = res))
              st.p_owned
        end
    | Some (Op_use op) -> (
        walk_args ();
        match pos with
        | e :: _ -> (
            let hint = Graph.name_of e in
            match List.assoc_opt hint st.p_destroyed with
            | Some dline when not (String.equal hint "") ->
                report st loc Rules.Own_use_after_destroy
                  (Printf.sprintf
                     "%s on %s destroyed at line %d (%s -> Uc.destroy -> \
                      %s); destroy already released its resources"
                     op hint dline st.p_cur.key op)
            | _ -> ())
        | [] -> ())
    | None ->
        if is_raise path then begin
          walk_args ();
          if st.p_in_try = 0 then begin
            List.iter
              (fun (hint, ai) ->
                report st loc Rules.Own_exn_leak
                  (Printf.sprintf
                     "%s fires while %s (%s, line %d) is still owned (%s \
                      -> %s -> %s); release before raising or wrap in \
                      Fun.protect"
                     (Graph.last path) hint ai.ai_op ai.ai_line st.p_cur.key
                     ai.ai_op (Graph.last path)))
              st.p_owned;
            st.p_raised <- true
          end
        end
        else begin
          (* Ownership transfer: an owned name handed to a callee whose
             may-release summary covers its class. *)
          let mr =
            List.fold_left
              (fun acc (g : Graph.node) -> runion acc st.p_rel.(g.id))
              []
              (Graph.find st.p_graph st.p_cur path)
          in
          if mr <> [] then
            List.iter
              (fun a ->
                let h = Graph.name_of a in
                if not (String.equal h "") then
                  st.p_owned <-
                    List.filter
                      (fun (h', ai) ->
                        not (String.equal h' h && List.mem ai.ai_res mr))
                      st.p_owned)
              pos;
          walk_args ()
        end
  in
  let walk_case sub (c : Parsetree.case) () =
    sub.pat sub c.pc_lhs;
    Option.iter (sub.expr sub) c.pc_guard;
    sub.expr sub c.pc_rhs
  in
  let expr sub (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        handle_apply sub loc (Longident.flatten txt) args
    | Pexp_match (scrut, cases) ->
        sub.expr sub scrut;
        walk_arms st e.pexp_loc (List.map (fun c -> walk_case sub c) cases)
    | Pexp_try (body, cases) ->
        let walk_body () =
          st.p_in_try <- st.p_in_try + 1;
          sub.expr sub body;
          st.p_in_try <- st.p_in_try - 1
        in
        walk_arms st e.pexp_loc
          (walk_body :: List.map (fun c -> walk_case sub c) cases)
    | Pexp_ifthenelse (c, t, eo) ->
        sub.expr sub c;
        let arms =
          (fun () -> sub.expr sub t)
          :: (match eo with
             | Some e2 -> [ (fun () -> sub.expr sub e2) ]
             | None -> [ (fun () -> ()) ])
        in
        walk_arms st e.pexp_loc arms
    | Pexp_function cases ->
        walk_arms st e.pexp_loc (List.map (fun c -> walk_case sub c) cases)
    | _ -> default_iterator.expr sub e
  in
  let value_binding sub (vb : Parsetree.value_binding) =
    let saved = st.p_hint in
    (match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> st.p_hint <- txt
    | _ -> ());
    default_iterator.value_binding sub vb;
    st.p_hint <- saved
  in
  { default_iterator with expr; value_binding }

(* {1 The pass} *)

let marker =
  {
    Marker.word = "seussown:";
    verbs =
      [
        {
          verb = "transfer";
          arg = No_arg;
          reason = true;
          unused =
            (fun _ ->
              "transfer marker covers no acquire and silences nothing; \
               delete it");
        };
      ];
    malformed = "malformed seussown comment; expected: transfer — <reason>";
  }

let check pass (prog : Pass.program) =
  let g = Lazy.force prog.graph in
  let transfers, bad = Pass.markers prog pass in
  let op (f : Graph.node) (r : Graph.ref_) =
    res_op f r.path
  in
  let rel =
    Graph.fixpoint g ~join:runion ~equal:req ~init:(fun f ->
        List.fold_left
          (fun acc r ->
            match op f r with
            | Some (Op_release (res, _, _)) -> radd res acc
            | _ -> acc)
          (List.filter_map
             (fun (key, res) ->
               if String.equal f.key key then Some res else None)
             release_keys)
          f.refs)
  in
  (* own-escape: direct acquires in functions whose callee cone never
     releases the class, outside the transfer registry and markers. *)
  let escapes =
    List.concat_map
      (fun (f : Graph.node) ->
        List.filter_map
          (fun (r : Graph.ref_) ->
            match (r.args, op f r) with
            | ( Some _,
                Some
                  (Op_acquire_ret (res, aop) | Op_acquire_arg (res, aop, _)) )
              when (not (cleared transfers f res r.line))
                   && not (List.mem res rel.(f.id)) ->
                Some
                  (Source.violation f.file r.line r.col
                     (Rules.name Rules.Own_escape)
                     (Printf.sprintf
                        "%s acquires a %s that no reachable path releases (%s \
                         -> %s); release it, register the transfer in \
                         Lint.Sites, or justify with (* seussown: transfer — \
                         <why> *)"
                        aop (Sites.resource_name res) f.key aop))
            | _ -> None)
          f.refs)
      (Array.to_list g.nodes)
  in
  (* The flow-sensitive typestate rules. *)
  let paths =
    List.concat_map
      (fun ((_, nodes) as file) ->
        let st =
          {
            p_graph = g;
            p_rel = rel;
            p_transfers = transfers;
            p_cur = List.hd nodes;
            p_hint = "";
            p_owned = [];
            p_released = [];
            p_destroyed = [];
            p_raised = false;
            p_in_try = 0;
            p_hits = [];
          }
        in
        Graph.walk file (path_iterator st) ~enter:(fun n ->
            st.p_cur <- n;
            st.p_owned <- [];
            st.p_released <- [];
            st.p_destroyed <- [];
            st.p_raised <- false;
            st.p_in_try <- 0);
        st.p_hits)
      g.files
  in
  let surviving = Marker.suppress transfers (escapes @ paths) in
  surviving @ Marker.unused marker transfers @ bad
  @ Graph.ambiguity g (Array.to_list g.nodes)

let rec pass =
  {
    Pass.name = "own";
    rules;
    marker;
    hint = "a seussown: transfer marker";
    check = (fun prog -> check pass prog);
  }
