(* seussdead — the interprocedural blocking pass.

   Over the shared call graph ({!Graph}) one summary reaches a fixpoint
   per function: may-block, the function can reach a blocking primitive
   (Semaphore.acquire / with_permit, Channel.recv / send, Ivar.read,
   Engine.sleep / yield / suspend, and the *_timeout variants).

   One rule, block-in-handler: no may-block call reachable from an
   atomic context — a callback at one of the audited registrars in
   {!Contexts}, or a binding marked (* seussdead: atomic <reason> *).
   Lock order is checked at run time instead, where permits are taken
   (Sim.Semaphore, armed with the engine's deadlock detector).

   A {!Contexts} row whose registrar is gone from its scanned file, or
   whose file is gone from a scanned directory, is a stale-registrar
   finding.

   Suppressions use the pass's own marker so they never collide with the
   base pass: (* seussdead: allow <rule> — <reason> *). *)

let rules = Rules.[ Block_in_handler ]

let blocking_primitives =
  [
    "Semaphore.acquire"; "Semaphore.with_permit"; "Channel.recv";
    "Channel.recv_timeout"; "Channel.send"; "Ivar.read"; "Ivar.read_timeout";
    "Engine.sleep"; "Engine.yield"; "Engine.suspend";
  ]

let is_seed path = List.mem (Graph.suffix2 path) blocking_primitives

(* {1 The transfer function: the references made inside atomic
   callbacks} *)

type region = {
  rg_desc : string;
  rg_node : Graph.node;
  rg_line : int;
  mutable rg_refs : string list list;
}

type tstate = {
  mutable cur : Graph.node;
  mutable active : region list;  (* atomic regions being walked *)
  mutable regions : region list;
}

let record_ref st path =
  if not (Graph.shadowed st.cur path) then
    List.iter (fun rg -> rg.rg_refs <- path :: rg.rg_refs) st.active

let callback_arg_of spec args =
  match spec with
  | Contexts.Label l ->
      List.find_map
        (function
          | (Asttypes.Labelled l' | Asttypes.Optional l'), e
            when String.equal l l' ->
              Some e
          | _ -> None)
        args
  | Contexts.Positional n -> List.nth_opt (Graph.positional args) n

let iterator st =
  let open Ast_iterator in
  let walk_args sub args = List.iter (fun (_, a) -> sub.expr sub a) args in
  let handle_apply sub path (loc : Location.t) args =
    record_ref st path;
    match Contexts.registrar_of ~suffix:(Graph.suffix2 path) with
    | None -> walk_args sub args
    | Some r -> (
        match callback_arg_of r.arg args with
        | None -> walk_args sub args
        | Some cb ->
            let rg =
              { rg_desc = Printf.sprintf "%s (callback of %s)" r.desc r.suffix;
                rg_node = st.cur; rg_line = loc.loc_start.pos_lnum;
                rg_refs = [] }
            in
            st.regions <- rg :: st.regions;
            List.iter
              (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
                if a.pexp_loc = cb.Parsetree.pexp_loc then begin
                  st.active <- rg :: st.active;
                  sub.expr sub a;
                  st.active <- List.tl st.active
                end
                else sub.expr sub a)
              args)
  in
  let expr sub (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> record_ref st (Longident.flatten txt)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        handle_apply sub (Longident.flatten txt) loc args
    | _ -> default_iterator.expr sub e
  in
  { default_iterator with expr }

(* {1 The pass} *)

(* Shortest reference chain from [refs] (each with the node it is
   resolved from) to a blocking primitive, as the keys along the way
   followed by the primitive. *)
let find_chain g may_block refs =
  let seed_of refs = List.find_opt is_seed refs in
  match seed_of (List.map snd refs) with
  | Some path -> Some [ Graph.suffix2 path ]
  | None -> (
      let blocks (t : Graph.node) = may_block.(t.id) in
      let roots =
        List.concat_map
          (fun (n, path) -> List.filter blocks (Graph.find g n path))
          refs
      in
      let own_seed (n : Graph.node) =
        seed_of (List.map (fun r -> r.Graph.path) n.refs)
      in
      let stop n = own_seed n <> None in
      match Graph.reach g roots ~follow:blocks ~stop () with
      | parent, Some n ->
          let seed = Graph.suffix2 (Option.get (own_seed n)) in
          Some (Graph.chain g parent n @ [ seed ])
      | _, None -> None)

let marker =
  {
    Marker.word = "seussdead:";
    verbs =
      [
        {
          verb = "allow";
          arg = Rule;
          reason = true;
          unused =
            Printf.sprintf "allowance for %s suppresses nothing; delete it";
        };
        {
          verb = "atomic";
          arg = No_arg;
          reason = true;
          unused =
            (fun _ -> "atomic annotation covers no top-level binding; delete it");
        };
      ];
    malformed =
      "malformed seussdead comment; expected: allow <rule> — <reason>, or \
       atomic <reason>";
  }

let hazard =
  "an atomic callback must not suspend: inside a process it parks the \
   process mid-update, outside one it aborts the run"

let check pass (prog : Pass.program) =
  let g = Lazy.force prog.graph in
  let markers, bad = Pass.markers prog pass in
  let regions =
    List.concat_map
      (fun ((_, nodes) as file) ->
        let st = { cur = List.hd nodes; active = []; regions = [] } in
        Graph.walk file (iterator st) ~enter:(fun n -> st.cur <- n);
        st.regions)
      g.files
  in
  let hits = ref [] in
  let hit file line message =
    hits :=
      Source.violation file line 0 (Rules.name Rules.Block_in_handler) message
      :: !hits
  in
  let atomics = Marker.with_verb "atomic" markers in
  let atomic (f : Graph.node) =
    match Marker.covering atomics ~file:f.file f.def_line with
    | Some m ->
        m.m_used <- true;
        true
    | None -> false
  in
  (* Definitions whose key *is* a blocking primitive are seeds even when
     their bodies bottom out in effects the walk cannot see. *)
  let may_block =
    Graph.fixpoint g ~join:( || ) ~equal:Bool.equal ~init:(fun f ->
        List.mem f.key blocking_primitives
        || List.exists (fun r -> is_seed r.Graph.path) f.refs)
  in
  (* Registrar callbacks... *)
  List.iter
    (fun rg ->
      let refs = List.rev_map (fun p -> (rg.rg_node, p)) rg.rg_refs in
      Option.iter
        (fun chain ->
          hit rg.rg_node.file rg.rg_line
            (Printf.sprintf "%s may block: %s — %s" rg.rg_desc
               (String.concat " -> " chain) hazard))
        (find_chain g may_block refs))
    regions;
  (* ...and annotated atomic functions. *)
  Array.iter
    (fun (f : Graph.node) ->
      if atomic f && may_block.(f.id) then
        let refs = List.map (fun r -> (f, r.Graph.path)) f.refs in
        let chain =
          f.key :: Option.value ~default:[] (find_chain g may_block refs)
        in
        hit f.file f.def_line
          (Printf.sprintf "atomic function may block: %s — %s"
             (String.concat " -> " chain) hazard))
    g.nodes;
  let surviving = Marker.suppress (Marker.with_verb "allow" markers) !hits in
  (* A registrar whose binding or file is gone guards nothing: its
     callbacks would lose the check without a word. *)
  let stale =
    List.filter_map
      (fun (r : Contexts.registrar) ->
        Option.map
          (fun why ->
            Source.violation r.file 1 0 Rules.stale_registrar
              (Printf.sprintf
                 "registrar %s is listed in Lint.Contexts but %s; update or \
                  delete the entry"
                 r.suffix why))
          (Pass.stale_entry prog ~file:r.file ~binding:(Contexts.binding r)))
      Contexts.registrars
  in
  surviving @ stale @ Marker.unused marker markers @ bad
  @ Graph.ambiguity g (Array.to_list g.nodes)

let rec pass =
  {
    Pass.name = "deadlock";
    rules;
    marker;
    hint = "a seussdead: allow comment";
    check = (fun prog -> check pass prog);
  }
