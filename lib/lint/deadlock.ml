(* seussdead — the interprocedural blocking/deadlock pass.

   Over the shared call graph ({!Graph}) two summaries reach a fixpoint
   per function:

   - may-block: the function can reach a blocking primitive
     (Semaphore.acquire / with_permit, Channel.recv / send, Ivar.read,
     Engine.sleep / yield / suspend, and the *_timeout variants);
   - may-acquire: the set of semaphore lock classes the function can
     reach an acquire of.

   Lock classes are declared at creation sites with
   (* seussdead: lock <class> *); acquire sites are classified by the
   name of the semaphore expression (its last field or variable
   component, e.g. [t.kernel] -> "kernel"), matched against creations in
   the same file first and tree-wide second. An acquire that names no
   class stays out of the lock rules but still seeds may-block.

   Three rules:
   - block-in-handler: no may-block call reachable from an atomic
     context — a callback at one of the audited registrars in
     {!Contexts}, or a binding marked (* seussdead: atomic <reason> *).
   - lock-order: the acquired-while-holding graph over lock classes
     (direct acquires plus the may-acquire summary of every function
     referenced while holding) must be acyclic, and every
     Semaphore.create must carry a lock annotation.
   - unreleased-acquire: a bare acquire of a classified lock whose
     enclosing function never releases that class.

   Suppressions use the pass's own marker so they never collide with the
   base pass: (* seussdead: allow <rule> — <reason> *). *)

module SSet = Set.Make (String)

let rules = Rules.[ Block_in_handler; Lock_order; Unreleased_acquire ]

let blocking_primitives =
  [
    "Semaphore.acquire"; "Semaphore.with_permit"; "Channel.recv";
    "Channel.recv_timeout"; "Channel.send"; "Ivar.read"; "Ivar.read_timeout";
    "Engine.sleep"; "Engine.yield"; "Engine.suspend";
  ]

let is_seed path = List.mem (Graph.suffix2 path) blocking_primitives

(* {1 The transfer function: what one binding acquires, releases and
   holds} *)

type region = {
  rg_desc : string;
  rg_node : Graph.node;
  rg_line : int;
  mutable rg_refs : string list list;
}

type held = {
  h_hint : string;  (* hint of the lock held at this point *)
  h_target : [ `Call of string list | `Acquire of string ];
  h_node : Graph.node;
  h_line : int;
}

type creation = { c_file : string; c_line : int; c_hint : string }

type facts = {
  acquires : (string * int) list array;
      (* classifiable acquires, bare + with_permit: (hint, line) *)
  bare : (string * int) list array;  (* bare acquires only *)
  releases : string list array;  (* release hints *)
  mutable regions : region list;
  mutable helds : held list;
  mutable creations : creation list;
}

type tstate = {
  mutable cur : Graph.node;
  mutable hint : string;  (* innermost binding/field name *)
  mutable holding : string list;  (* hints of locks held here *)
  mutable active : region list;  (* atomic regions being walked *)
}

(* [target] is reached while holding every lock held here. *)
let record_held fx st target line =
  List.iter
    (fun h ->
      if target <> `Acquire h then
        fx.helds <-
          { h_hint = h; h_target = target; h_node = st.cur; h_line = line }
          :: fx.helds)
    st.holding

let record_ref fx st path line =
  if not (Graph.shadowed st.cur path) then begin
    List.iter (fun rg -> rg.rg_refs <- path :: rg.rg_refs) st.active;
    record_held fx st (`Call path) line
  end

let record_acquire fx st hint line ~bare =
  let id = st.cur.id in
  fx.acquires.(id) <- (hint, line) :: fx.acquires.(id);
  if bare then fx.bare.(id) <- (hint, line) :: fx.bare.(id);
  record_held fx st (`Acquire hint) line

let release fx st hint =
  fx.releases.(st.cur.id) <- hint :: fx.releases.(st.cur.id)

(* Remove one occurrence, program-order approximation of release. *)
let rec remove_one x = function
  | [] -> []
  | y :: rest -> if String.equal x y then rest else y :: remove_one x rest

let sem_op node path =
  if not (Graph.in_module node path "Semaphore") then None
  else
    match Graph.last path with
    | "acquire" -> Some `Acquire
    | "with_permit" -> Some `With_permit
    | "release" -> Some `Release
    | "create" -> Some `Create
    | _ -> None

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

let iterator fx st =
  let open Ast_iterator in
  let walk_args sub args = List.iter (fun (_, a) -> sub.expr sub a) args in
  let handle_apply sub path (loc : Location.t) args =
    let line = loc.loc_start.pos_lnum in
    record_ref fx st path line;
    let first_hint () =
      match Graph.positional args with e :: _ -> Graph.name_of e | [] -> ""
    in
    match sem_op st.cur path with
    | Some `Create ->
        fx.creations <-
          { c_file = st.cur.file; c_line = line; c_hint = st.hint }
          :: fx.creations;
        walk_args sub args
    | Some `Acquire ->
        let hint = first_hint () in
        record_acquire fx st hint line ~bare:true;
        if hint <> "" then st.holding <- hint :: st.holding;
        walk_args sub args
    | Some `Release ->
        let hint = first_hint () in
        if hint <> "" then begin
          release fx st hint;
          st.holding <- remove_one hint st.holding
        end;
        walk_args sub args
    | Some `With_permit -> (
        match Graph.positional args with
        | sem :: body :: _ ->
            let hint = Graph.name_of sem in
            record_acquire fx st hint line ~bare:false;
            if hint <> "" then release fx st hint;
            sub.expr sub sem;
            let saved = st.holding in
            if hint <> "" then st.holding <- hint :: st.holding;
            sub.expr sub body;
            st.holding <- saved
        | _ -> walk_args sub args)
    | None -> (
        match Contexts.registrar_of ~suffix:(Graph.suffix2 path) with
        | Some (sfx, arg_spec, desc) -> (
            match callback_arg_of arg_spec args with
            | None -> walk_args sub args
            | Some cb ->
                let rg =
                  { rg_desc = Printf.sprintf "%s (callback of %s)" desc sfx;
                    rg_node = st.cur; rg_line = line; rg_refs = [] }
                in
                fx.regions <- rg :: fx.regions;
                List.iter
                  (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
                    if a.pexp_loc = cb.Parsetree.pexp_loc then begin
                      st.active <- rg :: st.active;
                      sub.expr sub a;
                      st.active <- List.tl st.active
                    end
                    else sub.expr sub a)
                  args)
        | None -> walk_args sub args)
  in
  let with_hint h f =
    let saved = st.hint in
    if h <> "" then st.hint <- h;
    f ();
    st.hint <- saved
  in
  let expr sub (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        record_ref fx st (Longident.flatten txt) loc.loc_start.pos_lnum
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        handle_apply sub (Longident.flatten txt) loc args
    | Pexp_record (fields, base) ->
        Option.iter (sub.expr sub) base;
        List.iter
          (fun ((lid : Longident.t Location.loc), fe) ->
            with_hint (Graph.last (Longident.flatten lid.txt)) (fun () -> sub.expr sub fe))
          fields
    | _ -> default_iterator.expr sub e
  in
  let value_binding sub (vb : Parsetree.value_binding) =
    let h =
      match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> ""
    in
    with_hint h (fun () -> default_iterator.value_binding sub vb)
  in
  { default_iterator with expr; value_binding }

(* {1 Lock classes} *)

(* Per-file and tree-wide classes of the annotated creations; two
   same-named semaphores with different classes in one file fall back to
   the tree-wide set. *)
let classifier creations =
  let perfile = Hashtbl.create 32 and global = Hashtbl.create 32 in
  List.iter
    (fun (c, cls) ->
      if c.c_hint <> "" then begin
        (match Hashtbl.find_opt perfile (c.c_file, c.c_hint) with
        | Some existing when not (String.equal existing cls) ->
            Hashtbl.remove perfile (c.c_file, c.c_hint)
        | Some _ -> ()
        | None -> Hashtbl.replace perfile (c.c_file, c.c_hint) cls);
        let prev =
          Option.value ~default:SSet.empty (Hashtbl.find_opt global c.c_hint)
        in
        Hashtbl.replace global c.c_hint (SSet.add cls prev)
      end)
    creations;
  fun ~file hint ->
    if String.equal hint "" then []
    else
      match Hashtbl.find_opt perfile (file, hint) with
      | Some c -> [ c ]
      | None -> (
          match Hashtbl.find_opt global hint with
          | Some s -> SSet.elements s
          | None -> [])

(* {1 lock-order: the acquired-while-holding graph} *)

type edge = { e_from : string; e_to : string; e_file : string; e_line : int }

let build_edges g classes_of may_acquire helds =
  let edges =
    List.concat_map
      (fun h ->
        let file = h.h_node.file in
        let tos =
          match h.h_target with
          | `Acquire hint -> classes_of ~file hint
          | `Call path ->
              List.concat_map
                (fun (t : Graph.node) -> SSet.elements may_acquire.(t.id))
                (Graph.find g h.h_node path)
        in
        List.concat_map
          (fun f ->
            List.filter_map
              (fun t ->
                if String.equal f t then None
                else
                  Some
                    { e_from = f; e_to = t; e_file = file; e_line = h.h_line })
              tos)
          (classes_of ~file h.h_hint))
      helds
  in
  (* One witness per (from, to): the first in (file, line) order. *)
  let sorted =
    List.sort
      (fun a b ->
        compare
          (a.e_from, a.e_to, a.e_file, a.e_line)
          (b.e_from, b.e_to, b.e_file, b.e_line))
      edges
  in
  List.rev
    (List.fold_left
       (fun acc e ->
         match acc with
         | prev :: _
           when String.equal prev.e_from e.e_from
                && String.equal prev.e_to e.e_to ->
             acc
         | _ -> e :: acc)
       [] sorted)

(* Shortest class path from [src] to [dst] over [edges]. *)
let class_path edges src dst =
  let visited = ref (SSet.singleton src) in
  let queue = Queue.create () in
  Queue.add (src, [ src ]) queue;
  let rec bfs () =
    match Queue.take_opt queue with
    | None -> None
    | Some (c, path) ->
        if String.equal c dst then Some (List.rev path)
        else begin
          List.iter
            (fun e ->
              if String.equal e.e_from c && not (SSet.mem e.e_to !visited)
              then begin
                visited := SSet.add e.e_to !visited;
                Queue.add (e.e_to, e.e_to :: path) queue
              end)
            edges;
          bfs ()
        end
  in
  bfs ()

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
  let delete what _ = what ^ "; delete it" in
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
          verb = "lock";
          arg = Word;
          reason = false;
          unused = delete "lock annotation names no Semaphore.create";
        };
        {
          verb = "atomic";
          arg = No_arg;
          reason = true;
          unused = delete "atomic annotation covers no top-level binding";
        };
      ];
    malformed =
      "malformed seussdead comment; expected: allow <rule> — <reason>, lock \
       <class>, or atomic <reason>";
  }

let check pass (prog : Pass.program) =
  let g = Lazy.force prog.graph in
  let markers, bad = Pass.markers prog pass in
  let n = Array.length g.nodes in
  let fx =
    {
      acquires = Array.make n [];
      bare = Array.make n [];
      releases = Array.make n [];
      regions = [];
      helds = [];
      creations = [];
    }
  in
  List.iter
    (fun ((_, nodes) as file) ->
      let st = { cur = List.hd nodes; hint = ""; holding = []; active = [] } in
      Graph.walk file (iterator fx st) ~enter:(fun n ->
          st.cur <- n;
          st.holding <- []))
    g.files;
  let hits = ref [] in
  let hit file line rule message =
    hits := Source.violation file line 0 (Rules.name rule) message :: !hits
  in
  (* Pair creations with lock markers. *)
  let locks = Marker.with_verb "lock" markers in
  let classified =
    List.filter_map
      (fun c ->
        match Marker.covering locks ~file:c.c_file c.c_line with
        | Some m ->
            m.m_used <- true;
            Some (c, m.m_arg)
        | None ->
            hit c.c_file c.c_line Rules.Lock_order
              "Semaphore.create without a lock class; annotate the create line \
               with (* seussdead: lock <class> *)";
            None)
      (List.rev fx.creations)
  in
  let classes_of = classifier classified in
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
  let may_acquire =
    Graph.fixpoint g ~join:SSet.union ~equal:SSet.equal ~init:(fun f ->
        List.fold_left
          (fun acc (hint, _) ->
            SSet.union acc (SSet.of_list (classes_of ~file:f.file hint)))
          SSet.empty fx.acquires.(f.id))
  in
  (* block-in-handler: registrar callbacks... *)
  List.iter
    (fun rg ->
      let refs = List.rev_map (fun p -> (rg.rg_node, p)) rg.rg_refs in
      Option.iter
        (fun chain ->
          hit rg.rg_node.file rg.rg_line Rules.Block_in_handler
            (Printf.sprintf
               "%s may block: %s — atomic contexts run outside the effect \
                handler and must not suspend"
               rg.rg_desc (String.concat " -> " chain)))
        (find_chain g may_block refs))
    fx.regions;
  (* ...and annotated atomic functions. *)
  Array.iter
    (fun (f : Graph.node) ->
      if atomic f && may_block.(f.id) then
        let refs = List.map (fun r -> (f, r.Graph.path)) f.refs in
        let chain =
          f.key :: Option.value ~default:[] (find_chain g may_block refs)
        in
        hit f.file f.def_line Rules.Block_in_handler
          (Printf.sprintf
             "atomic function may block: %s — atomic contexts run outside the \
              effect handler and must not suspend"
             (String.concat " -> " chain)))
    g.nodes;
  (* lock-order cycles *)
  let edges = build_edges g classes_of may_acquire fx.helds in
  List.iter
    (fun e ->
      Option.iter
        (fun back ->
          hit e.e_file e.e_line Rules.Lock_order
            (Printf.sprintf
               "acquiring lock class %s while holding %s closes the cycle %s; \
                acquire classes in one global order"
               e.e_to e.e_from
               (String.concat " -> " (e.e_from :: back))))
        (class_path edges e.e_to e.e_from))
    edges;
  (* unreleased-acquire *)
  Array.iter
    (fun (f : Graph.node) ->
      let released =
        List.concat_map (classes_of ~file:f.file) fx.releases.(f.id)
      in
      List.iter
        (fun (hint, line) ->
          List.iter
            (fun c ->
              if not (List.mem c released) then
                hit f.file line Rules.Unreleased_acquire
                  (Printf.sprintf
                     "acquire of lock class %s has no matching release in %s; \
                      release on every path or justify the ownership transfer \
                      with an allow"
                     c f.key))
            (classes_of ~file:f.file hint))
        fx.bare.(f.id))
    g.nodes;
  let surviving = Marker.suppress (Marker.with_verb "allow" markers) !hits in
  surviving @ Marker.unused marker markers @ bad
  @ Graph.ambiguity g (Array.to_list g.nodes)

let rec pass =
  {
    Pass.name = "deadlock";
    rules;
    marker;
    hint = "a seussdead: allow comment";
    check = (fun prog -> check pass prog);
  }
