(* The linter: per-file syntactic rules. It walks each file's Parsetree
   for rule hits, then reconciles them against the file's
   [seusslint: allow] comments. No typing pass — every rule is decidable
   (conservatively) on names alone, which keeps the linter
   dependency-free and fast enough to run on every build. *)

(* {1 The Parsetree walk} *)

type ctx = {
  rel : string;  (** repo-relative path, for site lookups and reports *)
  in_lib : bool;
  random_exempt : bool;
  env_exempt : bool;
  poly_scoped : bool;
  mutable binding : string;  (** enclosing top-level binding name *)
  mutable hits : Source.violation list;
}

let toplevel = "<toplevel>"

let first_segment rel =
  match String.index_opt rel '/' with
  | None -> rel
  | Some i -> String.sub rel 0 i

let make_ctx rel =
  {
    rel;
    in_lib = String.equal (first_segment rel) "lib";
    random_exempt =
      (* The seeded PRNG itself, and the fault plane that owns its own
         deterministic streams, are the two sanctioned homes for
         randomness plumbing. *)
      String.equal rel "lib/sim/prng.ml"
      || String.starts_with ~prefix:"lib/faults/" rel;
    (* The run configuration is the one sanctioned environment reader. *)
    env_exempt = String.equal rel "lib/experiments/run_config.ml";
    (* The layers every simulated event crosses. *)
    poly_scoped =
      List.exists
        (fun dir -> String.starts_with ~prefix:dir rel)
        [ "lib/sim/"; "lib/mem/"; "lib/obs/"; "lib/workload/" ];
    binding = toplevel;
    hits = [];
  }

let report ctx loc rule message =
  ctx.hits <- Source.at ctx.rel loc (Rules.name rule) message :: ctx.hits

let stdout_printers =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes";
  ]

let check_ident ctx loc parts =
  (match parts with
  | "Random" :: _ :: _ when not ctx.random_exempt ->
      report ctx loc Rules.Bare_random
        (Printf.sprintf "%s draws from ambient global state; use a seeded Sim.Prng stream"
           (String.concat "." parts))
  | _ -> ());
  (match parts with
  | [ "Unix"; "gettimeofday" ] | [ "Sys"; "time" ] ->
      if ctx.in_lib then
        report ctx loc Rules.Wallclock
          (Printf.sprintf "%s reads the host clock; simulated code must use Sim.Engine.now"
             (String.concat "." parts))
  | _ -> ());
  (match parts with
  | [ "Hashtbl";
      ( "iter" | "fold" | "filter_map_inplace" | "to_seq" | "to_seq_keys"
      | "to_seq_values" ) as fn ] ->
      if ctx.in_lib then
        report ctx loc Rules.Hashtbl_order
          (Printf.sprintf "%s visits buckets in insertion-history order; %s"
             (String.concat "." parts)
             (match fn with
             | "iter" | "fold" -> Printf.sprintf "use the sorted Det.%s wrapper" fn
             | _ -> "go through the sorted Det views (Det.bindings, Det.keys)"))
  | _ -> ());
  (match parts with
  | [ "Sys"; ("getenv" | "getenv_opt") ] | [ "Unix"; ("getenv" | "environment") ]
    when ctx.in_lib && not ctx.env_exempt ->
      report ctx loc Rules.Ambient_env
        (Printf.sprintf
           "%s reads the environment from library code; take the value from \
            Run_config instead"
           (String.concat "." parts))
  | _ -> ());
  (match parts with
  | [ ("==" | "!=") ] ->
      if ctx.in_lib then
        report ctx loc Rules.Physical_eq
          (Printf.sprintf
             "(%s) is physical identity; use structural (=) or justify with an allow comment"
             (List.hd parts))
  | _ -> ());
  (match parts with
  | [ ("compare" | "min" | "max") ]
  | [ "Stdlib"; ("compare" | "min" | "max") ]
  | [ "Hashtbl"; "hash" ]
    when ctx.poly_scoped ->
      report ctx loc Rules.Poly_cmp
        (Printf.sprintf
           "polymorphic %s walks the representation; use the monomorphic \
            Int/Float/String comparison"
           (String.concat "." parts))
  | _ -> ());
  (match parts with
  | [ p ] when ctx.in_lib && List.mem p stdout_printers ->
      report ctx loc Rules.Stdout_print
        (Printf.sprintf "%s writes to stdout from library code; emit through Obs instead" p)
  | [ "Printf"; "printf" ] | [ "Format"; "printf" ] ->
      if ctx.in_lib then
        report ctx loc Rules.Stdout_print
          (Printf.sprintf "%s writes to stdout from library code; emit through Obs instead"
             (String.concat "." parts))
  | _ -> ());
  match List.rev parts with
  | op :: "Frame" :: _ -> (
      match Sites.op_of_name op with
      | Some o when not (Sites.allowed ~file:ctx.rel ~binding:ctx.binding o) ->
          report ctx loc Rules.Frame_site
            (Printf.sprintf
               "Frame.%s in %S is not in the audited site list (Lint.Sites); check its \
                pairing and add it there"
               op ctx.binding)
      | _ -> ())
  | _ -> ()

(* An operand whose (=)/(<>) comparison cannot have specialized away
   the representation walk: structured literals and payload carriers. *)
let structured (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _
  | Pexp_construct (_, Some _)
  | Pexp_variant (_, Some _)
  | Pexp_constant (Pconst_string _ | Pconst_float _) ->
      true
  | _ -> false

let iterator ctx =
  let open Ast_iterator in
  let expr sub (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ctx loc (Longident.flatten txt)
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); loc }; _ },
         args)
      when ctx.poly_scoped
           && List.exists
                (fun (l, a) -> l = Asttypes.Nolabel && structured a)
                args ->
        report ctx loc Rules.Poly_cmp
          (Printf.sprintf
             "polymorphic (%s) against a structured operand walks the \
              representation; use the monomorphic Int/Float/String comparison"
             op)
    | _ -> ());
    default_iterator.expr sub e
  in
  { default_iterator with expr }

let binding_name (vb : Parsetree.value_binding) =
  match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> toplevel

(* Walk a structure with the rule iterator, keeping [ctx.binding] on
   the enclosing top-level binding (nested modules included). *)
let traverse ctx ast =
  let it = iterator ctx in
  let structure_item sub (item : Parsetree.structure_item) =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
        let saved = ctx.binding in
        List.iter
          (fun vb ->
            ctx.binding <- binding_name vb;
            sub.Ast_iterator.value_binding sub vb;
            ctx.binding <- saved)
          vbs
    | _ -> it.structure_item sub item
  in
  let it = { it with structure_item } in
  it.structure it ast

let check_source (src : Source.t) =
  let allows, bad = Marker.scan src in
  let hits =
    match src.ast with
    | Ok ast ->
        let ctx = make_ctx src.rel in
        traverse ctx ast;
        ctx.hits
    | Error exn ->
        [ Source.violation src.rel 1 0 Rules.parse_error (Printexc.to_string exn) ]
  in
  let surviving = Marker.suppress allows hits in
  surviving @ Marker.unused allows @ bad

let check sources =
  List.sort Source.compare_violation (List.concat_map check_source sources)

let check_tree ?strip_prefix roots = check (Source.load_tree ?strip_prefix roots)
let check_file ?rel path = check [ Source.load ?rel path ]
