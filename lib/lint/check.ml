(* The base pass: per-file syntactic rules. Parses nothing itself — it
   walks each shared Parsetree for rule hits, then reconciles them
   against the file's [seusslint: allow] markers. No typing pass — every
   rule is decidable (conservatively) on names alone, which keeps the
   linter dependency-free and fast enough to run on every build. *)

let rules =
  Rules.
    [ Bare_random; Wallclock; Hashtbl_order; Physical_eq; Stdout_print;
      Frame_site; Ambient_env ]

(* {1 The Parsetree walk} *)

type ctx = {
  rel : string;  (** repo-relative path, for site lookups and reports *)
  in_lib : bool;
  random_exempt : bool;
  env_exempt : bool;
  mutable binding : string;  (** enclosing top-level binding name *)
  mutable hits : Source.violation list;
}

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
    binding = Graph.toplevel;
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
  | [ "Hashtbl"; ("iter" | "fold") ] ->
      if ctx.in_lib then
        report ctx loc Rules.Hashtbl_order
          (Printf.sprintf
             "%s visits buckets in insertion-history order; use the sorted Det.%s wrapper"
             (String.concat "." parts)
             (List.nth parts 1))
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

let iterator ctx =
  let open Ast_iterator in
  let expr sub (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ctx loc (Longident.flatten txt)
    | _ -> ());
    default_iterator.expr sub e
  in
  { default_iterator with expr }

(* (* seusslint: allow <rule> — <reason> *) suppresses hits of <rule> on
   the comment's own line(s) or the line immediately after it. *)
let marker =
  {
    Marker.word = "seusslint:";
    verbs =
      [
        {
          verb = "allow";
          arg = Rule;
          reason = true;
          unused =
            Printf.sprintf "allowance for %s suppresses nothing; delete it";
        };
      ];
    malformed =
      "malformed seusslint comment; expected: seusslint: allow <rule> — \
       <reason>";
  }

let rec pass =
  {
    Pass.name = "base";
    rules;
    marker;
    hint = "a seusslint: allow comment";
    check =
      (fun prog ->
        let allows, bad = Pass.markers prog pass in
        let hits =
          List.concat_map
            (fun (src : Source.t) ->
              match src.ast with
              | Ok ast ->
                  let ctx = make_ctx src.rel in
                  Graph.traverse ~top:Graph.toplevel ~next:Graph.binding_name
                    ~enter:(fun b -> ctx.binding <- b)
                    (iterator ctx) ast;
                  ctx.hits
              | Error _ -> [])
            prog.sources
        in
        let surviving = Marker.suppress allows hits in
        surviving @ Marker.unused marker allows @ bad);
  }
