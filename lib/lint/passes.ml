(* The pass table. Everything that enumerates passes — rule ownership,
   seusslint's --pass values, --list-rules sections, --time labels and
   dispatch — reads it from here. *)

let all = [ Check.pass; Deadlock.pass; Heat.pass; Own.pass ]

let pass_of r = (List.find (fun p -> List.mem r p.Pass.rules) all).name

let program sources =
  { Pass.sources; graph = lazy (Graph.build sources); passes = all }

(* Every pass reports a file that failed to parse. *)
let check prog (pass : Pass.t) =
  let parse_errors =
    List.filter_map
      (fun (src : Source.t) ->
        match src.ast with
        | Ok _ -> None
        | Error exn ->
            Some
              (Source.violation src.rel 1 0 Rules.parse_error
                 (Printexc.to_string exn)))
      prog.Pass.sources
  in
  List.sort Source.compare_violation (pass.check prog @ parse_errors)

let merge results =
  let tagged =
    List.concat_map (fun (p, vs) -> List.map (fun v -> (p, v)) vs) results
  in
  (* A finding at the same place under the same rule from a second pass
     is the same finding; a pass's own findings are all kept. *)
  let rec dedup = function
    | (p1, v1) :: (p2, v2) :: rest
      when Source.compare_violation v1 v2 = 0
           && not (String.equal p1.Pass.name p2.Pass.name) ->
        dedup ((p1, v1) :: rest)
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  dedup (List.sort (fun (_, a) (_, b) -> Source.compare_violation a b) tagged)

let check_tree ?strip_prefix pass roots =
  check (program (Source.load_tree ?strip_prefix roots)) pass

let check_file ?rel path = check (program [ Source.load ?rel path ]) Check.pass
