(* The one marker grammar every pass shares.

   A marker is a comment [<marker> <verb> [<arg>] [—|--|- <reason>]]
   (a doc-comment's leading [*] is tolerated). It covers the comment's
   own lines and the line after it. Each pass supplies its marker word
   and a verb table; everything else — parsing, validation, coverage,
   suppression and the bad-allow/unused-allow meta-rules — lives here. *)

type arg = No_arg | Rule

type verb = {
  verb : string;
  arg : arg;
  reason : bool;  (* a reason is required (and anything else is malformed) *)
  unused : string -> string;  (* the unused-allow message, given the arg *)
}

type grammar = { word : string; verbs : verb list; malformed : string }

type t = {
  m_verb : string;
  m_arg : string;
  m_file : string;
  m_line : int;
  m_last : int;
  mutable m_used : bool;
}

let covers m ~file line =
  String.equal m.m_file file && line >= m.m_line && line <= m.m_last

(* Of the markers satisfying [ok], the nearest above the line: the last
   in source order, so each of several consecutive markers claims its own
   line. *)
let nearest ms ok =
  List.fold_left (fun acc m -> if ok m then Some m else acc) None ms

let covering ms ~file line = nearest ms (fun m -> covers m ~file line)
let with_verb v ms = List.filter (fun m -> String.equal m.m_verb v) ms

let after s n = String.trim (String.sub s n (String.length s - n))

let split s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, after s (i + 1))

(* [(verb, payload)] when the comment is addressed to [word]. *)
let directive word text =
  let t = String.trim text in
  let t =
    if String.starts_with ~prefix:"*" t then after t 1 else t
  in
  if not (String.starts_with ~prefix:word t) then None
  else Some (split (after t (String.length word)))

let strip_sep s =
  match
    List.find_opt
      (fun p -> String.starts_with ~prefix:p s)
      [ "\xe2\x80\x94"; "--"; "-" ]
  with
  | Some p -> after s (String.length p)
  | None -> s

let scan g ~rules ~foreign (src : Source.t) =
  let markers = ref [] and bad = ref [] in
  List.iter
    (fun (text, (loc : Location.t)) ->
      let fail msg =
        bad := Source.at src.rel loc Rules.bad_allow msg :: !bad
      in
      match directive g.word text with
      | None -> ()
      | Some (v, payload) -> (
          let spec = List.find_opt (fun s -> String.equal s.verb v) g.verbs in
          let arg, rest =
            match spec with
            | Some { arg = Rule; _ } -> split payload
            | _ -> ("", payload)
          in
          let reason = strip_sep rest in
          match spec with
          | None -> fail g.malformed
          | Some s
            when (s.arg <> No_arg && arg = "") || ((not s.reason) && rest <> "")
            ->
              fail g.malformed
          | Some s -> (
              let rule = if s.arg = Rule then Rules.of_name arg else None in
              match rule with
              | Some r when not (List.mem r rules) ->
                  fail (Printf.sprintf "rule %s belongs to %s" arg (foreign r))
              | None when s.arg = Rule ->
                  fail (Printf.sprintf "unknown rule %S in allow comment" arg)
              | _ when s.reason && reason = "" ->
                  let what = if s.arg = No_arg then v else v ^ " " ^ arg in
                  fail
                    (Printf.sprintf "%s needs a reason: %s %s — <why>"
                       (if s.arg = No_arg then v ^ " marker" else what)
                       g.word what)
              | _ ->
                  markers :=
                    {
                      m_verb = v;
                      m_arg = arg;
                      m_file = src.rel;
                      m_line = loc.loc_start.pos_lnum;
                      m_last = loc.loc_end.pos_lnum + 1;
                      m_used = false;
                    }
                    :: !markers)))
    src.comments;
  (List.rev !markers, !bad)

(* A violation covered by a marker naming its rule — or naming no rule at
   all — is dropped, and the nearest such marker is used. *)
let suppress ms vs =
  List.filter
    (fun (v : Source.violation) ->
      match
        nearest ms (fun m ->
            (m.m_arg = "" || String.equal m.m_arg v.rule)
            && covers m ~file:v.file v.line)
      with
      | Some m ->
          m.m_used <- true;
          false
      | None -> true)
    vs

let unused g ms =
  List.filter_map
    (fun m ->
      match List.find_opt (fun s -> String.equal s.verb m.m_verb) g.verbs with
      | Some s when not m.m_used ->
          Some
            (Source.violation m.m_file m.m_line 0 Rules.unused_allow
               (s.unused m.m_arg))
      | _ -> None)
    ms
