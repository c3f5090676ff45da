(* Allow comments: (* seusslint: allow <rule> [—|--|-] <reason> *),
   covering the comment's own lines and the line after it. *)

type t = {
  m_rule : string;
  m_file : string;
  m_line : int;  (* first covered line: where the comment starts *)
  m_last : int;  (* last covered line: the one after the comment *)
  mutable m_used : bool;
}

let word = "seusslint:"

let malformed =
  "malformed seusslint comment; expected: seusslint: allow <rule> — <reason>"

let after s n = String.trim (String.sub s n (String.length s - n))

let split s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, after s (i + 1))

(* [(verb, payload)] when the comment is addressed to seusslint. *)
let directive text =
  let t = String.trim text in
  let t = if String.starts_with ~prefix:"*" t then after t 1 else t in
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

let scan (src : Source.t) =
  let markers = ref [] and bad = ref [] in
  List.iter
    (fun (text, (loc : Location.t)) ->
      let fail msg = bad := Source.at src.rel loc Rules.bad_allow msg :: !bad in
      match directive text with
      | None -> ()
      | Some (verb, payload) -> (
          let rule, rest = split payload in
          let reason = strip_sep rest in
          if (not (String.equal verb "allow")) || rule = "" then fail malformed
          else
            match Rules.of_name rule with
            | None -> fail (Printf.sprintf "unknown rule %S in allow comment" rule)
            | Some _ when reason = "" ->
                fail
                  (Printf.sprintf "allow %s needs a reason: %s allow %s — <why>"
                     rule word rule)
            | Some _ ->
                markers :=
                  {
                    m_rule = rule;
                    m_file = src.rel;
                    m_line = loc.loc_start.pos_lnum;
                    m_last = loc.loc_end.pos_lnum + 1;
                    m_used = false;
                  }
                  :: !markers))
    src.comments;
  (List.rev !markers, !bad)

(* The nearest comment above the line naming the rule: the last in
   source order, so each of several consecutive comments claims its own
   line. *)
let suppress ms vs =
  List.filter
    (fun (v : Source.violation) ->
      match
        List.fold_left
          (fun acc m ->
            if
              String.equal m.m_rule v.rule
              && String.equal m.m_file v.file
              && v.line >= m.m_line && v.line <= m.m_last
            then Some m
            else acc)
          None ms
      with
      | Some m ->
          m.m_used <- true;
          false
      | None -> true)
    vs

let unused ms =
  List.filter_map
    (fun m ->
      if m.m_used then None
      else
        Some
          (Source.violation m.m_file m.m_line 0 Rules.unused_allow
             (Printf.sprintf "allowance for %s suppresses nothing; delete it"
                m.m_rule)))
    ms
