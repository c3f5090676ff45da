type t = {
  tie_seed : int64 option;
  hb : bool;
  deadlock : bool;
  own : bool;
  fault_rate : float;
  fault_seed : int64 option;
  prefault : bool;
  snap_cache_bytes : int64;
  snap_policy : Seuss.Config.snap_policy option;
}

let default =
  {
    tie_seed = None;
    hb = false;
    deadlock = false;
    own = false;
    fault_rate = 0.0;
    fault_seed = None;
    prefault = false;
    snap_cache_bytes = 0L;
    snap_policy = None;
  }

let vars =
  [
    "SEUSS_SHUFFLE_SEED"; "SEUSS_HB"; "SEUSS_DEADLOCK"; "SEUSS_OWN";
    "SEUSS_FAULT_RATE"; "SEUSS_FAULT_SEED"; "SEUSS_PREFAULT";
    "SEUSS_SNAP_CACHE"; "SEUSS_SNAP_POLICY";
  ]

(* {1 Value parsers} *)

let parse_bytes s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then None
  else
    let mult, digits =
      match Char.lowercase_ascii s.[len - 1] with
      | 'k' -> (1024L, String.sub s 0 (len - 1))
      | 'm' -> (Int64.of_int (1024 * 1024), String.sub s 0 (len - 1))
      | 'g' -> (Int64.of_int (1024 * 1024 * 1024), String.sub s 0 (len - 1))
      | _ -> (1L, s)
    in
    match Int64.of_string_opt digits with
    | Some v when Int64.compare v 0L >= 0 -> Some (Int64.mul v mult)
    | _ -> None

let switch = function
  | "1" | "true" | "yes" | "on" -> Some true
  | "0" | "false" | "no" | "off" -> Some false
  | _ -> None

let seed s = Int64.of_string_opt s

let rate s =
  match float_of_string_opt s with
  | Some r when Float.is_finite r && r >= 0.0 && r <= 1.0 -> Some r
  | _ -> None

let policy s = Seuss.Config.policy_of_name s

(* {1 The environment} *)

(* Every off spelling, for every variable: a caller that cannot unset a
   variable writes "" or "0", and either must mean "as if absent". *)
let is_off s =
  match switch s with Some false -> true | _ -> String.equal s ""

let parse env =
  let field var parser expected apply acc =
    match acc with
    | Error _ -> acc
    | Ok r -> (
        match List.assoc_opt var env with
        | None -> acc
        | Some raw -> (
            let s = String.lowercase_ascii (String.trim raw) in
            if is_off s then acc
            else
              match parser s with
              | Some v -> Ok (apply r v)
              | None ->
                  Error
                    (Printf.sprintf "malformed %s=%S (expected %s)" var raw
                       expected)))
  in
  Ok default
  |> field "SEUSS_SHUFFLE_SEED" seed "an integer seed" (fun r v ->
         { r with tie_seed = Some v })
  |> field "SEUSS_HB" switch "1 or 0" (fun r v -> { r with hb = v })
  |> field "SEUSS_DEADLOCK" switch "1 or 0" (fun r v -> { r with deadlock = v })
  |> field "SEUSS_OWN" switch "1 or 0" (fun r v -> { r with own = v })
  |> field "SEUSS_FAULT_RATE" rate "a rate in [0, 1]" (fun r v ->
         { r with fault_rate = v })
  |> field "SEUSS_FAULT_SEED" seed "an integer seed" (fun r v ->
         { r with fault_seed = Some v })
  |> field "SEUSS_PREFAULT" switch "1 or 0" (fun r v -> { r with prefault = v })
  |> field "SEUSS_SNAP_CACHE" parse_bytes "bytes with an optional k/m/g suffix"
       (fun r v -> { r with snap_cache_bytes = v })
  |> field "SEUSS_SNAP_POLICY" policy "lru or ws" (fun r v ->
         { r with snap_policy = Some v })

let of_env () =
  parse
    (List.filter_map
       (fun var -> Option.map (fun v -> (var, v)) (Sys.getenv_opt var))
       vars)
