type path = Cold | Warm | Hot

let path_name = function Cold -> "cold" | Warm -> "warm" | Hot -> "hot"

let path_of_name = function
  | "cold" -> Some Cold
  | "warm" -> Some Warm
  | "hot" -> Some Hot
  | _ -> None

type t =
  | Invoke_start of { fn_id : string }
  | Invoke_finish of {
      fn_id : string;
      path : path;
      queue : float;
      deploy : float;
      import : float;
      run : float;
      total : float;
      ok : bool;
    }
  | Snapshot_capture of { name : string; pages : int; bytes : int64 }
  | Cow_fault of { uc_id : int; pages : int }
  | Uc_reclaim of { uc_id : int; fn_id : string }
  | Oom_wake of { free_bytes : int64 }
  | Fault_injected of { site : string; detail : string }
  | Invoke_retry of { fn_id : string }
  | Node_crash of { node_id : int }
  | Fetch_retry of { fn_id : string; attempt : int; backoff : float }
  | Registry_evict of { fn_id : string; node_id : int; reason : string }
  | Registry_repair of { node_id : int; republished : int }
  | Failover of { fn_id : string; from_node : int; to_node : int }
  | Degraded_cold of { fn_id : string }
  | Ws_record of { snapshot : string; pages : int }
  | Ws_prefault of {
      uc_id : int;
      snapshot : string;
      pages : int;
      cow_copied : int;
      zero_filled : int;
    }
  | San_race of {
      cell : string;
      kind : string;
      first_pid : int;
      second_pid : int;
    }
  | San_deadlock of {
      resource : string;
      proc : string;
      pid : int;
      spawned_at : float;
      waiting_since : float;
      in_cycle : bool;
    }
  | Snap_dedup of {
      snapshot : string;
      delta_pages : int;
      shared_pages : int;
      unique_pages : int;
    }
  | Snap_delta of {
      snapshot : string;
      parent : string;
      delta_pages : int;
      delta_bytes : int64;
    }
  | Snap_evict of {
      fn_id : string;
      pages_freed : int;
      resident_bytes : int64;
      policy : string;
    }
  | San_leak of {
      node : string;
      frames : int;
      snapshot_refs : int;
      pinned : int;
      ucs : int;
    }

let type_name = function
  | Invoke_start _ -> "invoke_start"
  | Invoke_finish _ -> "invoke_finish"
  | Snapshot_capture _ -> "snapshot_capture"
  | Cow_fault _ -> "cow_fault"
  | Uc_reclaim _ -> "uc_reclaim"
  | Oom_wake _ -> "oom_wake"
  | Fault_injected _ -> "fault_injected"
  | Invoke_retry _ -> "invoke_retry"
  | Node_crash _ -> "node_crash"
  | Fetch_retry _ -> "fetch_retry"
  | Registry_evict _ -> "registry_evict"
  | Registry_repair _ -> "registry_repair"
  | Failover _ -> "failover"
  | Degraded_cold _ -> "degraded_cold"
  | Ws_record _ -> "ws_record"
  | Ws_prefault _ -> "ws_prefault"
  | San_race _ -> "san_race"
  | San_deadlock _ -> "san_deadlock"
  | Snap_dedup _ -> "snap_dedup"
  | Snap_delta _ -> "snap_delta"
  | Snap_evict _ -> "snap_evict"
  | San_leak _ -> "san_leak"

let to_json ~time ev =
  let fields =
    match ev with
    | Invoke_start { fn_id } -> [ ("fn_id", Json.String fn_id) ]
    | Invoke_finish { fn_id; path; queue; deploy; import; run; total; ok } ->
        [
          ("fn_id", Json.String fn_id);
          ("path", Json.String (path_name path));
          ("queue", Json.Float queue);
          ("deploy", Json.Float deploy);
          ("import", Json.Float import);
          ("run", Json.Float run);
          ("total", Json.Float total);
          ("ok", Json.Bool ok);
        ]
    | Snapshot_capture { name; pages; bytes } ->
        [
          ("name", Json.String name);
          ("pages", Json.Int pages);
          ("bytes", Json.Int (Int64.to_int bytes));
        ]
    | Cow_fault { uc_id; pages } ->
        [ ("uc_id", Json.Int uc_id); ("pages", Json.Int pages) ]
    | Uc_reclaim { uc_id; fn_id } ->
        [ ("uc_id", Json.Int uc_id); ("fn_id", Json.String fn_id) ]
    | Oom_wake { free_bytes } ->
        [ ("free_bytes", Json.Int (Int64.to_int free_bytes)) ]
    | Fault_injected { site; detail } ->
        [ ("site", Json.String site); ("detail", Json.String detail) ]
    | Invoke_retry { fn_id } -> [ ("fn_id", Json.String fn_id) ]
    | Node_crash { node_id } -> [ ("node_id", Json.Int node_id) ]
    | Fetch_retry { fn_id; attempt; backoff } ->
        [
          ("fn_id", Json.String fn_id);
          ("attempt", Json.Int attempt);
          ("backoff", Json.Float backoff);
        ]
    | Registry_evict { fn_id; node_id; reason } ->
        [
          ("fn_id", Json.String fn_id);
          ("node_id", Json.Int node_id);
          ("reason", Json.String reason);
        ]
    | Registry_repair { node_id; republished } ->
        [
          ("node_id", Json.Int node_id);
          ("republished", Json.Int republished);
        ]
    | Failover { fn_id; from_node; to_node } ->
        [
          ("fn_id", Json.String fn_id);
          ("from_node", Json.Int from_node);
          ("to_node", Json.Int to_node);
        ]
    | Degraded_cold { fn_id } -> [ ("fn_id", Json.String fn_id) ]
    | Ws_record { snapshot; pages } ->
        [ ("snapshot", Json.String snapshot); ("pages", Json.Int pages) ]
    | Ws_prefault { uc_id; snapshot; pages; cow_copied; zero_filled } ->
        [
          ("uc_id", Json.Int uc_id);
          ("snapshot", Json.String snapshot);
          ("pages", Json.Int pages);
          ("cow_copied", Json.Int cow_copied);
          ("zero_filled", Json.Int zero_filled);
        ]
    | San_race { cell; kind; first_pid; second_pid } ->
        [
          ("cell", Json.String cell);
          ("kind", Json.String kind);
          ("first_pid", Json.Int first_pid);
          ("second_pid", Json.Int second_pid);
        ]
    | San_deadlock { resource; proc; pid; spawned_at; waiting_since; in_cycle }
      ->
        [
          ("resource", Json.String resource);
          ("proc", Json.String proc);
          ("pid", Json.Int pid);
          ("spawned_at", Json.Float spawned_at);
          ("waiting_since", Json.Float waiting_since);
          ("in_cycle", Json.Bool in_cycle);
        ]
    | Snap_dedup { snapshot; delta_pages; shared_pages; unique_pages } ->
        [
          ("snapshot", Json.String snapshot);
          ("delta_pages", Json.Int delta_pages);
          ("shared_pages", Json.Int shared_pages);
          ("unique_pages", Json.Int unique_pages);
        ]
    | Snap_delta { snapshot; parent; delta_pages; delta_bytes } ->
        [
          ("snapshot", Json.String snapshot);
          ("parent", Json.String parent);
          ("delta_pages", Json.Int delta_pages);
          ("delta_bytes", Json.Int (Int64.to_int delta_bytes));
        ]
    | Snap_evict { fn_id; pages_freed; resident_bytes; policy } ->
        [
          ("fn_id", Json.String fn_id);
          ("pages_freed", Json.Int pages_freed);
          ("resident_bytes", Json.Int (Int64.to_int resident_bytes));
          ("policy", Json.String policy);
        ]
    | San_leak { node; frames; snapshot_refs; pinned; ucs } ->
        [
          ("node", Json.String node);
          ("frames", Json.Int frames);
          ("snapshot_refs", Json.Int snapshot_refs);
          ("pinned", Json.Int pinned);
          ("ucs", Json.Int ucs);
        ]
  in
  Json.Obj
    (("ts", Json.Float time) :: ("type", Json.String (type_name ev)) :: fields)

let of_json json =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "event: missing or bad field %S" name)
  in
  let* time = field "ts" Json.to_float in
  let* kind = field "type" Json.to_str in
  let* ev =
    match kind with
    | "invoke_start" ->
        let* fn_id = field "fn_id" Json.to_str in
        Ok (Invoke_start { fn_id })
    | "invoke_finish" ->
        let* fn_id = field "fn_id" Json.to_str in
        let* path = field "path" (fun j -> Option.bind (Json.to_str j) path_of_name) in
        let* queue = field "queue" Json.to_float in
        let* deploy = field "deploy" Json.to_float in
        let* import = field "import" Json.to_float in
        let* run = field "run" Json.to_float in
        let* total = field "total" Json.to_float in
        let* ok = field "ok" Json.to_bool in
        Ok (Invoke_finish { fn_id; path; queue; deploy; import; run; total; ok })
    | "snapshot_capture" ->
        let* name = field "name" Json.to_str in
        let* pages = field "pages" Json.to_int in
        let* bytes = field "bytes" Json.to_int in
        Ok (Snapshot_capture { name; pages; bytes = Int64.of_int bytes })
    | "cow_fault" ->
        let* uc_id = field "uc_id" Json.to_int in
        let* pages = field "pages" Json.to_int in
        Ok (Cow_fault { uc_id; pages })
    | "uc_reclaim" ->
        let* uc_id = field "uc_id" Json.to_int in
        let* fn_id = field "fn_id" Json.to_str in
        Ok (Uc_reclaim { uc_id; fn_id })
    | "oom_wake" ->
        let* free_bytes = field "free_bytes" Json.to_int in
        Ok (Oom_wake { free_bytes = Int64.of_int free_bytes })
    | "fault_injected" ->
        let* site = field "site" Json.to_str in
        let* detail = field "detail" Json.to_str in
        Ok (Fault_injected { site; detail })
    | "invoke_retry" ->
        let* fn_id = field "fn_id" Json.to_str in
        Ok (Invoke_retry { fn_id })
    | "node_crash" ->
        let* node_id = field "node_id" Json.to_int in
        Ok (Node_crash { node_id })
    | "fetch_retry" ->
        let* fn_id = field "fn_id" Json.to_str in
        let* attempt = field "attempt" Json.to_int in
        let* backoff = field "backoff" Json.to_float in
        Ok (Fetch_retry { fn_id; attempt; backoff })
    | "registry_evict" ->
        let* fn_id = field "fn_id" Json.to_str in
        let* node_id = field "node_id" Json.to_int in
        let* reason = field "reason" Json.to_str in
        Ok (Registry_evict { fn_id; node_id; reason })
    | "registry_repair" ->
        let* node_id = field "node_id" Json.to_int in
        let* republished = field "republished" Json.to_int in
        Ok (Registry_repair { node_id; republished })
    | "failover" ->
        let* fn_id = field "fn_id" Json.to_str in
        let* from_node = field "from_node" Json.to_int in
        let* to_node = field "to_node" Json.to_int in
        Ok (Failover { fn_id; from_node; to_node })
    | "degraded_cold" ->
        let* fn_id = field "fn_id" Json.to_str in
        Ok (Degraded_cold { fn_id })
    | "ws_record" ->
        let* snapshot = field "snapshot" Json.to_str in
        let* pages = field "pages" Json.to_int in
        Ok (Ws_record { snapshot; pages })
    | "ws_prefault" ->
        let* uc_id = field "uc_id" Json.to_int in
        let* snapshot = field "snapshot" Json.to_str in
        let* pages = field "pages" Json.to_int in
        let* cow_copied = field "cow_copied" Json.to_int in
        let* zero_filled = field "zero_filled" Json.to_int in
        Ok (Ws_prefault { uc_id; snapshot; pages; cow_copied; zero_filled })
    | "san_race" ->
        let* cell = field "cell" Json.to_str in
        let* kind = field "kind" Json.to_str in
        let* first_pid = field "first_pid" Json.to_int in
        let* second_pid = field "second_pid" Json.to_int in
        Ok (San_race { cell; kind; first_pid; second_pid })
    | "san_deadlock" ->
        let* resource = field "resource" Json.to_str in
        let* proc = field "proc" Json.to_str in
        let* pid = field "pid" Json.to_int in
        let* spawned_at = field "spawned_at" Json.to_float in
        let* waiting_since = field "waiting_since" Json.to_float in
        let* in_cycle = field "in_cycle" Json.to_bool in
        Ok
          (San_deadlock
             { resource; proc; pid; spawned_at; waiting_since; in_cycle })
    | "snap_dedup" ->
        let* snapshot = field "snapshot" Json.to_str in
        let* delta_pages = field "delta_pages" Json.to_int in
        let* shared_pages = field "shared_pages" Json.to_int in
        let* unique_pages = field "unique_pages" Json.to_int in
        Ok (Snap_dedup { snapshot; delta_pages; shared_pages; unique_pages })
    | "snap_delta" ->
        let* snapshot = field "snapshot" Json.to_str in
        let* parent = field "parent" Json.to_str in
        let* delta_pages = field "delta_pages" Json.to_int in
        let* delta_bytes = field "delta_bytes" Json.to_int in
        Ok
          (Snap_delta
             { snapshot; parent; delta_pages; delta_bytes = Int64.of_int delta_bytes })
    | "snap_evict" ->
        let* fn_id = field "fn_id" Json.to_str in
        let* pages_freed = field "pages_freed" Json.to_int in
        let* resident_bytes = field "resident_bytes" Json.to_int in
        let* policy = field "policy" Json.to_str in
        Ok
          (Snap_evict
             {
               fn_id;
               pages_freed;
               resident_bytes = Int64.of_int resident_bytes;
               policy;
             })
    | "san_leak" ->
        let* node = field "node" Json.to_str in
        let* frames = field "frames" Json.to_int in
        let* snapshot_refs = field "snapshot_refs" Json.to_int in
        let* pinned = field "pinned" Json.to_int in
        let* ucs = field "ucs" Json.to_int in
        Ok (San_leak { node; frames; snapshot_refs; pinned; ucs })
    | other -> Error (Printf.sprintf "event: unknown type %S" other)
  in
  Ok (time, ev)
