type ao_level = Ao_none | Ao_network | Ao_full

type snap_policy = Snap_lru | Snap_ws

type t = {
  ao : ao_level;
  cache_function_snapshots : bool;
  cache_idle_ucs : bool;
  prefault_working_set : bool;
  snapshot_cache_bytes : int64;
  snapshot_cache_policy : snap_policy;
  runtimes : Unikernel.Image.t list;
}

let default =
  {
    ao = Ao_full;
    cache_function_snapshots = true;
    cache_idle_ucs = true;
    prefault_working_set = false;
    snapshot_cache_bytes = 0L;
    snapshot_cache_policy = Snap_lru;
    runtimes = [ Unikernel.Image.node ];
  }

let oom_headroom_bytes = Int64.of_int (Mem.Mconfig.mib 1024)
let invoke_timeout = 60.0

let policy_name = function Snap_lru -> "lru" | Snap_ws -> "ws"

let policy_of_name = function
  | "lru" -> Some Snap_lru
  | "ws" -> Some Snap_ws
  | _ -> None
