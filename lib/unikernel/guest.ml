type env = {
  image : Image.t;
  space : Mem.Addr_space.t;
  listener : Net.Tcp.listener;
  hypercalls : Hypercall.t;
  rng : Sim.Prng.t;
  cpu_burn : float -> unit;
}

type warmth = {
  net_pool : bool;
  net_send : bool;
  compiler : bool;
  exec_cache : bool;
}

type mutable_warmth = {
  mutable w_net_pool : bool;
  mutable w_net_send : bool;
  mutable w_compiler : bool;
  mutable w_exec : bool;
}

type loaded = { source : string; instance : Interp.Minijs.t; nodes : int }

type state = {
  env : env;
  heap : Galloc.t;
  nursery : Galloc.t;
  w : mutable_warmth;
  mutable conn_cursor : int;  (* position in the per-connection ring *)
  mutable program : loaded option;
  (* Allocation routing: load-time allocations persist (heap); run-time
     allocations are nursery garbage. *)
  mutable alloc_to_heap : bool;
  host : Interp.Builtins.host;
  hooks : Interp.Eval.hooks;
}

type snapshot_state = {
  s_warmth : warmth;
  s_heap_cursor : int;
  s_nursery_cursor : int;
  s_conn_cursor : int;
  s_program : loaded option;  (* instance is a frozen deep copy *)
}

(* Net region layout (offsets in pages from Gconst.net_region_base):
   [0, pool) buffer pool, [pool, pool+send) send-path structures, then
   the per-connection ring. *)
let send_offset = Gconst.net_pool_init_pages
let ring_offset = send_offset + Gconst.net_send_init_pages

let fault_time (st : Mem.Addr_space.write_stats) =
  (float_of_int st.Mem.Addr_space.cow_copies *. Mem.Mconfig.page_copy_time)
  +. (float_of_int st.Mem.Addr_space.zero_fills *. Mem.Mconfig.zero_fill_time)

(* Writing guest memory pays for the demand/COW faults it causes. *)
let touch_charged burn space ~vpn ~pages =
  let st = Mem.Addr_space.write_range space ~vpn ~pages in
  let cost = fault_time st in
  if cost > 0.0 then burn cost

let make_state env =
  (* [host]/[hooks] close over the state being constructed. *)
  let rec state =
    lazy
      (let heap =
         Galloc.create env.space ~base_vpn:Gconst.heap_base
           ~pages:(Gconst.nursery_base - Gconst.heap_base)
           ~policy:Galloc.Bump
       in
       let nursery =
         Galloc.create env.space ~base_vpn:Gconst.nursery_base
           ~pages:Gconst.nursery_pages ~policy:Galloc.Ring
       in
       let alloc bytes =
         let t = Lazy.force state in
         let st =
           Galloc.alloc (if t.alloc_to_heap then t.heap else t.nursery) bytes
         in
         let cost = fault_time st in
         if cost > 0.0 then env.cpu_burn cost
       in
       let hooks =
         { Interp.Eval.alloc; work = env.cpu_burn; max_ops = 200_000_000 }
       in
       let host =
         {
           Interp.Builtins.http_get =
             (fun url ->
               match env.hypercalls.Hypercall.net_outbound url with
               | None -> Error (Printf.sprintf "cannot reach %s" url)
               | Some conn -> (
                   let result =
                     Net.Http.request ~conn ~timeout:60.0 ~path:url ""
                   in
                   Net.Tcp.close conn;
                   match result with
                   | Ok r when r.Net.Http.status = 200 -> Ok r.Net.Http.body
                   | Ok r ->
                       Error (Printf.sprintf "status %d" r.Net.Http.status)
                   | Error `Timeout -> Error "timeout"
                   | Error `Closed -> Error "connection closed"));
           log = env.hypercalls.Hypercall.console_write;
           now = env.hypercalls.Hypercall.clock_wall;
           work_ms = (fun ms -> env.cpu_burn (ms /. 1000.0));
           alloc;
           random = (fun () -> Sim.Prng.float env.rng);
         }
       in
       {
         env;
         heap;
         nursery;
         w =
           {
             w_net_pool = false;
             w_net_send = false;
             w_compiler = false;
             w_exec = false;
           };
         conn_cursor = 0;
         program = None;
         alloc_to_heap = true;
         host;
         hooks;
       })
  in
  Lazy.force state

(* {1 First-use (warmable) components} *)

let ensure_net_pool t =
  if not t.w.w_net_pool then begin
    t.env.cpu_burn Gconst.net_pool_init_time;
    touch_charged t.env.cpu_burn t.env.space ~vpn:Gconst.net_region_base ~pages:Gconst.net_pool_init_pages;
    t.w.w_net_pool <- true
  end

let ensure_net_send t =
  if not t.w.w_net_send then begin
    t.env.cpu_burn Gconst.net_send_init_time;
    touch_charged t.env.cpu_burn t.env.space
      ~vpn:(Gconst.net_region_base + send_offset)
      ~pages:Gconst.net_send_init_pages;
    t.w.w_net_send <- true
  end

let ensure_compiler t =
  if not t.w.w_compiler then begin
    t.env.cpu_burn Gconst.compiler_init_time;
    t.alloc_to_heap <- true;
    let st = Galloc.alloc t.heap (Gconst.compiler_init_pages * Mem.Mconfig.page_size) in
    t.env.cpu_burn (fault_time st);
    t.w.w_compiler <- true
  end

let ensure_exec_cache t =
  if not t.w.w_exec then begin
    t.env.cpu_burn Gconst.exec_init_time;
    t.alloc_to_heap <- true;
    let st = Galloc.alloc t.heap (Gconst.exec_init_pages * Mem.Mconfig.page_size) in
    t.env.cpu_burn (fault_time st);
    t.w.w_exec <- true
  end

(* {1 Steady-state driver operations} *)

let on_accept t =
  ensure_net_pool t;
  t.env.cpu_burn Gconst.accept_time;
  let ring_pages = Gconst.conn_ring_pages in
  if t.conn_cursor + Gconst.accept_pages > ring_pages then t.conn_cursor <- 0;
  touch_charged t.env.cpu_burn t.env.space
    ~vpn:(Gconst.net_region_base + ring_offset + t.conn_cursor)
    ~pages:Gconst.accept_pages;
  t.conn_cursor <- t.conn_cursor + Gconst.accept_pages

let reply t conn r =
  ensure_net_send t;
  t.env.cpu_burn Gconst.reply_time;
  touch_charged t.env.cpu_burn t.env.space
    ~vpn:(Gconst.net_region_base + send_offset)
    ~pages:Gconst.reply_pages;
  let data = Driver.encode_reply r in
  if not (Net.Tcp.is_closed conn) then Net.Tcp.send conn data

let compile_into t source =
  ensure_compiler t;
  t.alloc_to_heap <- true;
  match Interp.Minijs.load ~hooks:t.hooks ~host:t.host source with
  | Error msg -> Error msg
  | Ok instance ->
      let compiled = Interp.Minijs.compiled instance in
      let nodes = compiled.Interp.Compile.nodes in
      t.env.cpu_burn
        (Gconst.compile_base_time
        +. (Gconst.compile_time_per_node *. float_of_int nodes));
      let st =
        Galloc.alloc t.heap
          ((Gconst.compile_steady_pages * Mem.Mconfig.page_size)
          + (compiled.Interp.Compile.source_bytes * 4))
      in
      t.env.cpu_burn (fault_time st);
      Ok { source; instance; nodes }

let run_program t loaded args =
  ensure_exec_cache t;
  t.env.cpu_burn Gconst.run_scratch_time;
  touch_charged t.env.cpu_burn t.env.space ~vpn:Gconst.scratch_base ~pages:Gconst.run_scratch_pages;
  t.env.cpu_burn Gconst.args_import_time;
  touch_charged t.env.cpu_burn t.env.space
    ~vpn:(Gconst.scratch_base + Gconst.run_scratch_pages)
    ~pages:Gconst.args_import_pages;
  t.alloc_to_heap <- false;
  let result = Interp.Minijs.run_main loaded.instance ~args_literal:args in
  t.alloc_to_heap <- true;
  result

let handle t conn = function
  | Driver.Ping -> reply t conn Driver.Pong
  | Driver.Init source -> (
      match compile_into t source with
      | Ok loaded ->
          t.program <- Some loaded;
          t.env.hypercalls.Hypercall.breakpoint "compile-ok"
      | Error msg ->
          t.env.hypercalls.Hypercall.breakpoint ("compile-err:" ^ msg))
  | Driver.Run args -> (
      match t.program with
      | None -> reply t conn (Driver.Err_reply "no function initialized")
      | Some loaded -> (
          match run_program t loaded args with
          | Ok result -> reply t conn (Driver.Ok_reply result)
          | Error msg -> reply t conn (Driver.Err_reply msg)))
  | Driver.Warm_net ->
      (* The accept already primed the buffer pool; answering primes the
         send path. *)
      reply t conn (Driver.Ok_reply "warmed")
  | Driver.Warm_exec -> (
      match compile_into t Driver.dummy_script with
      | Error msg -> reply t conn (Driver.Err_reply msg)
      | Ok dummy -> (
          match run_program t dummy "null" with
          | Ok _ -> reply t conn (Driver.Ok_reply "warmed")
          | Error msg -> reply t conn (Driver.Err_reply msg)))
  | Driver.Checkpoint ->
      (* No reply: replying would warm the send path before the base
         snapshot is captured. The breakpoint itself is the ack. *)
      t.env.hypercalls.Hypercall.breakpoint "checkpoint"

let serve t =
  let rec accept_loop () =
    match Net.Tcp.accept_opt t.env.listener with
    | None -> ()
    | Some conn ->
        on_accept t;
        msg_loop conn
  and msg_loop conn =
    match Net.Tcp.recv conn with
    | None -> accept_loop ()
    | Some m ->
        (match Driver.decode_command m.Net.Tcp.data with
        | Error e -> reply t conn (Driver.Err_reply e)
        | Ok cmd -> handle t conn cmd);
        msg_loop conn
  in
  accept_loop ()

let boot ?(on_ready = ignore) env =
  let image = env.image in
  env.cpu_burn image.Image.kernel_boot_time;
  touch_charged env.cpu_burn env.space ~vpn:Gconst.kernel_base ~pages:image.Image.kernel_pages;
  env.cpu_burn image.Image.runtime_init_time;
  touch_charged env.cpu_burn env.space ~vpn:Gconst.runtime_base ~pages:image.Image.runtime_pages;
  env.cpu_burn image.Image.driver_start_time;
  touch_charged env.cpu_burn env.space ~vpn:Gconst.driver_base ~pages:image.Image.driver_pages;
  let t = make_state env in
  on_ready t;
  env.hypercalls.Hypercall.breakpoint "driver-started";
  t

let freeze_program loaded =
  (* The template keeps nothing of this UC's host or hooks, which close
     over its whole guest state; [restore] rebinds both to the deploying
     UC's. *)
  { loaded with instance = Interp.Minijs.freeze loaded.instance }

let capture t =
  {
    s_warmth =
      {
        net_pool = t.w.w_net_pool;
        net_send = t.w.w_net_send;
        compiler = t.w.w_compiler;
        exec_cache = t.w.w_exec;
      };
    s_heap_cursor = Galloc.cursor t.heap;
    s_nursery_cursor = Galloc.cursor t.nursery;
    s_conn_cursor = t.conn_cursor;
    s_program = Option.map freeze_program t.program;
  }

let restore env snap =
  let t = make_state env in
  (* Resuming writes per-instance guest state (event loop, timers, GC
     bookkeeping) regardless of what runs later. *)
  env.cpu_burn Gconst.resume_time;
  touch_charged env.cpu_burn env.space ~vpn:Gconst.resume_base
    ~pages:Gconst.resume_pages;
  t.w.w_net_pool <- snap.s_warmth.net_pool;
  t.w.w_net_send <- snap.s_warmth.net_send;
  t.w.w_compiler <- snap.s_warmth.compiler;
  t.w.w_exec <- snap.s_warmth.exec_cache;
  Galloc.set_cursor t.heap snap.s_heap_cursor;
  Galloc.set_cursor t.nursery snap.s_nursery_cursor;
  t.conn_cursor <- snap.s_conn_cursor;
  t.program <-
    Option.map
      (fun loaded ->
        {
          loaded with
          instance =
            Interp.Minijs.clone ~hooks:t.hooks ~host:t.host loaded.instance;
        })
      snap.s_program;
  t

let warmth t =
  {
    net_pool = t.w.w_net_pool;
    net_send = t.w.w_net_send;
    compiler = t.w.w_compiler;
    exec_cache = t.w.w_exec;
  }

let program_source t = Option.map (fun l -> l.source) t.program

(* Frozen-state views for the snapshot store's content model: which
   function (if any) the snapshot carries, and how far its heap bump
   cursor had advanced — the tail of that extent is the function's
   compiled bytecode, the only heap content that differs between
   functions compiled on the same base. *)
let snapshot_program_source s = Option.map (fun l -> l.source) s.s_program

let snapshot_heap_pages s =
  (s.s_heap_cursor + Mem.Mconfig.page_size - 1) / Mem.Mconfig.page_size
