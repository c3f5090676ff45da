type region = {
  space : Mem.Addr_space.t;
  base_vpn : int;
  mutable to_merge : int;  (* dedupable pages not yet merged *)
  mutable cursor : int;  (* pages of this region already merged *)
}

type t = {
  env : Seuss.Osenv.t;
  master : Mem.Frame.frame;
  pending : region Queue.t;
  mutable merged : int;
  mutable pending_total : int;
}

(* Cost of comparing + checksumming one candidate page during a scan. *)
let scan_cpu_per_page = 2.0e-6

(* A generous `ksmd`, and the share of a fresh interpreter process's
   private pages that duplicate the master image. *)
let scan_rate_pages_per_s = 25_000.0
let dedup_fraction = 0.45

let create env =
  {
    env;
    master = Mem.Frame.alloc env.Seuss.Osenv.frames;
    pending = Queue.create ();
    merged = 0;
    pending_total = 0;
  }

let register t space ~private_base_vpn ~private_pages =
  let dedupable = int_of_float (dedup_fraction *. float_of_int private_pages) in
  if dedupable > 0 then begin
    Queue.add
      { space; base_vpn = private_base_vpn; to_merge = dedupable; cursor = 0 }
      t.pending;
    t.pending_total <- t.pending_total + dedupable
  end

(* Merge up to [budget] pages from the backlog: redirect each entry to
   the master frame (read-only, copy-on-write — a write un-merges), and
   the page-table layer releases the private frame. *)
let merge_batch t budget =
  let merged_now = ref 0 in
  while !merged_now < budget && not (Queue.is_empty t.pending) do
    let region = Queue.peek t.pending in
    let table = Mem.Addr_space.table region.space in
    let n = min region.to_merge (budget - !merged_now) in
    for i = 0 to n - 1 do
      let vpn = region.base_vpn + region.cursor + i in
      let entry = Mem.Page_table.get table ~vpn in
      if Mem.Page_table.Entry.present entry then begin
        Mem.Frame.incref t.env.Seuss.Osenv.frames t.master;
        Mem.Page_table.set table ~vpn
          (Mem.Page_table.Entry.make ~frame:t.master ~writable:false ~cow:true
             ~dirty:false)
      end
    done;
    region.cursor <- region.cursor + n;
    region.to_merge <- region.to_merge - n;
    merged_now := !merged_now + n;
    if region.to_merge = 0 then ignore (Queue.pop t.pending)
  done;
  t.merged <- t.merged + !merged_now;
  t.pending_total <- t.pending_total - !merged_now;
  !merged_now

let scan_once t =
  let total = ref 0 in
  let rec go () =
    let n = merge_batch t 4096 in
    if n > 0 then begin
      Seuss.Osenv.burn t.env (float_of_int n *. scan_cpu_per_page);
      total := !total + n;
      go ()
    end
  in
  go ();
  !total

let run_daemon t ~stop =
  let engine = t.env.Seuss.Osenv.engine in
  Sim.Engine.spawn engine ~name:"ksmd" (fun () ->
      let tick = 0.1 in
      let budget_per_tick = int_of_float (scan_rate_pages_per_s *. tick) in
      let rec loop () =
        if not (Sim.Ivar.is_full stop) then begin
          let n = merge_batch t budget_per_tick in
          if n > 0 then
            Seuss.Osenv.burn t.env (float_of_int n *. scan_cpu_per_page);
          Sim.Engine.sleep tick;
          loop ()
        end
      in
      loop ())

let merged_pages t = t.merged

let pending_pages t = t.pending_total
