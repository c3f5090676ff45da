type fault = No_fault | Zero_fill | Cow_copy

type t = {
  pt : Page_table.t;
  (* Lifetime fault counters and the dirty-page count, moved page by
     page by [Page_table.write_pages]. Captures and deploys must be
     O(root), never O(mapped pages), for the 65k-function experiments
     to run, so these stay incremental. *)
  counts : Page_table.write_counts;
  (* Only a zero fill maps a page, so the mapped count is this base plus
     the lifetime zero fills. *)
  mapped_base : int;
  (* Instrumentation: invoked with a count of resolved faults of one
     kind, once per [touch_write] or [write_range]. The owner (a UC)
     installs it so the fault handler feeds the node's telemetry without
     this layer depending on it. *)
  mutable on_fault : fault -> int -> unit;
  (* Access trace (REAP-style working-set recording): while armed,
     [recorder] appends every resolved fault's vpn, in fault order, to
     an unboxed buffer ([trace_buf.(0 .. trace_len - 1)]); unarmed it is
     [no_record]. *)
  mutable tracing : bool;
  mutable recorder : int -> unit;
  mutable trace_buf : int array;
  mutable trace_len : int;
}

type write_stats = { pages : int; zero_fills : int; cow_copies : int }

type prefault_stats = {
  requested : int;
  prefault_zero_fills : int;
  prefault_cow_copies : int;
  already_mapped : int;
}

let no_hook (_ : fault) (_ : int) = ()
let no_record (_ : int) = ()

let make pt ~mapped =
  {
    pt;
    counts = { Page_table.zero_fills = 0; cow_copies = 0; dirty = 0 };
    mapped_base = mapped;
    on_fault = no_hook;
    tracing = false;
    recorder = no_record;
    trace_buf = [||];
    trace_len = 0;
  }

let create frames = make (Page_table.create frames) ~mapped:0

(* The source must already be frozen (read-only + copy-on-write, clean
   dirty bits) — [Snapshot.capture] guarantees this. Sweeping the leaves
   here would make deploys O(mapped pages) instead of O(root). Writes
   reach the allocator through the table's family, so the [frames]
   argument is not read; it stays for the callers that pass it. *)
let of_table ?(mapped_hint = -1) (_frames : Frame.t) source =
  let pt = Page_table.clone_shallow source in
  make pt
    ~mapped:
      (if mapped_hint >= 0 then mapped_hint else Page_table.count_present pt)

let table t = t.pt

let set_fault_hook t f = t.on_fault <- f

let trace_limit = 65_536

let grow_trace t =
  let buf = Array.make (Int.max 256 (2 * t.trace_len)) 0 in
  Array.blit t.trace_buf 0 buf 0 t.trace_len;
  t.trace_buf <- buf

let record_fault t vpn =
  (* A runaway trace (a function touching more pages than any sensible
     working set) stops recording rather than growing unboundedly;
     [take_trace] still returns the prefix. *)
  if t.trace_len < trace_limit then begin
    if t.trace_len = Array.length t.trace_buf then grow_trace t;
    t.trace_buf.(t.trace_len) <- vpn;
    t.trace_len <- t.trace_len + 1
  end

let start_trace t =
  t.tracing <- true;
  t.recorder <- record_fault t;
  t.trace_len <- 0

let take_trace t =
  let vpns = Array.sub t.trace_buf 0 t.trace_len in
  t.tracing <- false;
  t.recorder <- no_record;
  t.trace_buf <- [||];
  t.trace_len <- 0;
  vpns

let tracing t = t.tracing

let touch_write t ~vpn =
  let c = t.counts in
  let zero0 = c.zero_fills and cow0 = c.cow_copies in
  Page_table.write_pages t.pt ~vpn ~pages:1 c t.recorder;
  if c.zero_fills > zero0 then begin
    t.on_fault Zero_fill 1;
    Zero_fill
  end
  else if c.cow_copies > cow0 then begin
    t.on_fault Cow_copy 1;
    Cow_copy
  end
  else No_fault

(* One hook call per fault kind for the whole range, with the count the
   lifetime counters moved by since [zero0]/[cow0]. *)
let report_faults t ~zero0 ~cow0 =
  let zero = t.counts.zero_fills - zero0
  and cow = t.counts.cow_copies - cow0 in
  if zero > 0 then t.on_fault Zero_fill zero;
  if cow > 0 then t.on_fault Cow_copy cow

(* Pages resolve silently and the hook hears one count per kind at the
   end: per-page telemetry would cost more host time than the faults it
   describes. Pages resolved before a raise (an OOM) are still reported,
   so hook sums always equal the lifetime counters. *)
let write_range t ~vpn ~pages =
  if pages < 0 then invalid_arg "Addr_space.write_range: negative count";
  let c = t.counts in
  let zero0 = c.zero_fills and cow0 = c.cow_copies in
  (match Page_table.write_pages t.pt ~vpn ~pages c t.recorder with
  | () -> report_faults t ~zero0 ~cow0
  | exception e ->
      report_faults t ~zero0 ~cow0;
      raise e);
  { pages; zero_fills = c.zero_fills - zero0; cow_copies = c.cow_copies - cow0 }

(* The end of the run of consecutive vpns starting at [vpns.(i)]: the
   least [j > i] with [vpns.(j) <> vpns.(j - 1) + 1]. *)
let rec run_end vpns i =
  if i + 1 < Array.length vpns && vpns.(i + 1) = vpns.(i) + 1 then
    run_end vpns (i + 1)
  else i + 1

(* Batched working-set installation (REAP): bring every vpn to exactly
   the state a demand [touch_write] would leave it in, through the same
   [Page_table.write_pages] demand faults use, one call per run of
   consecutive vpns. Lifetime/mapped/dirty counters move exactly as
   under demand faulting (prefaulted pages are private pages and must
   charge footprints identically); only the fault hook and the access
   trace stay silent, because no faults occur — the caller charges one
   batched cost from the returned stats instead. Structural sharing is
   preserved: only leaves containing prefaulted vpns are privatized.
   @raise Frame.Out_of_memory mid-batch like [write_range].

   [prefault] tail-calls this loop, which builds the stats itself, so
   the batch adds no frame of its own below the caller's. *)
let rec prefault_runs t vpns i ~zero0 ~cow0 =
  if i < Array.length vpns then begin
    let j = run_end vpns i in
    Page_table.write_pages t.pt ~vpn:vpns.(i) ~pages:(j - i) t.counts no_record;
    prefault_runs t vpns j ~zero0 ~cow0
  end
  else begin
    let c = t.counts in
    let zero = c.zero_fills - zero0 and cow = c.cow_copies - cow0 in
    {
      requested = i;
      prefault_zero_fills = zero;
      prefault_cow_copies = cow;
      already_mapped = i - zero - cow;
    }
  end

let prefault t ~vpns =
  prefault_runs t vpns 0 ~zero0:t.counts.zero_fills ~cow0:t.counts.cow_copies

let mapped_pages t = t.mapped_base + t.counts.zero_fills
let mapped_pages_slow t = Page_table.count_present t.pt
let dirty_pages t = t.counts.dirty
let dirty_pages_slow t = Page_table.count_dirty t.pt

let freeze t =
  Page_table.mark_all_cow_clean t.pt;
  t.counts.dirty <- 0

let lifetime_zero_fills t = t.counts.zero_fills
let lifetime_cow_copies t = t.counts.cow_copies
let release t = Page_table.release t.pt
