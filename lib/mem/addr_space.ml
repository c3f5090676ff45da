type fault = No_fault | Zero_fill | Cow_copy

type t = {
  frames : Frame.t;
  pt : Page_table.t;
  mutable zero_fills : int;
  mutable cow_copies : int;
  (* Incremental counters: captures and deploys must be O(root), never
     O(mapped pages), for the 65k-function experiments to run. *)
  mutable dirty_count : int;
  mutable mapped_count : int;
  (* Instrumentation: invoked with a count of resolved faults of one
     kind, once per [touch_write] or [write_range]. The owner (a UC)
     installs it so the fault handler feeds the node's telemetry without
     this layer depending on it. *)
  mutable on_fault : fault -> int -> unit;
  (* Access trace (REAP-style working-set recording): while armed, every
     resolved fault appends its vpn, in fault order, to an unboxed
     buffer ([trace_buf.(0 .. trace_len - 1)]). *)
  mutable tracing : bool;
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

let create frames =
  {
    frames;
    pt = Page_table.create frames;
    zero_fills = 0;
    cow_copies = 0;
    dirty_count = 0;
    mapped_count = 0;
    on_fault = no_hook;
    tracing = false;
    trace_buf = [||];
    trace_len = 0;
  }

(* The source must already be frozen (read-only + copy-on-write, clean
   dirty bits) — [Snapshot.capture] guarantees this. Sweeping the leaves
   here would make deploys O(mapped pages) instead of O(root). *)
let of_table ?(mapped_hint = -1) frames source =
  let pt = Page_table.clone_shallow source in
  let mapped =
    if mapped_hint >= 0 then mapped_hint else Page_table.count_present pt
  in
  {
    frames;
    pt;
    zero_fills = 0;
    cow_copies = 0;
    dirty_count = 0;
    mapped_count = mapped;
    on_fault = no_hook;
    tracing = false;
    trace_buf = [||];
    trace_len = 0;
  }

let table t = t.pt

let set_fault_hook t f = t.on_fault <- f

let trace_limit = 65_536

let start_trace t =
  t.tracing <- true;
  t.trace_len <- 0

(* seussheat: cold — amortized doubling: O(log pages) growths per armed trace *)
let grow_trace t =
  let buf = Array.make (max 256 (2 * t.trace_len)) 0 in
  Array.blit t.trace_buf 0 buf 0 t.trace_len;
  t.trace_buf <- buf

let record_fault t vpn =
  (* A runaway trace (a function touching more pages than any sensible
     working set) stops recording rather than growing unboundedly;
     [take_trace] still returns the prefix. *)
  if t.tracing && t.trace_len < trace_limit then begin
    if t.trace_len = Array.length t.trace_buf then grow_trace t;
    t.trace_buf.(t.trace_len) <- vpn;
    t.trace_len <- t.trace_len + 1
  end

let take_trace t =
  let vpns = Array.sub t.trace_buf 0 t.trace_len in
  t.tracing <- false;
  t.trace_buf <- [||];
  t.trace_len <- 0;
  vpns

let tracing t = t.tracing

(* Resolve one page write with no telemetry: allocate a zero frame for
   an absent page, copy a copy-on-write one privately, or just set the
   flags on a writable one. Every fault path — demand, range, batched
   prefault — goes through here, so they cannot drift apart. *)
let resolve (t : t) ~vpn =
  let e = Page_table.get t.pt ~vpn in
  if not (Page_table.Entry.present e) then begin
    let frame = Frame.alloc t.frames in
    Page_table.set t.pt ~vpn
      (Page_table.Entry.make ~frame ~writable:true ~cow:false ~dirty:true
         ~accessed:true);
    t.zero_fills <- t.zero_fills + 1;
    t.dirty_count <- t.dirty_count + 1;
    t.mapped_count <- t.mapped_count + 1;
    Zero_fill
  end
  else if Page_table.Entry.writable e then begin
    if not (Page_table.Entry.dirty e) then t.dirty_count <- t.dirty_count + 1;
    if not (Page_table.Entry.dirty e && Page_table.Entry.accessed e) then
      Page_table.set t.pt ~vpn (Page_table.Entry.written e);
    No_fault
  end
  else if Page_table.Entry.cow e then begin
    (* Clone the shared frame into a private writable copy. *)
    let frame = Frame.alloc t.frames in
    Page_table.set t.pt ~vpn
      (Page_table.Entry.make ~frame ~writable:true ~cow:false ~dirty:true
         ~accessed:true);
    t.cow_copies <- t.cow_copies + 1;
    t.dirty_count <- t.dirty_count + 1;
    Cow_copy
  end
  else invalid_arg "Addr_space: write to a read-only, non-COW page"

let touch_write t ~vpn =
  match resolve t ~vpn with
  | No_fault -> No_fault
  | fault ->
      record_fault t vpn;
      t.on_fault fault 1;
      fault

let touch_read t ~vpn =
  let e = Page_table.get t.pt ~vpn in
  if Page_table.Entry.present e && not (Page_table.Entry.accessed e) then
    Page_table.set t.pt ~vpn (Page_table.Entry.with_flags ~accessed:true e)

(* One hook call per fault kind for the whole range, with the count the
   lifetime counters moved by since [zero0]/[cow0]. *)
let report_faults (t : t) ~zero0 ~cow0 =
  let zero = t.zero_fills - zero0 and cow = t.cow_copies - cow0 in
  if zero > 0 then t.on_fault Zero_fill zero;
  if cow > 0 then t.on_fault Cow_copy cow

(* Pages resolve silently and the hook hears one count per kind at the
   end: per-page telemetry would cost more host time than the faults it
   describes. Pages resolved before a raise (an OOM) are still reported,
   so hook sums always equal the lifetime counters. *)
let write_range (t : t) ~vpn ~pages =
  if pages < 0 then invalid_arg "Addr_space.write_range: negative count";
  let zero0 = t.zero_fills and cow0 = t.cow_copies in
  (match
     for p = vpn to vpn + pages - 1 do
       match resolve t ~vpn:p with No_fault -> () | _ -> record_fault t p
     done
   with
  | () -> report_faults t ~zero0 ~cow0
  | exception e ->
      report_faults t ~zero0 ~cow0;
      raise e);
  (* seussheat: cold — one 4-word result per range, not per page *)
  {
    pages;
    zero_fills = t.zero_fills - zero0;
    cow_copies = t.cow_copies - cow0;
  }

let write_bytes t ~addr ~len =
  if addr < 0 || len < 0 then invalid_arg "Addr_space.write_bytes: negative";
  if len = 0 then { pages = 0; zero_fills = 0; cow_copies = 0 }
  else begin
    let first = addr / Mconfig.page_size in
    let last = (addr + len - 1) / Mconfig.page_size in
    write_range t ~vpn:first ~pages:(last - first + 1)
  end

(* Batched working-set installation (REAP): bring every vpn to exactly
   the state a demand [touch_write] would leave it in, through the same
   [resolve] demand faults use. Lifetime/mapped/dirty counters move
   exactly as under demand faulting (prefaulted pages are private pages
   and must charge footprints identically); only the fault hook and the
   access trace stay silent, because no faults occur — the caller
   charges one batched cost from the returned stats instead. Structural
   sharing is preserved: only leaves containing prefaulted vpns are
   privatized. @raise Frame.Out_of_memory mid-batch like [write_range]. *)
let prefault (t : t) ~vpns =
  let zero0 = t.zero_fills and cow0 = t.cow_copies in
  let requested = Array.length vpns in
  for i = 0 to requested - 1 do
    ignore (resolve t ~vpn:vpns.(i))
  done;
  let zero = t.zero_fills - zero0 and cow = t.cow_copies - cow0 in
  (* seussheat: cold — one 4-word result per batch, not per page *)
  {
    requested;
    prefault_zero_fills = zero;
    prefault_cow_copies = cow;
    already_mapped = requested - zero - cow;
  }

let mapped_pages t = t.mapped_count
let mapped_pages_slow t = Page_table.count_present t.pt
let dirty_pages t = t.dirty_count
let dirty_pages_slow t = Page_table.count_dirty t.pt

let clear_dirty t =
  Page_table.clear_dirty_all t.pt;
  t.dirty_count <- 0

let freeze t =
  Page_table.mark_all_cow_clean t.pt;
  t.dirty_count <- 0
let lifetime_zero_fills (t : t) = t.zero_fills
let lifetime_cow_copies (t : t) = t.cow_copies
let release t = Page_table.release t.pt
