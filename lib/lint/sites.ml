(* The audited frame acquire/release site list.

   Every call to Frame.alloc / Frame.incref / Frame.decref — or to the
   per-leaf Frame.incref_leaf / Frame.decref_leaf, which audit as
   Incref / Decref — must happen inside one of the (file, top-level
   binding, operation) triples below;
   the checker reports any other call site as [frame-site]. The list is
   the reviewable inventory of where physical frames change hands — when
   adding a site, check its release pairing before extending it. *)

type op = Alloc | Incref | Decref

let op_of_name = function
  | "alloc" -> Some Alloc
  | "incref" | "incref_leaf" -> Some Incref
  | "decref" | "decref_leaf" -> Some Decref
  | _ -> None

(* (repo-relative file, enclosing top-level binding, operation) *)
let audited : (string * string * op) list =
  [
    (* COW fault paths: a private copy or a zero-fill allocates, and a
       private copy drops the shared frame's reference (demand writes,
       write ranges and batched prefault all resolve pages through
       Page_table.write_pages, a leaf at a time in write_run). An
       entry swap through set drops the old mapping's reference; a
       privatized leaf takes, and a released one drops, a reference per
       present entry. *)
    ("lib/mem/page_table.ml", "write_run", Alloc);
    ("lib/mem/page_table.ml", "write_run", Decref);
    ("lib/mem/page_table.ml", "privatize", Incref);
    ("lib/mem/page_table.ml", "set", Decref);
    ("lib/mem/page_table.ml", "release", Decref);
    (* KSM baseline: the shared master page, and one reference per
       merged duplicate. *)
    ("lib/baselines/ksm.ml", "create", Alloc);
    ("lib/baselines/ksm.ml", "merge_batch", Incref);
    (* Snapshot store dedup: rewriting a delta entry to the canonical
       frame of its content takes the reference Page_table.set consumes
       (set itself drops the replaced private frame's reference). *)
    ("lib/seuss/snapstore.ml", "adopt_canonical", Incref);
  ]

let allowed ~file ~binding op =
  List.exists
    (fun (f, b, o) -> String.equal f file && String.equal b binding && o = op)
    audited
