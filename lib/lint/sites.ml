(* The audited frame acquire/release site list.

   Every call to Frame.alloc / Frame.incref / Frame.decref must happen
   inside one of the (file, top-level binding, operation) triples below;
   the checker reports any other call site as [frame-site]. The list is
   the reviewable inventory of where physical frames change hands — when
   adding a site, check its release pairing before extending it. *)

type op = Alloc | Incref | Decref

let op_of_name = function
  | "alloc" -> Some Alloc
  | "incref" -> Some Incref
  | "decref" -> Some Decref
  | _ -> None

(* (repo-relative file, enclosing top-level binding, operation) *)
let audited : (string * string * op) list =
  [
    (* COW fault paths: a private copy or a zero-fill allocates; the
       page-table entry swap drops the old mapping's reference. *)
    ("lib/mem/addr_space.ml", "touch_write", Alloc);
    ("lib/mem/addr_space.ml", "prefault", Alloc);
    ("lib/mem/page_table.ml", "private_leaf", Incref);
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

(* The ownership transfer registry for the seussown pass.

   An acquire site listed here hands the resource to a longer-lived
   structure (a record field, a cache, a page table) instead of
   releasing it before returning; the release happens later through
   that structure's own teardown. Each entry names where the matching
   release lives, so the pairing stays reviewable the same way the
   frame site list above does. *)

type resource = Frame_ref | Snap_ref | Uc_ctx

let resource_name = function
  | Frame_ref -> "frame"
  | Snap_ref -> "snapshot"
  | Uc_ctx -> "uc"

(* (repo-relative file, enclosing top-level binding, resource, where the
   release lives) *)
let transfers : (string * string * resource * string) list =
  [
    (* Uc.deploy takes the dependency reference the UC record owns for
       its lifetime; Uc.destroy drops it on the Running -> Dead
       transition. *)
    ("lib/seuss/uc.ml", "deploy", Snap_ref, "released by Uc.destroy");
    (* The audited frame acquire sites hand their reference to the page
       table / KSM master map; Page_table.set and Page_table.release
       drop them. *)
    ("lib/mem/addr_space.ml", "touch_write", Frame_ref,
     "installed via Page_table.set; released by set/release");
    ("lib/mem/addr_space.ml", "prefault", Frame_ref,
     "installed via Page_table.set; released by set/release");
    ("lib/mem/page_table.ml", "private_leaf", Frame_ref,
     "the cloned leaf owns the extra reference; released by set/release");
    ("lib/baselines/ksm.ml", "create", Frame_ref,
     "the KSM master map owns the frame until the allocator is dropped");
    ("lib/baselines/ksm.ml", "merge_batch", Frame_ref,
     "merged duplicates reference the master frame; Page_table.set \
      drops the replaced private copy");
    ("lib/seuss/snapstore.ml", "adopt_canonical", Frame_ref,
     "the reference is consumed by the caller's Page_table.set");
  ]

let transfer ~file ~binding res =
  List.find_map
    (fun (f, b, r, why) ->
      if String.equal f file && String.equal b binding && r = res then
        Some why
      else None)
    transfers
