type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  cmp : 'a -> 'a -> int;
}

let create ~cmp = { data = [||]; size = 0; cmp }

let is_empty t = t.size = 0

(* seussheat: cold — amortized capacity doubling, off the per-event path *)
let grow t x =
  if t.size = Array.length t.data then begin
    let cap = max 16 (2 * Array.length t.data) in
    let data = Array.make cap x in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < t.size && t.cmp t.data.(l) t.data.(i) < 0 then l else i in
  let s = if r < t.size && t.cmp t.data.(r) t.data.(s) < 0 then r else s in
  if s <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(s);
    t.data.(s) <- tmp;
    sift_down t s
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* Drop the stale slot so the heap does not retain the element. *)
      t.data.(t.size) <- t.data.(0);
      sift_down t 0
    end;
    (* seussheat: cold — the option is pop's API result *)
    Some top
  end
