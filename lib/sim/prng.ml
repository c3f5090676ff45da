(* The splitmix64 state lives in 8 bytes rather than a [mutable int64]
   field, which would box a fresh int64 on every step. It is read and
   written with [Bytes.get_int64_ne]/[set_int64_ne] by inlined code, so
   a draw allocates nothing beyond, for a caller in another unit that
   cannot inline it, its boxed result (see prng.mli). *)
type t = bytes

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* seussheat: cold — inlined into [next], its Int64 steps stay unboxed in registers *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  (* seussheat: cold — read from and written back to the bytes unboxed *)
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = create (next t)

(* 53 high-quality bits. Below 2^53 they convert to a float exactly
   through [int], which skips [Int64.to_float]'s C call. *)
let[@inline] bits53 t =
  (* seussheat: cold — [next] is inlined here, so no int64 is boxed *)
  Int64.to_int (Int64.shift_right_logical (next t) 11)

let[@inline] float t = Float.of_int (bits53 t) *. 0x1p-53

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* 62 bits so the value fits OCaml's 63-bit native int non-negatively. *)
  (* seussheat: cold — [next] is inlined here, so no int64 is boxed *)
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  bits mod bound

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
