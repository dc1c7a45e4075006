type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = int64 t in
  { state = mix64 s }

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (int64 t) 1L = 1L

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let weighted t arr =
  let total = Array.fold_left (fun acc (w, _) -> acc + w) 0 arr in
  assert (total > 0);
  let pick = int t total in
  let rec go i acc =
    let w, v = arr.(i) in
    let acc = acc + w in
    if pick < acc then v else go (i + 1) acc
  in
  go 0 0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let geometric t ~p =
  assert (p > 0.0 && p <= 1.0);
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.round (log u /. log (1.0 -. p)))

(* Cumulative Zipf weights, summed left to right: a draw scans the
   unboxed float array for the first bound above a uniform pick in
   [0, total), without allocating.  [n] stays small (indirect-call
   target lists). *)
type zipf = { cum : float array; total : float }

let zipf_dist ~n ~s =
  assert (n > 0);
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (float_of_int (k + 1) ** -.s);
    cum.(k) <- !acc
  done;
  { cum; total = !acc }

let zipf t d =
  let pick = float t d.total in
  let cum = d.cum in
  let last = Array.length cum - 1 in
  let i = ref 0 in
  while !i < last && not (pick < cum.(!i)) do
    incr i
  done;
  !i
