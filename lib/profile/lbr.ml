type t = {
  froms : int array;
  tos : int array;
  depth : int;
  drain : from_addr:int -> to_addr:int -> unit;
  mutable fill : int;
  mutable total : int;
}

let create ?(depth = 32) ~drain () =
  if depth <= 0 then invalid_arg "Lbr.create: depth must be positive";
  { froms = Array.make depth 0; tos = Array.make depth 0; depth; drain; fill = 0; total = 0 }

let flush t =
  for i = 0 to t.fill - 1 do
    t.drain ~from_addr:(Array.unsafe_get t.froms i) ~to_addr:(Array.unsafe_get t.tos i)
  done;
  t.total <- t.total + t.fill;
  t.fill <- 0

let record t ~from_addr ~to_addr =
  if t.fill >= t.depth then flush t;
  Array.unsafe_set t.froms t.fill from_addr;
  Array.unsafe_set t.tos t.fill to_addr;
  t.fill <- t.fill + 1

let drained t = t.total
