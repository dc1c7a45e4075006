module Trace = Pibe_trace.Trace

(* The entries live in parallel arrays, one slot each.  Two chains run
   through the slots as int links (-1 ends a chain), so moving an entry
   on a hit writes only ints: the recency list, doubly linked from [mru]
   to [lru] through [newer]/[older], and each bucket's chain through
   [next], which is kept most recently used first too.  Without a hash
   every key falls in bucket 0, so that chain is the recency list itself
   and a lookup scans in MRU order.  The slot arrays grow by doubling
   but never past [capacity]; once they are full, a new entry takes the
   least recently used entry's slot. *)
type ('k, 'v) t = {
  equal : 'k -> 'k -> bool;
  hash : 'k -> int;
  capacity : int;
  counters : (string * string) option;  (* hit and miss counter names *)
  lock : Mutex.t;
  mutable key_at : 'k array;
  mutable value_at : 'v array;
  mutable hash_at : int array;
  mutable newer : int array;
  mutable older : int array;
  mutable next : int array;
  mutable buckets : int array;  (* each chain's first slot; a power of two long *)
  mutable size : int;
  mutable mru : int;
  mutable lru : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = max_int) ?counter ?hash ~equal () =
  if capacity < 1 then invalid_arg "Memo.create: capacity must be at least 1";
  {
    equal;
    hash = Option.value hash ~default:(fun _ -> 0);
    capacity;
    counters = Option.map (fun c -> (c ^ "-hit", c ^ "-miss")) counter;
    lock = Mutex.create ();
    key_at = [||];
    value_at = [||];
    hash_at = [||];
    newer = [||];
    older = [||];
    next = [||];
    buckets = Array.make 16 (-1);
    size = 0;
    mru = -1;
    lru = -1;
    hits = 0;
    misses = 0;
  }

(* Everything below up to [get] runs with the lock held. *)

let index t h = h land (Array.length t.buckets - 1)

(* Takes slot [i] off the recency list; its own links are left stale. *)
let unlink t i =
  let n = t.newer.(i) and o = t.older.(i) in
  if n < 0 then t.mru <- o else t.older.(n) <- o;
  if o < 0 then t.lru <- n else t.newer.(o) <- n

let push_front t i =
  t.newer.(i) <- -1;
  t.older.(i) <- t.mru;
  if t.mru < 0 then t.lru <- i else t.newer.(t.mru) <- i;
  t.mru <- i

(* The slot recorded for [k] in bucket [b], scanning from slot [i] (with
   [prev] before it), moved to the front of both chains; -1 if there is
   none.  A hit on the front entry, the common case, changes nothing.
   Not a local closure, so a lookup allocates nothing. *)
let rec promote_from t h k b prev i =
  if i < 0 then -1
  else if t.hash_at.(i) = h && t.equal t.key_at.(i) k then begin
    if prev >= 0 then begin
      t.next.(prev) <- t.next.(i);
      t.next.(i) <- t.buckets.(b);
      t.buckets.(b) <- i
    end;
    if t.mru <> i then begin
      unlink t i;
      push_front t i
    end;
    i
  end
  else promote_from t h k b i t.next.(i)

let promote t h k =
  let b = index t h in
  promote_from t h k b (-1) t.buckets.(b)

let drop_from_bucket t i =
  let b = index t t.hash_at.(i) in
  let rec go prev j =
    if j <> i then go j t.next.(j)
    else if prev < 0 then t.buckets.(b) <- t.next.(i)
    else t.next.(prev) <- t.next.(i)
  in
  go (-1) t.buckets.(b)

(* Doubles the bucket array, refilling each chain oldest entry first so
   it stays most recently used first. *)
let rehash t =
  t.buckets <- Array.make (2 * Array.length t.buckets) (-1);
  let rec refill i =
    if i >= 0 then begin
      let b = index t t.hash_at.(i) in
      t.next.(i) <- t.buckets.(b);
      t.buckets.(b) <- i;
      refill t.newer.(i)
    end
  in
  refill t.lru

(* Doubles the slot arrays, up to [capacity].  The new slots hold [k] and
   [v], which are about to be recorded: an unused slot never keeps an
   evicted entry alive, since eviction starts only once every slot is in
   use. *)
let grow_slots t k v =
  let n = Array.length t.key_at in
  let extra = min (t.capacity - n) (max 8 n) in
  let extend a fill = Array.append a (Array.make extra fill) in
  t.key_at <- extend t.key_at k;
  t.value_at <- extend t.value_at v;
  t.hash_at <- extend t.hash_at 0;
  t.newer <- extend t.newer (-1);
  t.older <- extend t.older (-1);
  t.next <- extend t.next (-1)

let add t h k v =
  let i =
    if t.size < t.capacity then begin
      if t.size = Array.length t.key_at then grow_slots t k v;
      t.size <- t.size + 1;
      t.size - 1
    end
    else begin
      let i = t.lru in
      drop_from_bucket t i;
      unlink t i;
      i
    end
  in
  t.key_at.(i) <- k;
  t.value_at.(i) <- v;
  t.hash_at.(i) <- h;
  let b = index t h in
  t.next.(i) <- t.buckets.(b);
  t.buckets.(b) <- i;
  push_front t i;
  if t.size > Array.length t.buckets then rehash t

let note t ~hit =
  match t.counters with
  | Some (h, m) when Trace.enabled () ->
    Trace.counter ~cat:"sched" (if hit then h else m) [ ("count", Trace.Int 1) ]
  | _ -> ()

(* The first lookup locks by hand rather than through [Mutex.protect], so
   a hit allocates nothing. *)
let get t k compute =
  let h = t.hash k in
  Mutex.lock t.lock;
  let i =
    match promote t h k with
    | i -> i
    | exception e ->
      Mutex.unlock t.lock;
      raise e
  in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    let v = t.value_at.(i) in
    Mutex.unlock t.lock;
    note t ~hit:true;
    v
  end
  else begin
    t.misses <- t.misses + 1;
    Mutex.unlock t.lock;
    note t ~hit:false;
    let fresh = compute k in
    Mutex.protect t.lock (fun () ->
        let i = promote t h k in
        if i >= 0 then t.value_at.(i)  (* a racing domain finished first *)
        else begin
          add t h k fresh;
          fresh
        end)
  end

let mem t k =
  let h = t.hash k in
  let rec go i = i >= 0 && ((t.hash_at.(i) = h && t.equal t.key_at.(i) k) || go t.next.(i)) in
  Mutex.protect t.lock (fun () -> go t.buckets.(index t h))

let keys t =
  let rec go acc i = if i < 0 then acc else go (t.key_at.(i) :: acc) t.newer.(i) in
  Mutex.protect t.lock (fun () -> go [] t.lru)

let stats t = Mutex.protect t.lock (fun () -> (t.hits, t.misses))
