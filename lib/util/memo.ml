module Trace = Pibe_trace.Trace

type ('k, 'v) t = {
  equal : 'k -> 'k -> bool;
  capacity : int;
  counters : (string * string) option;  (* hit and miss counter names *)
  lock : Mutex.t;
  mutable entries : ('k * 'v) list;  (* MRU first, at most [capacity] *)
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(capacity = max_int) ?counter ~equal () =
  if capacity < 1 then invalid_arg "Memo.create: capacity must be at least 1";
  {
    equal;
    capacity;
    counters = Option.map (fun c -> (c ^ "-hit", c ^ "-miss")) counter;
    lock = Mutex.create ();
    entries = [];
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

(* The value recorded for [k], moved to the front.  Call with the lock
   held.  A hit on the front entry, the common case, keeps the list. *)
let promote t k =
  match t.entries with
  | (k', v) :: _ when t.equal k' k -> Some v
  | entries ->
    let rec go acc = function
      | [] -> None
      | ((k', v) as e) :: rest ->
        if t.equal k' k then begin
          t.entries <- e :: List.rev_append acc rest;
          Some v
        end
        else go (e :: acc) rest
    in
    go [] entries

let rec take n = function
  | e :: rest when n > 0 -> e :: take (n - 1) rest
  | _ -> []

let note t ~hit =
  Atomic.incr (if hit then t.hits else t.misses);
  match t.counters with
  | Some (h, m) when Trace.enabled () ->
    Trace.counter ~cat:"sched" (if hit then h else m) [ ("count", Trace.Int 1) ]
  | _ -> ()

let get t k compute =
  match Mutex.protect t.lock (fun () -> promote t k) with
  | Some v ->
    note t ~hit:true;
    v
  | None ->
    note t ~hit:false;
    let fresh = compute () in
    Mutex.protect t.lock (fun () ->
        match promote t k with
        | Some v -> v  (* a racing domain finished first *)
        | None ->
          let entries = (k, fresh) :: t.entries in
          t.entries <-
            (if List.compare_length_with entries t.capacity > 0 then take t.capacity entries
             else entries);
          fresh)

let mem t k = Mutex.protect t.lock (fun () -> List.exists (fun (k', _) -> t.equal k' k) t.entries)
let keys t = Mutex.protect t.lock (fun () -> List.map fst t.entries)
let stats t = (Atomic.get t.hits, Atomic.get t.misses)
