(* Merge-throughput microbenchmark for the sharded profile aggregator.

   The fleet aggregator keeps one ring of window profiles per instance
   and builds each training profile with a single batched
   [Profile.merge_weighted] over every live snapshot.  This harness
   measures how that batched merge scales with shard count (ring depth
   fixed), and compares it against the naive alternative the batched
   design replaces: folding pairwise [Profile.merge] over the same
   snapshots, which rebuilds the accumulator table once per snapshot.

   Usage:
     bench/merge_bench.exe [--repeats N] [--depth N] [--sites N]

   Output: one "merge <shards> <parts> <batched-ms> <fold-ms>
   <profiles/s>" line per shard count (machine-readable; the numbers in
   BENCH_PR7.json come from this), then a short table. *)

module Rng = Pibe_util.Rng
module Profile = Pibe_profile.Profile

let repeats = ref 5
let depth = ref 4
let sites = ref 2000

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--repeats" :: n :: rest ->
      repeats := int_of_string n;
      go rest
    | "--depth" :: n :: rest ->
      depth := int_of_string n;
      go rest
    | "--sites" :: n :: rest ->
      sites := int_of_string n;
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv))

(* A synthetic window profile shaped like the fleet's real ones: mostly
   direct counters, a band of indirect sites with small value profiles,
   and per-function entry counts.  Each snapshot draws from its own RNG
   stream so shards overlap on keys (the interesting merge case) but
   disagree on counts. *)
let snapshot rng ~sites =
  let p = Profile.create () in
  let indirect = sites / 5 in
  for origin = 0 to sites - indirect - 1 do
    Profile.add_direct p ~origin ~count:(1 + Rng.int rng 1000)
  done;
  for origin = sites - indirect to sites - 1 do
    let targets = 1 + Rng.int rng 4 in
    for t = 0 to targets - 1 do
      Profile.add_indirect p ~origin
        ~target:(Printf.sprintf "f%d" ((origin + t) mod 97))
        ~count:(1 + Rng.int rng 500)
    done
  done;
  for f = 0 to 199 do
    Profile.add_entry p ~func:(Printf.sprintf "f%d" f) ~count:(1 + Rng.int rng 2000)
  done;
  p

let time_best f =
  let best = ref infinity in
  for _ = 1 to !repeats do
    let t0 = Pibe_trace.Trace.now_s () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Pibe_trace.Trace.now_s () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let () =
  parse_args ();
  let master = Rng.create 7 in
  let shard_counts = [ 1; 2; 4; 8; 16 ] in
  let max_shards = List.fold_left max 1 shard_counts in
  (* one decayed ring per shard, all materialized up front *)
  let rings =
    Array.init max_shards (fun _ ->
        let rng = Rng.split master in
        List.init !depth (fun age -> (0.5 ** float_of_int age, snapshot rng ~sites:!sites)))
  in
  let rows =
    List.map
      (fun n ->
        let parts = List.concat (Array.to_list (Array.sub rings 0 n)) in
        let batched = time_best (fun () -> Profile.merge_weighted parts) in
        let fold =
          time_best (fun () ->
              List.fold_left (fun acc (_, p) -> Profile.merge acc p) (Profile.create ()) parts)
        in
        let nparts = List.length parts in
        Printf.printf "merge %d %d %.3f %.3f %.0f\n" n nparts (1000.0 *. batched)
          (1000.0 *. fold)
          (float_of_int nparts /. batched);
        (n, nparts, batched, fold))
      shard_counts
  in
  print_newline ();
  Printf.printf "%-7s %-6s %-12s %-12s %-12s %s\n" "shards" "parts" "batched ms"
    "fold ms" "profiles/s" "fold/batched";
  List.iter
    (fun (n, nparts, batched, fold) ->
      Printf.printf "%-7d %-6d %-12.3f %-12.3f %-12.0f %.2fx\n" n nparts
        (1000.0 *. batched) (1000.0 *. fold)
        (float_of_int nparts /. batched)
        (fold /. batched))
    rows
