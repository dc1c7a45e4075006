(* Profiles: the store, serialization, the LBR ring, and the full
   collect-at-addresses / lift-to-IR flow. *)

open Pibe_ir
module Profile = Pibe_profile.Profile
module Lbr = Pibe_profile.Lbr
module Collector = Pibe_profile.Collector
module Engine = Pibe_cpu.Engine

(* ------------------------------ store ------------------------------ *)

let test_counts_accumulate () =
  let p = Profile.create () in
  Profile.add_direct p ~origin:1 ~count:10;
  Profile.add_direct p ~origin:1 ~count:5;
  Alcotest.(check int) "sum" 15 (Profile.direct_count p ~origin:1);
  Alcotest.(check int) "absent" 0 (Profile.direct_count p ~origin:2)

let test_value_profile_sorted () =
  let p = Profile.create () in
  Profile.add_indirect p ~origin:7 ~target:"cold" ~count:1;
  Profile.add_indirect p ~origin:7 ~target:"hot" ~count:100;
  Profile.add_indirect p ~origin:7 ~target:"warm" ~count:10;
  Alcotest.(check (list (pair string int)))
    "hottest first"
    [ ("hot", 100); ("warm", 10); ("cold", 1) ]
    (Profile.value_profile p ~origin:7)

let test_site_weight_uses_origin () =
  let p = Profile.create () in
  Profile.add_direct p ~origin:3 ~count:42;
  let clone = { Types.site_id = 99; site_origin = 3 } in
  Alcotest.(check int) "clone inherits counts" 42 (Profile.site_weight p clone)

let test_remove_indirect_target () =
  let p = Profile.create () in
  Profile.add_indirect p ~origin:7 ~target:"a" ~count:5;
  Profile.add_indirect p ~origin:7 ~target:"b" ~count:3;
  Profile.remove_indirect_target p ~origin:7 ~target:"a";
  Alcotest.(check (list (pair string int))) "residual" [ ("b", 3) ]
    (Profile.value_profile p ~origin:7);
  Profile.remove_indirect_target p ~origin:7 ~target:"b";
  Alcotest.(check (list int)) "origin gone" [] (Profile.profiled_indirect_origins p)

let test_merge () =
  let a = Profile.create () and b = Profile.create () in
  Profile.add_direct a ~origin:1 ~count:10;
  Profile.add_direct b ~origin:1 ~count:32;
  Profile.add_entry a ~func:"f" ~count:10;
  Profile.add_indirect b ~origin:2 ~target:"g" ~count:4;
  let m = Profile.merge a b in
  Alcotest.(check int) "direct merged" 42 (Profile.direct_count m ~origin:1);
  Alcotest.(check int) "entry merged" 10 (Profile.invocations m "f");
  Alcotest.(check int) "indirect merged" 4
    (Profile.site_weight m { Types.site_id = 2; site_origin = 2 })

let random_profile seed =
  let rng = Pibe_util.Rng.create seed in
  let p = Profile.create () in
  for origin = 0 to Pibe_util.Rng.int rng 10 do
    if Pibe_util.Rng.bool rng then
      Profile.add_direct p ~origin ~count:(1 + Pibe_util.Rng.int rng 1000)
    else
      for t = 0 to Pibe_util.Rng.int rng 4 do
        Profile.add_indirect p ~origin
          ~target:(Printf.sprintf "t%d" t)
          ~count:(1 + Pibe_util.Rng.int rng 500)
      done
  done;
  for f = 0 to Pibe_util.Rng.int rng 6 do
    Profile.add_entry p ~func:(Printf.sprintf "f%d" f) ~count:(1 + Pibe_util.Rng.int rng 99)
  done;
  p

let prop_serialization_roundtrip =
  QCheck.Test.make ~name:"profile text serialization round-trips" ~count:200
    QCheck.small_int (fun seed ->
      let p = random_profile seed in
      let p' = Profile.of_string (Profile.to_string p) in
      Profile.to_string p' = Profile.to_string p)

let test_merge_weighted () =
  let p = Profile.create () in
  Profile.add_direct p ~origin:1 ~count:100;
  Profile.add_indirect p ~origin:2 ~target:"g" ~count:7;
  Profile.add_entry p ~func:"f" ~count:3;
  (* scale by 1.0 is the identity *)
  Alcotest.(check string) "scale 1.0 identity" (Profile.to_string p)
    (Profile.to_string (Profile.scale p 1.0));
  (* two half-weighted copies reassemble the original *)
  Alcotest.(check string) "halves reassemble"
    (Profile.to_string p)
    (Profile.to_string (Profile.merge_weighted [ (0.5, p); (0.5, p) ]));
  (* keys whose weighted sum rounds to zero are dropped, keeping decayed
     profiles sparse *)
  let tiny = Profile.create () in
  Profile.add_indirect tiny ~origin:9 ~target:"t" ~count:1;
  Alcotest.(check (list int)) "sub-half weight drops the key" []
    (Profile.profiled_indirect_origins (Profile.scale tiny 0.4));
  Alcotest.check_raises "negative weight rejected"
    (Invalid_argument "Profile.merge_weighted: negative weight") (fun () ->
      ignore (Profile.merge_weighted [ (-1.0, p) ]))

(* A structured generator hitting the grammar's corners on purpose: the
   empty profile, many-target value profiles, and counts up to max_int —
   none of which the seed-walk generator above reliably produces. *)
let structured_profile_gen =
  let open QCheck.Gen in
  let count =
    frequency
      [ (4, int_range 1 1000); (2, int_range 1_000_000 1_000_000_000); (1, return max_int) ]
  in
  let directs = list_size (int_range 0 6) (pair (int_range 0 50) count) in
  let vps =
    list_size (int_range 0 4)
      (pair (int_range 100 150) (list_size (int_range 1 8) count))
  in
  let entries = list_size (int_range 0 4) (pair (int_range 0 20) count) in
  map
    (fun (directs, vps, entries) ->
      let p = Profile.create () in
      List.iter (fun (origin, count) -> Profile.add_direct p ~origin ~count) directs;
      List.iter
        (fun (origin, counts) ->
          List.iteri
            (fun i count ->
              Profile.add_indirect p ~origin ~target:(Printf.sprintf "tgt_%d" i) ~count)
            counts)
        vps;
      List.iter
        (fun (f, count) -> Profile.add_entry p ~func:(Printf.sprintf "fn%d" f) ~count)
        entries;
      p)
    (triple directs vps entries)

(* Whether the reader must reject [text]: some count is negative (a
   max_int key bumped twice wraps in memory) or a kind's running total
   (entries, direct counters, value profiles) passes max_int. *)
let must_reject text =
  let totals = Hashtbl.create 3 in
  List.exists
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | (("entry" | "direct" | "vp") as kind) :: rest ->
        let c = int_of_string (List.nth rest (List.length rest - 1)) in
        let total = Option.value ~default:0 (Hashtbl.find_opt totals kind) in
        Hashtbl.replace totals kind (total + c);
        c < 0 || c > max_int - total
      | _ -> false)
    (String.split_on_char '\n' text)

(* Every text the writer produces either round-trips or, when its counts
   cannot be summed safely, is rejected with the located error. *)
let prop_structured_roundtrip =
  QCheck.Test.make ~name:"serialization round-trips (empty/multi-target/max_int)"
    ~count:300
    (QCheck.make ~print:Profile.to_string structured_profile_gen)
    (fun p ->
      let text = Profile.to_string p in
      match Profile.of_string text with
      | p' -> (not (must_reject text)) && Profile.to_string p' = text
      | exception Parser.Parse_error _ -> must_reject text)

(* ---------------------- sharded merge properties -------------------- *)

(* Like [structured_profile_gen] but with counts small enough that the
   float accumulator is exact before rounding: the sharding properties
   below reason about rounding error alone, not precision loss. *)
let bounded_profile_gen =
  let open QCheck.Gen in
  let count = int_range 1 100_000 in
  let directs = list_size (int_range 0 6) (pair (int_range 0 50) count) in
  let vps =
    list_size (int_range 0 4)
      (pair (int_range 100 150) (list_size (int_range 1 8) count))
  in
  let entries = list_size (int_range 0 4) (pair (int_range 0 20) count) in
  map
    (fun (directs, vps, entries) ->
      let p = Profile.create () in
      List.iter (fun (origin, count) -> Profile.add_direct p ~origin ~count) directs;
      List.iter
        (fun (origin, counts) ->
          List.iteri
            (fun i count ->
              Profile.add_indirect p ~origin ~target:(Printf.sprintf "tgt_%d" i) ~count)
            counts)
        vps;
      List.iter
        (fun (f, count) -> Profile.add_entry p ~func:(Printf.sprintf "fn%d" f) ~count)
        entries;
      p)
    (triple directs vps entries)

(* weights in {0, 0.125, ..., 2.0}: exercises zero (key-dropping) and
   fractional weights with exactly representable floats *)
let weighted_parts_gen =
  let open QCheck.Gen in
  list_size (int_range 1 12)
    (pair (map (fun i -> float_of_int i /. 8.0) (int_range 0 16)) bounded_profile_gen)

(* Largest per-key absolute difference between two profiles, over every
   key the bounded generator can produce. *)
let max_key_diff a b =
  let d = ref 0 in
  let upd x y = d := max !d (abs (x - y)) in
  for origin = 0 to 160 do
    upd (Profile.direct_count a ~origin) (Profile.direct_count b ~origin);
    let va = Profile.value_profile a ~origin in
    let vb = Profile.value_profile b ~origin in
    List.iter
      (fun (t, c) ->
        upd c (match List.assoc_opt t vb with Some c' -> c' | None -> 0))
      va;
    List.iter (fun (t, c) -> if not (List.mem_assoc t va) then upd 0 c) vb
  done;
  for f = 0 to 20 do
    let name = Printf.sprintf "fn%d" f in
    upd (Profile.invocations a name) (Profile.invocations b name)
  done;
  !d

(* The fleet aggregator's soundness: merging each shard first and then
   merging the shard results is the same profile as one sequential merge,
   up to rounding — each shard rounds its own sum once, so the sharded
   path can differ by at most 1 per shard on any key. *)
let prop_sharded_merge_matches_sequential =
  QCheck.Test.make ~name:"shard-then-merge matches sequential merge (float tolerance)"
    ~count:150
    (QCheck.make weighted_parts_gen)
    (fun parts ->
      let nshards = 3 in
      let sequential = Profile.merge_weighted parts in
      let shards = Array.make nshards [] in
      List.iteri (fun i part -> shards.(i mod nshards) <- part :: shards.(i mod nshards)) parts;
      let sharded =
        Profile.merge_weighted
          (List.filter_map
             (fun ps ->
               if ps = [] then None
               else Some (1.0, Profile.merge_weighted (List.rev ps)))
             (Array.to_list shards))
      in
      max_key_diff sequential sharded <= nshards)

(* With unit weights there is no rounding at all: the weighted combinator
   must agree exactly with a pairwise [merge] fold. *)
let prop_unit_weight_merge_exact =
  QCheck.Test.make ~name:"unit-weight merge_weighted equals pairwise merge exactly"
    ~count:150
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) bounded_profile_gen))
    (fun ps ->
      Profile.to_string (Profile.merge_weighted (List.map (fun p -> (1.0, p)) ps))
      = Profile.to_string (List.fold_left Profile.merge (Profile.create ()) ps))

(* Summation order (shard interleaving) moves each key by at most one
   rounding step. *)
let prop_merge_weighted_commutes =
  QCheck.Test.make ~name:"merge_weighted is order-insensitive up to rounding" ~count:150
    (QCheck.make weighted_parts_gen)
    (fun parts ->
      max_key_diff (Profile.merge_weighted parts) (Profile.merge_weighted (List.rev parts))
      <= 1)

let test_empty_profile_roundtrip () =
  let empty = Profile.create () in
  Alcotest.(check string) "canonical empty form" "profile {\n}\n" (Profile.to_string empty);
  Alcotest.(check string) "empty round-trips" (Profile.to_string empty)
    (Profile.to_string (Profile.of_string (Profile.to_string empty)))

(* Both text readers raise the IR parser's located error. *)
let check_parse_error what ~line ~message f =
  match f () with
  | exception Parser.Parse_error { line = l; message = m } ->
    Alcotest.(check (pair int string)) what (line, message) (l, m)
  | _ -> Alcotest.failf "%s was accepted" what

let test_of_string_rejects_garbage () =
  (* every malformed shape names the offending line *)
  List.iter
    (fun line ->
      check_parse_error (Printf.sprintf "%S" line) ~line:1
        ~message:("malformed line: " ^ line) (fun () -> Profile.of_string line))
    [
      "direct x = 1";         (* non-numeric origin *)
      "entry read = 5";       (* function name missing the @ sigil *)
      "vp 1 target = 2";      (* target name missing the @ sigil *)
      "vp x @t = 2";          (* non-numeric origin *)
      "direct 1 = abc";       (* non-numeric count *)
      "direct 1 2";           (* missing '=' *)
      "direct 1 = 2 extra";   (* trailing tokens *)
      "entry @ = 1 = 2";      (* doubled '=' *)
      "weird 1 = 2";          (* unknown record kind *)
    ];
  (* lines count from 1 over the whole text, header included *)
  check_parse_error "third line" ~line:3 ~message:"malformed line: direct x = 1" (fun () ->
      Profile.of_string "profile {\n  entry @f = 1\n  direct x = 1\n}\n");
  List.iter
    (fun line ->
      check_parse_error (Printf.sprintf "%S" line) ~line:2 ~message:"negative count -5"
        (fun () -> Profile.of_string ("profile {\n" ^ line ^ "\n}\n")))
    [ "  direct 1 = -5"; "  vp 1 @f = -5"; "  entry @f = -5" ];
  (* two counts of max_int each fit, but their sum would wrap negative *)
  List.iter
    (fun (a, b) ->
      check_parse_error (Printf.sprintf "%S then %S" a b) ~line:2
        ~message:(Printf.sprintf "count %d overflows the total of its kind" max_int)
        (fun () -> Profile.of_string (Printf.sprintf "%s\n%s\n" a b)))
    (List.map
       (fun fmt -> (Printf.sprintf fmt 1 max_int, Printf.sprintf fmt 2 max_int))
       [ "direct %d = %d"; "vp %d @f = %d" ]
    @ [ (Printf.sprintf "entry @f = %d" max_int, Printf.sprintf "entry @g = %d" max_int) ]);
  (* each kind has its own total, so one max_int per kind is fine *)
  let p =
    Profile.of_string
      (Printf.sprintf "direct 1 = %d\nvp 2 @f = %d\nentry @f = %d\n" max_int max_int
         max_int)
  in
  Alcotest.(check (list int)) "one max_int per kind" [ max_int; max_int; max_int ]
    [ Profile.total_direct_weight p; Profile.total_indirect_weight p; Profile.invocations p "f" ]

(* ------------------------------- LBR ------------------------------- *)

let test_lbr_drains_on_overflow_and_flush () =
  let drained = ref [] in
  let lbr =
    Lbr.create ~depth:4
      ~drain:(fun ~from_addr ~to_addr -> drained := (from_addr, to_addr) :: !drained)
      ()
  in
  for i = 1 to 6 do
    Lbr.record lbr ~from_addr:i ~to_addr:(i * 10)
  done;
  Alcotest.(check int) "one overflow drain" 4 (List.length !drained);
  Lbr.flush lbr;
  Alcotest.(check int) "all records delivered" 6 (List.length !drained);
  Alcotest.(check (list (pair int int)))
    "drained oldest first"
    (List.init 6 (fun i -> (i + 1, (i + 1) * 10)))
    (List.rev !drained);
  Alcotest.(check int) "total counted" 6 (Lbr.drained lbr)

(* --------------------------- collector ----------------------------- *)

let test_collector_lift_matches_execution () =
  let prog = Helpers.random_program 21 in
  let collector = Collector.create prog in
  let engine = Collector.engine collector in
  List.iter
    (fun (entry, args) -> ignore (Engine.call engine entry args))
    (Helpers.standard_calls prog);
  let profile = Collector.lift collector in
  let counters = Engine.counters engine in
  (* Every executed edge must be lifted: total profile weight = executed
     calls (direct + indirect, asm included on the indirect side). *)
  let total =
    Profile.total_direct_weight profile + Profile.total_indirect_weight profile
  in
  Alcotest.(check int) "weights = executed calls"
    (counters.Engine.calls + counters.Engine.icalls)
    total

let test_collector_invocations_match () =
  let info = Helpers.kernel () in
  let prog = info.Pibe_kernel.Gen.prog in
  let collector = Collector.create prog in
  let engine = Collector.engine collector in
  let nr = Pibe_kernel.Gen.nr info "read" in
  for i = 1 to 50 do
    ignore (Engine.call engine info.Pibe_kernel.Gen.entry [ nr; 0; i * 9 ])
  done;
  let profile = Collector.lift collector in
  Alcotest.(check int) "sys_read entered 50 times" 50 (Profile.invocations profile "sys_read");
  Alcotest.(check bool) "vfs_read profiled" true (Profile.invocations profile "vfs_read" > 0);
  (* the hot fs target appears in the victim site's value profile *)
  let vp =
    Profile.value_profile profile ~origin:info.Pibe_kernel.Gen.victim_icall_site
  in
  Alcotest.(check bool) "ext4 read dominates" true
    (match vp with (t, _) :: _ -> String.length t > 0 | [] -> false)

(* ----------------------- provenance persistence --------------------- *)

module Provenance = Pibe_profile.Provenance

let provenance_fixture =
  String.concat "\n"
    [
      "provenance {";
      "  promo 900 = 7 @ext4_read";
      "  inline @caller_a @leaf 41 41 1200 60 sites 90,91";
      "  inline @caller_b @mid 55 12 0 0 entries @caller_b";
      "  inline @caller_c @deep 77 77 350 10 none";
      "}";
    ]
  ^ "\n"

let test_provenance_roundtrip () =
  let pv = Provenance.of_string provenance_fixture in
  Alcotest.(check string) "to_string is a fixpoint" provenance_fixture
    (Provenance.to_string pv);
  Alcotest.(check string) "second round-trip stable"
    (Provenance.to_string pv)
    (Provenance.to_string (Provenance.of_string (Provenance.to_string pv)));
  Alcotest.(check int) "3 instances" 3 (Provenance.inline_count pv);
  Alcotest.(check int) "1 promotion" 1 (Provenance.promotion_count pv);
  (* every field — including the carry-forward snapshot — survives *)
  (match Provenance.instances pv with
  | [ a; b; c ] ->
    Alcotest.(check int) "trained_count" 1200 a.Provenance.trained_count;
    Alcotest.(check int) "trained_caller_entries" 60 a.Provenance.trained_caller_entries;
    Alcotest.(check bool) "sites witness" true
      (a.Provenance.witness = Provenance.W_sites [ 90; 91 ]);
    Alcotest.(check bool) "entries witness" true
      (b.Provenance.witness = Provenance.W_caller_entries "caller_b");
    Alcotest.(check bool) "none witness" true (c.Provenance.witness = Provenance.W_none);
    Alcotest.(check int) "origin differs from site id" 12 b.Provenance.origin
  | _ -> Alcotest.fail "expected exactly three instances");
  Alcotest.(check (option (pair int string))) "promotion folds back"
    (Some (7, "ext4_read"))
    (Provenance.promotion pv 900)

let test_provenance_copy_independent () =
  let pv = Provenance.of_string provenance_fixture in
  let cp = Provenance.copy pv in
  Alcotest.(check string) "copy round-trips" provenance_fixture (Provenance.to_string cp);
  Provenance.record_promotion cp ~promoted_origin:901 ~origin:8 ~target:"ext4_write";
  Alcotest.(check string) "original unchanged by the copy's promotion" provenance_fixture
    (Provenance.to_string pv);
  (* an inline recorded into the original stays out of the copy *)
  let prog = (Helpers.kernel ()).Pibe_kernel.Gen.prog in
  let caller, site_id, callee =
    match
      List.find_map
        (fun name ->
          Func.fold_insts (Program.find prog name) ~init:None ~f:(fun acc i ->
              match (acc, i) with
              | None, Types.Call { site; callee; _ } -> Some (name, site.Types.site_id, callee)
              | _ -> acc))
        (Program.layout_order prog)
    with
    | Some x -> x
    | None -> Alcotest.fail "kernel without a direct call"
  in
  let site_block =
    match Pibe_opt.Transform.find_site_in_func (Program.find prog caller) site_id with
    | Some (bi, _, _) -> bi
    | None -> Alcotest.fail "site vanished"
  in
  let copied = Provenance.to_string cp in
  Provenance.record_inline pv ~prog_before:prog ~caller ~site_id ~site_block ~callee
    ~cloned:[] ~trained_count:5 ~trained_caller_entries:1;
  Alcotest.(check int) "original gained the instance" 4 (Provenance.inline_count pv);
  Alcotest.(check string) "copy unchanged by the original's inline" copied
    (Provenance.to_string cp)

let test_version_counts_mutations () =
  let p = Profile.create () in
  let step name f =
    let v = Profile.version p in
    f ();
    Alcotest.(check bool) (name ^ " bumps the version") true (Profile.version p > v)
  in
  step "add_direct" (fun () -> Profile.add_direct p ~origin:1 ~count:1);
  step "add_indirect" (fun () -> Profile.add_indirect p ~origin:2 ~target:"f" ~count:1);
  step "add_entry" (fun () -> Profile.add_entry p ~func:"f" ~count:1);
  step "remove_indirect_target" (fun () -> Profile.remove_indirect_target p ~origin:2 ~target:"f");
  let v = Profile.version p in
  ignore
    (Profile.to_string p, Profile.copy p, Profile.site_weight p { Types.site_id = 1; site_origin = 1 });
  Alcotest.(check int) "reads and copies leave it alone" v (Profile.version p)

let test_provenance_rejects_garbage () =
  List.iter
    (fun line ->
      check_parse_error (Printf.sprintf "%S" line) ~line:1
        ~message:("malformed line: " ^ line) (fun () -> Provenance.of_string line))
    [
      "inline @a @b 1 2 3 none";        (* missing the carry-forward ints *)
      "inline @a @b 1 2 3 4 maybe";     (* unknown witness kind *)
      "inline @a @b 1 2 3 4 sites x";   (* non-numeric witness site *)
      "inline a @b 1 2 3 4 none";       (* caller missing the @ sigil *)
      "promo 1 = 2 target";             (* target missing the @ sigil *)
      "weird 1 = 2";                    (* unknown record kind *)
    ];
  check_parse_error "third line" ~line:3 ~message:"malformed line: promo 1 = 2 target"
    (fun () ->
      Provenance.of_string "provenance {\n  promo 3 = 4 @f\n  promo 1 = 2 target\n}\n");
  List.iter
    (fun line ->
      check_parse_error (Printf.sprintf "%S" line) ~line:2 ~message:"negative count -5"
        (fun () -> Provenance.of_string ("provenance {\n" ^ line ^ "\n}\n")))
    [ "  inline @a @b 1 2 -5 4 none"; "  inline @a @b 1 2 3 -5 none" ];
  (* two trained counts of max_int: the second would wrap the total *)
  check_parse_error "two max_int trained counts" ~line:2
    ~message:(Printf.sprintf "count %d overflows the total of its kind" max_int) (fun () ->
      Provenance.of_string
        (Printf.sprintf "inline @a @b 1 2 %d 4 none\ninline @a @c 3 4 %d 4 none\n" max_int
           max_int))

(* ------------------------- reader mutation fuzz --------------------- *)

type edit = Sub | Del | Ins

(* 1-4 byte edits; a position is reduced modulo the length of the text
   it lands in, so the same edit list applies to any text.  Half the new
   bytes come from the readers' own alphabet, so mutants often stay
   close to well formed. *)
let edits_gen =
  let open QCheck.Gen in
  let byte =
    oneof
      [
        map Char.chr (int_range 0 255);
        oneofl [ '0'; '1'; '9'; '-'; '='; ' '; '\n'; '@'; '{'; '}'; 'a' ];
      ]
  in
  list_size (int_range 1 4) (triple (oneofl [ Sub; Del; Ins ]) nat byte)

let print_edits =
  QCheck.Print.list (fun (kind, pos, c) ->
      Printf.sprintf "%s %d %C" (match kind with Sub -> "sub" | Del -> "del" | Ins -> "ins") pos c)

let apply_edit text (kind, pos, c) =
  let n = String.length text in
  match kind with
  | Sub when n > 0 -> String.mapi (fun i x -> if i = pos mod n then c else x) text
  | Del when n > 0 ->
    let i = pos mod n in
    String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | Sub | Del | Ins ->
    let i = pos mod (n + 1) in
    String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i)

(* A reader given a byte-mutated real file returns a value or raises the
   located [Parse_error]; any other exception fails the property. *)
let prop_reader_mutants name text read =
  QCheck.Test.make ~name ~count:300 (QCheck.make ~print:print_edits edits_gen) (fun edits ->
      let mutant = List.fold_left apply_edit (Lazy.force text) edits in
      match read mutant with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let training_profile_text =
  lazy (Profile.to_string (Pibe.Env.lmbench_profile (Helpers.env ())))

let best_provenance_text =
  lazy
    (let cfg = Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses in
     Provenance.to_string (Pibe.Env.build (Helpers.env ()) cfg).Pibe.Pipeline.provenance)

let prop_profile_mutants =
  prop_reader_mutants "profile reader survives byte mutants" training_profile_text (fun t ->
      ignore (Profile.of_string t))

let prop_provenance_mutants =
  prop_reader_mutants "provenance reader survives byte mutants" best_provenance_text (fun t ->
      ignore (Provenance.of_string t))

(* -------------------------- staleness matching ---------------------- *)

(* The program's site origins, split by call kind, plus its function
   names — the ground truth [match_to] checks against. *)
let program_identities prog =
  let directs = ref [] and indirects = ref [] and funcs = ref [] in
  Program.iter_funcs prog (fun f ->
      funcs := f.Types.fname :: !funcs;
      Func.iter_insts f (fun _ i ->
          match i with
          | Types.Call { site; _ } -> directs := site.Types.site_origin :: !directs
          | Types.Icall { site; _ } | Types.Asm_icall { site; _ } ->
            indirects := site.Types.site_origin :: !indirects
          | Types.Assign _ | Types.Store _ | Types.Observe _ -> ()));
  (!directs, !indirects, !funcs)

let test_match_to_empty_profile () =
  let prog = Helpers.random_program 31 in
  let matched, stats = Profile.match_to (Profile.create ()) prog in
  Alcotest.(check string) "empty in, empty out" "profile {\n}\n"
    (Profile.to_string matched);
  Alcotest.(check int) "nothing kept" 0
    (stats.Profile.direct_kept + stats.Profile.indirect_kept + stats.Profile.entries_kept);
  Alcotest.(check int) "nothing dropped" 0
    (stats.Profile.direct_dropped + stats.Profile.indirect_dropped
    + stats.Profile.entries_dropped)

let test_match_to_all_sites_vanished () =
  let prog = Helpers.random_program 31 in
  let p = Profile.create () in
  Profile.add_direct p ~origin:9_000_001 ~count:100;
  Profile.add_indirect p ~origin:9_000_002 ~target:"no_such_fn" ~count:40;
  Profile.add_entry p ~func:"no_such_fn" ~count:7;
  let matched, stats = Profile.match_to p prog in
  Alcotest.(check string) "everything dropped" "profile {\n}\n"
    (Profile.to_string matched);
  Alcotest.(check int) "direct weight dropped" 100 stats.Profile.direct_dropped;
  Alcotest.(check int) "indirect weight dropped" 40 stats.Profile.indirect_dropped;
  Alcotest.(check int) "entry weight dropped" 7 stats.Profile.entries_dropped;
  (* the input is not mutated *)
  Alcotest.(check int) "input intact" 100 (Profile.direct_count p ~origin:9_000_001)

(* A site id removed in one release can be re-minted for a site of the
   other kind in a later one; the per-kind check must refuse to let the
   stale weight leak across kinds. *)
let test_match_to_kind_collision () =
  let prog = Helpers.random_program 31 in
  let directs, indirects, funcs = program_identities prog in
  let d = List.hd directs and i = List.hd indirects and f = List.hd funcs in
  let p = Profile.create () in
  (* stale weight recorded under the wrong kind for today's program *)
  Profile.add_direct p ~origin:i ~count:50;
  Profile.add_indirect p ~origin:d ~target:f ~count:60;
  (* and legitimate weight under the right kind *)
  Profile.add_direct p ~origin:d ~count:11;
  Profile.add_indirect p ~origin:i ~target:f ~count:22;
  let matched, stats = Profile.match_to p prog in
  Alcotest.(check int) "collided direct weight dropped" 50 stats.Profile.direct_dropped;
  Alcotest.(check int) "collided indirect weight dropped" 60
    stats.Profile.indirect_dropped;
  Alcotest.(check int) "right-kind direct kept" 11 (Profile.direct_count matched ~origin:d);
  Alcotest.(check (list (pair string int))) "right-kind indirect kept" [ (f, 22) ]
    (Profile.value_profile matched ~origin:i)

let test_match_to_renames () =
  let prog = Helpers.random_program 31 in
  let _, indirects, funcs = program_identities prog in
  let i = List.hd indirects and f = List.hd funcs in
  let p = Profile.create () in
  Profile.add_indirect p ~origin:i ~target:"old_name" ~count:33;
  Profile.add_entry p ~func:"old_name" ~count:9;
  let matched, stats = Profile.match_to ~renames:[ ("old_name", f) ] p prog in
  Alcotest.(check (list (pair string int))) "target renamed then kept" [ (f, 33) ]
    (Profile.value_profile matched ~origin:i);
  Alcotest.(check int) "entry renamed then kept" 9 (Profile.invocations matched f);
  Alcotest.(check int) "renamed weight accounted" 42 stats.Profile.renamed_weight

let prop_match_to_idempotent =
  QCheck.Test.make ~name:"staleness matching is idempotent" ~count:100
    QCheck.small_int (fun seed ->
      let prog = Helpers.random_program 31 in
      let p = random_profile seed in
      let once, _ = Profile.match_to p prog in
      let twice, stats = Profile.match_to once prog in
      Profile.to_string twice = Profile.to_string once
      && stats.Profile.direct_dropped = 0
      && stats.Profile.indirect_dropped = 0
      && stats.Profile.entries_dropped = 0)

(* -------------------- collector drop accounting --------------------- *)

(* Raw PMU-style samples whose addresses resolve to nothing (a stale
   layout): negative values, addresses below or past the image, both
   sides of the 2^31 boundary the drain packs pairs below, and the int
   extremes.  Each recorded pair carries weight 1, and repeats add up. *)
let prop_collector_counts_dropped_pairs =
  let prog = Helpers.random_program 21 in
  let past_image = 0x1000 + Layout.total_code_bytes (Layout.build prog) in
  let addr =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> -n - 1) nat;
          int_range 0 0xfff;
          int_range past_image (past_image + 64);
          int_range ((1 lsl 31) - 2) ((1 lsl 31) + 2);
          map (fun n -> (1 lsl 31) + n) nat;
          oneofl [ max_int; max_int - 1; min_int; 1 lsl 62 ];
        ])
  in
  QCheck.Test.make ~name:"collector counts dropped pairs" ~count:200
    QCheck.(make ~print:Print.(list (pair int int)) Gen.(list_size (0 -- 80) (pair addr addr)))
    (fun pairs ->
      let collector = Collector.create prog in
      List.iter
        (fun (from_addr, to_addr) -> Collector.record_raw collector ~from_addr ~to_addr)
        pairs;
      let rec group = function
        | [] -> []
        | p :: rest ->
          let same, others = List.partition (( = ) p) rest in
          (p, 1 + List.length same) :: group others
      in
      let expected = List.sort compare (group pairs) in
      let recorded = Collector.raw_pairs collector = expected in
      let profile = Collector.lift collector in
      let stats = Collector.stats collector in
      recorded
      && stats.Collector.dropped_pairs = List.length pairs
      && stats.Collector.lifted_pairs = 0
      && Profile.total_direct_weight profile + Profile.total_indirect_weight profile = 0)

let test_collector_entry_hook () =
  let prog = Helpers.random_program 21 in
  let collector = Collector.create prog in
  (* top-level entries arrive through on_entry even when no call edge is
     ever recorded — the signal that survives total inlining *)
  Collector.hook_entry collector "f0";
  Collector.hook_entry collector "f0";
  Collector.hook_entry collector "f1";
  let profile = Collector.lift collector in
  Alcotest.(check int) "two entries for f0" 2 (Profile.invocations profile "f0");
  Alcotest.(check int) "one entry for f1" 1 (Profile.invocations profile "f1")

(* ------------------------------------------------------------------ *)
(* Once-per-invocation blocks: the one-block walk vs the analysis      *)
(* ------------------------------------------------------------------ *)

let check_runs_once what (f : Types.func) =
  let once = Provenance.once_blocks f in
  Array.iteri
    (fun bi flag ->
      if Provenance.runs_once f bi <> flag then
        Alcotest.failf "%s: @%s block %d: runs_once says %b, once_blocks %b" what f.fname bi
          (not flag) flag)
    once

let test_runs_once_on_kernels () =
  List.iter
    (fun (scale, env) ->
      let pristine = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
      List.iter
        (fun (what, prog) ->
          Program.iter_funcs prog (check_runs_once (Printf.sprintf "scale %d %s" scale what)))
        [
          ("pristine", pristine);
          ("icp", Helpers.optimized env "icp(budget=99.999)");
          ("lax", Helpers.optimized env "icp(budget=99.999),inline(budget=99.9999,lax)");
          ( "cleaned",
            Helpers.optimized env "icp(budget=99.999),inline(budget=99.9999,lax),cleanup" );
        ])
    [ (1, Helpers.env ()); (3, Helpers.env3 ()) ]

let prop_runs_once_matches_once_blocks =
  QCheck.Test.make ~name:"runs_once matches once_blocks" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Pibe_util.Rng.create seed in
      let prog = Helpers.random_chain_program seed in
      let funcs = List.map (Program.find prog) (Program.layout_order prog) in
      List.iter (check_runs_once "chain") funcs;
      List.iter (fun f -> check_runs_once "cycles" (Helpers.with_cycles rng f)) funcs;
      true)

(* The shapes the generators rarely draw, each block's answer spelled
   out as well as compared. *)
let test_runs_once_shapes () =
  let block term = { Types.insts = [||]; term } in
  let func ?(entry = 0) blocks =
    {
      Types.fname = "shape";
      params = 0;
      nregs = 1;
      entry;
      attrs = Types.default_attrs;
      blocks = Array.of_list blocks;
    }
  in
  let check what f expected =
    check_runs_once what f;
    Alcotest.(check (list bool)) what expected
      (List.init (Array.length f.Types.blocks) (Provenance.runs_once f))
  in
  let open Types in
  (* 0 -> {1, 2}; 1 -> 3; 2 -> 2 | 3 (self-loop); 3 ret; 4 unreachable ret *)
  check "diamond with a self-loop"
    (func
       [
         block (Br (Reg 0, 1, 2));
         block (Jmp 3);
         block (Br (Reg 0, 2, 3));
         block (Ret None);
         block (Ret None);
       ])
    [ true; false; false; true; false ];
  (* no reachable ret: nothing runs once per (complete) invocation *)
  check "no reachable ret"
    (func [ block (Jmp 1); block (Jmp 1); block (Ret None) ])
    [ false; false; false ];
  (* the entry on a cycle repeats; the exit after it does not *)
  check "entry on a cycle"
    (func [ block (Br (Reg 0, 1, 2)); block (Jmp 0); block (Ret None) ])
    [ false; false; true ];
  (* a non-zero entry, and a ret block that is itself the entry *)
  check "entry past block 0"
    (func ~entry:1 [ block (Ret None); block (Jmp 0) ])
    [ true; true ];
  check "single ret block" (func [ block (Ret (Some (Imm 1))) ]) [ true ];
  Alcotest.(check bool) "out-of-range block" false
    (Provenance.runs_once (func [ block (Ret None) ]) 1)

(* The caller block handed to [record_inline] must hold the site: any
   other block, in range or not, is the same "not found" as a missing
   site. *)
let test_record_inline_rejects_wrong_block () =
  let prog = (Helpers.kernel ()).Pibe_kernel.Gen.prog in
  let caller, site_id, callee, site_block, nblocks =
    match
      List.find_map
        (fun name ->
          let f = Program.find prog name in
          let nblocks = Array.length f.Types.blocks in
          match Func.call_sites f with
          | ((site : Types.site), callee) :: _ when nblocks > 1 ->
            Option.map
              (fun (bi, _, _) -> (name, site.Types.site_id, callee, bi, nblocks))
              (Pibe_opt.Transform.find_site_in_func f site.Types.site_id)
          | _ -> None)
        (Program.layout_order prog)
    with
    | Some x -> x
    | None -> Alcotest.fail "kernel without a multi-block caller"
  in
  let expected =
    Invalid_argument
      (Printf.sprintf "Provenance.record_inline: site %d not found in %s" site_id caller)
  in
  List.iter
    (fun bi ->
      let pv = Provenance.create () in
      Alcotest.check_raises (Printf.sprintf "block %d" bi) expected (fun () ->
          Provenance.record_inline pv ~prog_before:prog ~caller ~site_id ~site_block:bi ~callee
            ~cloned:[] ~trained_count:1 ~trained_caller_entries:1);
      Alcotest.(check bool) "nothing recorded" true (Provenance.is_empty pv))
    [ (site_block + 1) mod nblocks; -1; nblocks ];
  let pv = Provenance.create () in
  Provenance.record_inline pv ~prog_before:prog ~caller ~site_id ~site_block ~callee ~cloned:[]
    ~trained_count:1 ~trained_caller_entries:1;
  Alcotest.(check int) "the right block records" 1 (Provenance.inline_count pv)

let suite =
  [
    ("counts accumulate", `Quick, test_counts_accumulate);
    ("value profile sorted", `Quick, test_value_profile_sorted);
    ("site weight keyed by origin", `Quick, test_site_weight_uses_origin);
    ("remove indirect target", `Quick, test_remove_indirect_target);
    ("merge", `Quick, test_merge);
    ("merge_weighted and scale", `Quick, test_merge_weighted);
    Helpers.qcheck_to_alcotest prop_serialization_roundtrip;
    Helpers.qcheck_to_alcotest prop_structured_roundtrip;
    Helpers.qcheck_to_alcotest prop_sharded_merge_matches_sequential;
    Helpers.qcheck_to_alcotest prop_unit_weight_merge_exact;
    Helpers.qcheck_to_alcotest prop_merge_weighted_commutes;
    ("empty profile round-trips", `Quick, test_empty_profile_roundtrip);
    ("of_string rejects garbage", `Quick, test_of_string_rejects_garbage);
    ("lbr drains on overflow and flush", `Quick, test_lbr_drains_on_overflow_and_flush);
    ("collector lift matches execution", `Quick, test_collector_lift_matches_execution);
    ("collector invocation counts", `Quick, test_collector_invocations_match);
    ("provenance round-trips", `Quick, test_provenance_roundtrip);
    ("provenance copy is independent", `Quick, test_provenance_copy_independent);
    ("version counts every mutation", `Quick, test_version_counts_mutations);
    ("provenance rejects garbage", `Quick, test_provenance_rejects_garbage);
    Helpers.qcheck_to_alcotest prop_profile_mutants;
    Helpers.qcheck_to_alcotest prop_provenance_mutants;
    ("match_to: empty profile", `Quick, test_match_to_empty_profile);
    ("match_to: all sites vanished", `Quick, test_match_to_all_sites_vanished);
    ("match_to: site-id kind collision", `Quick, test_match_to_kind_collision);
    ("match_to: renames", `Quick, test_match_to_renames);
    Helpers.qcheck_to_alcotest prop_match_to_idempotent;
    Helpers.qcheck_to_alcotest prop_collector_counts_dropped_pairs;
    ("collector entry hook", `Quick, test_collector_entry_hook);
    ("runs_once matches once_blocks on kernels", `Quick, test_runs_once_on_kernels);
    Helpers.qcheck_to_alcotest prop_runs_once_matches_once_blocks;
    ("runs_once on corner shapes", `Quick, test_runs_once_shapes);
    ("record_inline rejects a wrong block", `Quick, test_record_inline_rejects_wrong_block);
  ]
