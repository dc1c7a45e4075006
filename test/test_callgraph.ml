(* Call-graph construction, SCC/recursion detection, ordering. *)

open Pibe_ir
open Types
module Cg = Pibe_cg.Callgraph

let leaf prog name =
  let b = Builder.create ~name ~params:0 in
  Builder.ret b None;
  Program.add_func prog (Builder.finish b ())

let caller prog name callees =
  let prog = ref prog in
  let b = Builder.create ~name ~params:0 in
  List.iter
    (fun callee ->
      let p, site = Program.fresh_site !prog in
      prog := p;
      Builder.call b site callee [])
    callees;
  Builder.ret b None;
  Program.add_func !prog (Builder.finish b ())

let diamond () =
  let p = Program.with_globals_size Program.empty 4 in
  let p = leaf p "d" in
  let p = caller p "b" [ "d" ] in
  let p = caller p "c" [ "d" ] in
  caller p "a" [ "b"; "c" ]

let test_edges () =
  let cg = Cg.build (diamond ()) in
  Alcotest.(check int) "4 direct edges" 4 (List.length (Cg.direct_edges cg));
  Alcotest.(check int) "a has 2 callees" 2 (List.length (Cg.callees_of cg "a"));
  Alcotest.(check int) "d has 2 callers" 2 (List.length (Cg.callers_of cg "d"))

let test_reaches () =
  let cg = Cg.build (diamond ()) in
  Alcotest.(check bool) "a reaches d" true (Cg.reaches cg ~src:"a" ~dst:"d");
  Alcotest.(check bool) "d does not reach a" false (Cg.reaches cg ~src:"d" ~dst:"a");
  Alcotest.(check bool) "b does not reach c" false (Cg.reaches cg ~src:"b" ~dst:"c")

let test_bottom_up_order () =
  let cg = Cg.build (diamond ()) in
  let order = Cg.bottom_up_order cg in
  let pos x =
    let rec go i = function
      | [] -> -1
      | y :: rest -> if String.equal x y then i else go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "d before b" true (pos "d" < pos "b");
  Alcotest.(check bool) "b before a" true (pos "b" < pos "a");
  Alcotest.(check bool) "c before a" true (pos "c" < pos "a")

let test_self_recursion_detected () =
  let p = Program.with_globals_size Program.empty 4 in
  let p, site = Program.fresh_site p in
  let b = Builder.create ~name:"rec" ~params:0 in
  Builder.call b site "rec" [];
  Builder.ret b None;
  let p = Program.add_func p (Builder.finish b ()) in
  let cg = Cg.build p in
  Alcotest.(check bool) "self loop" true (Cg.in_recursive_cycle cg "rec")

let test_mutual_recursion_detected () =
  let p = Program.with_globals_size Program.empty 4 in
  (* forward-declare by building even and odd with sites threaded *)
  let p, s1 = Program.fresh_site p in
  let p, s2 = Program.fresh_site p in
  let b = Builder.create ~name:"even" ~params:0 in
  Builder.call b s1 "odd" [];
  Builder.ret b None;
  let p = Program.add_func p (Builder.finish b ()) in
  let b = Builder.create ~name:"odd" ~params:0 in
  Builder.call b s2 "even" [];
  Builder.ret b None;
  let p = Program.add_func p (Builder.finish b ()) in
  let cg = Cg.build p in
  Alcotest.(check bool) "even cyclic" true (Cg.in_recursive_cycle cg "even");
  Alcotest.(check bool) "odd cyclic" true (Cg.in_recursive_cycle cg "odd")

let test_dag_not_recursive () =
  let cg = Cg.build (diamond ()) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " acyclic") false (Cg.in_recursive_cycle cg n))
    [ "a"; "b"; "c"; "d" ]

let test_icall_sites_listed () =
  let prog = Helpers.random_program 11 in
  let cg = Cg.build prog in
  let total =
    Program.fold_funcs prog ~init:0 ~f:(fun acc f ->
        acc + List.length (Cg.icall_sites_of cg f.fname))
  in
  Alcotest.(check int) "matches program count" (Program.total_icall_sites prog) total

let test_dot_export () =
  let cg = Cg.build (diamond ()) in
  let dot = Cg.to_dot cg in
  Alcotest.(check bool) "digraph" true (String.length dot > 20)

let prop_random_programs_acyclic =
  QCheck.Test.make ~name:"generated call graphs are acyclic" ~count:100 QCheck.small_int
    (fun seed ->
      let prog = Helpers.random_program seed in
      let cg = Cg.build prog in
      Program.fold_funcs prog ~init:true ~f:(fun acc f ->
          acc && not (Cg.in_recursive_cycle cg f.fname)))

(* The reference: the string-keyed graph the module built before it
   interned names, with its recursive Tarjan and hashed visited sets. *)
module Reference = struct
  type t = {
    nodes : string list;
    out_edges : (string, Cg.direct_edge list) Hashtbl.t;
    in_edges : (string, Cg.direct_edge list) Hashtbl.t;
    icalls : (string, site list) Hashtbl.t;
    scc_of : (string, int) Hashtbl.t;
    scc_cyclic : (int, bool) Hashtbl.t;
  }

  let get_list tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)

  let build p =
    let out_edges = Hashtbl.create 256 and in_edges = Hashtbl.create 256 in
    let icalls = Hashtbl.create 256 in
    let nodes = Program.layout_order p in
    Program.iter_funcs p (fun f ->
        let outs =
          List.map
            (fun (site, callee) -> { Cg.caller = f.fname; callee; site })
            (Func.call_sites f)
        in
        Hashtbl.replace out_edges f.fname outs;
        List.iter
          (fun (e : Cg.direct_edge) ->
            Hashtbl.replace in_edges e.callee (e :: get_list in_edges e.callee))
          outs;
        Hashtbl.replace icalls f.fname (Func.icall_sites f));
    let index = Hashtbl.create 256 and lowlink = Hashtbl.create 256 in
    let on_stack = Hashtbl.create 256 and stack = ref [] and counter = ref 0 in
    let scc_of = Hashtbl.create 256 and scc_cyclic = Hashtbl.create 64 and next_scc = ref 0 in
    let self_loop name =
      List.exists (fun (e : Cg.direct_edge) -> String.equal e.callee name) (get_list out_edges name)
    in
    let rec strongconnect v =
      Hashtbl.replace index v !counter;
      Hashtbl.replace lowlink v !counter;
      incr counter;
      stack := v :: !stack;
      Hashtbl.replace on_stack v true;
      List.iter
        (fun (e : Cg.direct_edge) ->
          let w = e.callee in
          if not (Hashtbl.mem index w) then begin
            strongconnect w;
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Option.value ~default:false (Hashtbl.find_opt on_stack w) then
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
        (get_list out_edges v);
      if Hashtbl.find lowlink v = Hashtbl.find index v then begin
        let id = !next_scc in
        incr next_scc;
        let members = ref [] in
        let rec pop () =
          match !stack with
          | [] -> ()
          | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            Hashtbl.replace scc_of w id;
            members := w :: !members;
            if not (String.equal w v) then pop ()
        in
        pop ();
        Hashtbl.replace scc_cyclic id
          (match !members with [ single ] -> self_loop single | _ -> true)
      end
    in
    List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
    { nodes; out_edges; in_edges; icalls; scc_of; scc_cyclic }

  let direct_edges t = List.concat_map (fun n -> get_list t.out_edges n) t.nodes
  let callees_of t name = get_list t.out_edges name
  let callers_of t name = List.rev (get_list t.in_edges name)
  let icall_sites_of t name = get_list t.icalls name

  let in_recursive_cycle t name =
    match Hashtbl.find_opt t.scc_of name with
    | None -> false
    | Some id -> Option.value ~default:false (Hashtbl.find_opt t.scc_cyclic id)

  let reaches t ~src ~dst =
    let seen = Hashtbl.create 64 in
    let rec go v =
      if String.equal v dst then true
      else if Hashtbl.mem seen v then false
      else begin
        Hashtbl.replace seen v ();
        List.exists (fun (e : Cg.direct_edge) -> go e.callee) (get_list t.out_edges v)
      end
    in
    go src

  let bottom_up_order t =
    let seen = Hashtbl.create 256 and order = ref [] in
    let rec go v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        List.iter (fun (e : Cg.direct_edge) -> go e.callee) (get_list t.out_edges v);
        order := v :: !order
      end
    in
    List.iter go t.nodes;
    List.rev !order

  let to_dot t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "digraph callgraph {\n";
    List.iter
      (fun n ->
        List.iter
          (fun (e : Cg.direct_edge) ->
            Buffer.add_string buf
              (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"s%d\"];\n" e.caller e.callee
                 e.site.site_id))
          (get_list t.out_edges n))
      t.nodes;
    Buffer.add_string buf "}\n";
    Buffer.contents buf
end

(* A generated call DAG plus a self-recursive function that also calls a
   name outside the program, and a three-function cycle into the DAG. *)
let irregular_program seed =
  let p = Helpers.random_call_program seed in
  let p = caller p "selfish" [ "f1"; "selfish"; "nowhere"; "f0" ] in
  let p = caller p "ping" [ "pong"; "nowhere" ] in
  let p = caller p "pong" [ "pang"; "f2" ] in
  caller p "pang" [ "f3"; "ping" ]

let agrees_with_reference p =
  let cg = Cg.build p and r = Reference.build p in
  let names = Program.layout_order p @ [ "nowhere"; "never-called" ] in
  Cg.direct_edges cg = Reference.direct_edges r
  && Cg.bottom_up_order cg = Reference.bottom_up_order r
  && String.equal (Cg.to_dot cg) (Reference.to_dot r)
  && List.for_all
       (fun n ->
         Cg.callees_of cg n = Reference.callees_of r n
         && Cg.callers_of cg n = Reference.callers_of r n
         && Cg.icall_sites_of cg n = Reference.icall_sites_of r n
         && Cg.in_recursive_cycle cg n = Reference.in_recursive_cycle r n
         && List.for_all
              (fun dst -> Cg.reaches cg ~src:n ~dst = Reference.reaches r ~src:n ~dst)
              names)
       names

(* [random_program] adds indirect call sites to the comparison. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"interned graph answers like the string-keyed one" ~count:100
    QCheck.small_int (fun seed ->
      agrees_with_reference (irregular_program seed)
      && agrees_with_reference (Helpers.random_program seed))

let suite =
  [
    ("edges", `Quick, test_edges);
    ("reachability", `Quick, test_reaches);
    ("bottom-up order", `Quick, test_bottom_up_order);
    ("self recursion detected", `Quick, test_self_recursion_detected);
    ("mutual recursion detected", `Quick, test_mutual_recursion_detected);
    ("dag not recursive", `Quick, test_dag_not_recursive);
    ("icall sites listed", `Quick, test_icall_sites_listed);
    ("dot export", `Quick, test_dot_export);
    Helpers.qcheck_to_alcotest prop_random_programs_acyclic;
    Helpers.qcheck_to_alcotest prop_matches_reference;
  ]
