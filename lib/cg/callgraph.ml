open Pibe_ir

type direct_edge = {
  caller : string;
  callee : string;
  site : Types.site;
}

(* Every name the graph knows has a dense id: the program's functions in
   layout order, then the callees outside the program in the order their
   first call appears.  [ids] is the one name-to-id table; everything
   after [build] walks ids. *)
type t = {
  ids : (string, int) Hashtbl.t;
  names : string array;  (* by id *)
  funcs : Types.func array;  (* the program's functions: ids below its length *)
  out_edges : direct_edge list array;  (* by function id, in block order *)
  callees : int array array;  (* by id: the callee ids of its out-edges, in order *)
  cyclic : bool array;  (* by id: on a directed cycle of direct calls *)
  (* [reaches]'s scratch: a node is visited when its mark is [epoch] *)
  marks : int array;
  stack : int array;
  mutable epoch : int;
}

(* Direct call edges of [f] in block order, built back to front. *)
let call_edges (f : Types.func) =
  let acc = ref [] in
  for l = Array.length f.blocks - 1 downto 0 do
    let insts = f.blocks.(l).insts in
    for i = Array.length insts - 1 downto 0 do
      match insts.(i) with
      | Types.Call { site; callee; _ } -> acc := { caller = f.fname; callee; site } :: !acc
      | Assign _ | Store _ | Observe _ | Icall _ | Asm_icall _ -> ()
    done
  done;
  !acc

(* Tarjan's strongly connected components, iterative: [frames] and
   [next] hold the depth-first path and each frame's next out-edge, so a
   deep call chain costs array slots, not host stack.  A component is
   cyclic when it has two members or its one member calls itself. *)
let cyclic_nodes callees =
  let n = Array.length callees in
  let index = Array.make n (-1) and low = Array.make n 0 and on_stack = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 in
  let frames = Array.make n 0 and next = Array.make n 0 and fp = ref 0 in
  let cyclic = Array.make n false and counter = ref 0 in
  let enter v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frames.(!fp) <- v;
    next.(!fp) <- 0;
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then enter root;
    while !fp > 0 do
      let v = frames.(!fp - 1) and k = next.(!fp - 1) in
      let cs = callees.(v) in
      if k < Array.length cs then begin
        next.(!fp - 1) <- k + 1;
        let w = cs.(k) in
        if index.(w) < 0 then enter w
        else if on_stack.(w) && index.(w) < low.(v) then low.(v) <- index.(w)
      end
      else begin
        decr fp;
        if !fp > 0 then begin
          let u = frames.(!fp - 1) in
          if low.(v) < low.(u) then low.(u) <- low.(v)
        end;
        if low.(v) = index.(v) then begin
          let top = !sp in
          sp := top - 1;
          while stack.(!sp) <> v do
            decr sp
          done;
          for i = !sp to top - 1 do
            on_stack.(stack.(i)) <- false
          done;
          if top - !sp > 1 || Array.mem v cs then
            for i = !sp to top - 1 do
              cyclic.(stack.(i)) <- true
            done
        end
      end
    done
  done;
  cyclic

let build p =
  let funcs = Array.of_list (List.map (Program.find p) (Program.layout_order p)) in
  let nfuncs = Array.length funcs in
  let ids = Hashtbl.create nfuncs in
  Array.iteri (fun i (f : Types.func) -> Hashtbl.replace ids f.fname i) funcs;
  let outside = ref [] and count = ref nfuncs in
  let id_of name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.add ids name i;
      outside := name :: !outside;
      i
  in
  let out_edges = Array.map call_edges funcs in
  let own =
    Array.map
      (fun es ->
        let cs = Array.make (List.length es) 0 in
        List.iteri (fun k e -> cs.(k) <- id_of e.callee) es;
        cs)
      out_edges
  in
  let n = !count in
  let callees = Array.init n (fun i -> if i < nfuncs then own.(i) else [||]) in
  let names =
    Array.append
      (Array.map (fun (f : Types.func) -> f.fname) funcs)
      (Array.of_list (List.rev !outside))
  in
  {
    ids;
    names;
    funcs;
    out_edges;
    callees;
    cyclic = cyclic_nodes callees;
    marks = Array.make n 0;
    stack = Array.make n 0;
    epoch = 0;
  }

let func_id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i when i < Array.length t.funcs -> Some i
  | Some _ | None -> None

let direct_edges t = List.concat (Array.to_list t.out_edges)

let callees_of t name =
  match func_id t name with
  | Some i -> t.out_edges.(i)
  | None -> []

let callers_of t name = List.filter (fun e -> String.equal e.callee name) (direct_edges t)

let icall_sites_of t name =
  match func_id t name with
  | Some i -> Func.icall_sites t.funcs.(i)
  | None -> []

let in_recursive_cycle t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> t.cyclic.(i)
  | None -> false

let reaches t ~src ~dst =
  String.equal src dst
  ||
  match (Hashtbl.find_opt t.ids src, Hashtbl.find_opt t.ids dst) with
  | Some s, Some d ->
    t.epoch <- t.epoch + 1;
    let epoch = t.epoch and marks = t.marks and stack = t.stack in
    marks.(s) <- epoch;
    stack.(0) <- s;
    let sp = ref 1 and found = ref false in
    while (not !found) && !sp > 0 do
      decr sp;
      let cs = t.callees.(stack.(!sp)) in
      for k = 0 to Array.length cs - 1 do
        let w = cs.(k) in
        if w = d then found := true
        else if marks.(w) <> epoch then begin
          marks.(w) <- epoch;
          stack.(!sp) <- w;
          incr sp
        end
      done
    done;
    !found
  | _ -> false

(* Post-order depth-first walk over direct edges from each function in
   layout order; cycles are broken by the visited set. *)
let bottom_up_order t =
  let n = Array.length t.names in
  let seen = Array.make n false in
  let frames = Array.make n 0 and next = Array.make n 0 and fp = ref 0 in
  let order = ref [] in
  for root = 0 to Array.length t.funcs - 1 do
    if not seen.(root) then begin
      seen.(root) <- true;
      frames.(0) <- root;
      next.(0) <- 0;
      fp := 1
    end;
    while !fp > 0 do
      let v = frames.(!fp - 1) and k = next.(!fp - 1) in
      let cs = t.callees.(v) in
      if k < Array.length cs then begin
        next.(!fp - 1) <- k + 1;
        let w = cs.(k) in
        if not seen.(w) then begin
          seen.(w) <- true;
          frames.(!fp) <- w;
          next.(!fp) <- 0;
          incr fp
        end
      end
      else begin
        decr fp;
        order := t.names.(v) :: !order
      end
    done
  done;
  List.rev !order

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph callgraph {\n";
  Array.iter
    (List.iter (fun e ->
         Buffer.add_string buf
           (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"s%d\"];\n" e.caller e.callee
              e.site.Types.site_id)))
    t.out_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
