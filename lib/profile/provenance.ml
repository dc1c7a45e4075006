open Pibe_ir
open Types

type witness =
  | W_sites of int list
  | W_caller_entries of string
  | W_none

type instance = {
  caller : string;
  callee : string;
  site_id : int;
  origin : int;
  witness : witness;
  trained_count : int;
  trained_caller_entries : int;
}

type t = {
  mutable rev_instances : instance list;  (* newest first *)
  promotions : (int, int * string) Hashtbl.t;
}

let create () = { rev_instances = []; promotions = Hashtbl.create 64 }

(* Instances are immutable, so only the two mutable containers are fresh. *)
let copy t = { rev_instances = t.rev_instances; promotions = Hashtbl.copy t.promotions }
let instances t = List.rev t.rev_instances
let inline_count t = List.length t.rev_instances
let promotion t origin = Hashtbl.find_opt t.promotions origin
let promotion_count t = Hashtbl.length t.promotions

let promotions t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.promotions [])

let is_empty t = t.rev_instances = [] && Hashtbl.length t.promotions = 0

(* ------------------------- once-block analysis ------------------------- *)

(* Blocks of [f] that execute exactly once per complete invocation: the
   block lies on every entry-to-return path (it dominates every reachable
   [Ret] block) and cannot repeat (it is not reachable from itself).
   Call sites inside such a block are witnesses: their event count on the
   profiled image equals the number of times the surrounding body ran. *)
(* Every block's flag at once, for the callee side of [record_inline],
   which needs a flag per cloned site: dominators by the
   Cooper-Harvey-Kennedy iterative idom scheme (RPO sweeps with chain
   intersection, O(E) per sweep and a couple of sweeps in practice) and
   cycling by one Kosaraju SCC pass.  The caller side asks about one
   block only and uses [runs_once]. *)
let once_blocks (f : func) =
  let n = Array.length f.blocks in
  let succs = Array.map (fun b -> Func.successors b.term) f.blocks in
  let reachable = Func.reachable_labels f in
  (* postorder over reachable blocks, iteratively (inlined callers can be
     deep enough to overflow the OCaml stack on a recursive DFS) *)
  let post = ref [] in
  let visited = Array.make n false in
  let rec_stack = ref [ (f.entry, ref succs.(f.entry)) ] in
  visited.(f.entry) <- true;
  while !rec_stack <> [] do
    match !rec_stack with
    | [] -> ()
    | (b, rest) :: tl -> (
      match !rest with
      | [] ->
        post := b :: !post;
        rec_stack := tl
      | s :: ss ->
        rest := ss;
        if reachable.(s) && not visited.(s) then begin
          visited.(s) <- true;
          rec_stack := (s, ref succs.(s)) :: !rec_stack
        end)
  done;
  let rpo = !post in
  let rpo_num = Array.make n (-1) in
  List.iteri (fun i b -> rpo_num.(b) <- i) rpo;
  let preds = Array.make n [] in
  Array.iteri
    (fun i ss ->
      if reachable.(i) then
        List.iter (fun s -> if reachable.(s) then preds.(s) <- i :: preds.(s)) ss)
    succs;
  let idom = Array.make n (-1) in
  idom.(f.entry) <- f.entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_num.(!a) > rpo_num.(!b) do
        a := idom.(!a)
      done;
      while rpo_num.(!b) > rpo_num.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> f.entry then
          let ni =
            List.fold_left
              (fun acc p ->
                if idom.(p) = -1 then acc
                else match acc with None -> Some p | Some a -> Some (intersect a p))
              None preds.(b)
          in
          match ni with
          | Some ni when idom.(b) <> ni ->
            idom.(b) <- ni;
            changed := true
          | _ -> ())
      rpo
  done;
  let ret_blocks = ref [] in
  Array.iteri
    (fun i b ->
      match b.term with
      | Ret _ when reachable.(i) -> ret_blocks := i :: !ret_blocks
      | _ -> ())
    f.blocks;
  let out = Array.make n false in
  (match !ret_blocks with
  | [] -> ()
  | r0 :: rest ->
    (* blocks dominating every ret = the idom chain of the rets' nearest
       common dominator, inclusive *)
    let nca = List.fold_left intersect r0 rest in
    let b = ref nca in
    out.(!b) <- true;
    while !b <> f.entry do
      b := idom.(!b);
      out.(!b) <- true
    done;
    (* strike the chain blocks that can repeat: members of a non-trivial
       SCC, or self-loops (Kosaraju: the postorder above, then reverse
       reachability in completion order) *)
    let comp = Array.make n (-1) in
    let comp_size = Array.make n 0 in
    List.iter
      (fun root ->
        if comp.(root) = -1 then begin
          let stack = ref [ root ] in
          while !stack <> [] do
            match !stack with
            | [] -> ()
            | b :: tl ->
              stack := tl;
              if comp.(b) = -1 then begin
                comp.(b) <- root;
                comp_size.(root) <- comp_size.(root) + 1;
                List.iter
                  (fun p -> if reachable.(p) && comp.(p) = -1 then stack := p :: !stack)
                  preds.(b)
              end
          done
        end)
      rpo;
    Array.iteri
      (fun b on_chain ->
        if
          on_chain
          && (comp_size.(comp.(b)) > 1 || List.mem b succs.(b))
        then out.(b) <- false)
      out);
  out

(* [runs_once f bi] is [(once_blocks f).(bi)] from at most two
   depth-first walks, without the dominator tree or the SCCs of the whole
   function: [bi] runs once per invocation iff it is reachable and some
   [Ret] is, no [Ret] is reachable from the entry once [bi] is removed
   (so [bi] dominates every reachable [Ret]; the entry block passes
   trivially), and [bi] is not reachable from its own successors.  Walks
   stop early once the answer is known, and allocate two arrays of the
   block count and nothing per block.  Labels outside the function are
   ignored, as [Func.reachable_labels] ignores them. *)
let runs_once (f : func) bi =
  let n = Array.length f.blocks in
  let seen = Array.make n 0 and stack = Array.make n 0 in
  let walk = ref 1 and top = ref 0 and hit_bi = ref false in
  (* [push l] queues [l] unless the current walk already saw it; [bi]
     itself is never entered, only noted in [hit_bi] *)
  let push l =
    if l = bi then hit_bi := true
    else if l >= 0 && l < n && seen.(l) <> !walk then begin
      seen.(l) <- !walk;
      stack.(!top) <- l;
      incr top
    end
  in
  let is_ret l = match f.blocks.(l).term with Ret _ -> true | _ -> false in
  (* runs the current walk until [stop] holds or nothing is queued; true
     when it popped a [Ret] block *)
  let run ~stop =
    let ret = ref false in
    while !top > 0 && not (stop !ret) do
      decr top;
      let l = stack.(!top) in
      if is_ret l then ret := true;
      Func.iter_successors f.blocks.(l).term push
    done;
    !ret
  in
  bi >= 0 && bi < n
  && begin
    (* walk 1, from the entry around [bi]: a [Ret] found settles it *)
    if f.entry = bi then hit_bi := true else push f.entry;
    (not (run ~stop:Fun.id)) && !hit_bi
    && begin
      (* walk 2, from [bi]'s successors: reaching [bi] again settles it *)
      walk := 2;
      top := 0;
      hit_bi := false;
      Func.iter_successors f.blocks.(bi).term push;
      let ret_after = run ~stop:(fun _ -> !hit_bi) in
      (not !hit_bi) && (is_ret bi || ret_after)
    end
  end

let sites_in_block (b : block) =
  Array.to_list
    (Array.map
       (function
         | Call { site; _ } | Icall { site; _ } | Asm_icall { site; _ } ->
           Some site.site_id
         | Assign _ | Store _ | Observe _ -> None)
       b.insts)
  |> List.filter_map Fun.id

(* ----------------------------- recording ----------------------------- *)

let record_inline t ~prog_before ~caller ~site_id ~site_block ~callee ~cloned
    ~trained_count ~trained_caller_entries =
  let cf = Program.find prog_before caller in
  let ff = Program.find prog_before callee in
  (* the consumed site's origin, from the block it is said to be in *)
  let origin =
    let origin_in b =
      Array.find_map
        (function
          | Call { site; _ } when site.site_id = site_id -> Some site.site_origin
          | _ -> None)
        b.insts
    in
    match
      if site_block >= 0 && site_block < Array.length cf.blocks then
        origin_in cf.blocks.(site_block)
      else None
    with
    | Some origin -> origin
    | None ->
      invalid_arg
        (Printf.sprintf "Provenance.record_inline: site %d not found in %s" site_id caller)
  in
  (* preferred witness: a clone of a callee site that ran once per
     invocation of the callee body *)
  let callee_once = once_blocks ff in
  let callee_block_of = Hashtbl.create 16 in
  Array.iteri
    (fun cbi b ->
      List.iter (fun sid -> Hashtbl.replace callee_block_of sid cbi) (sites_in_block b))
    ff.blocks;
  let internal =
    List.filter_map
      (fun (new_id, callee_sid) ->
        match Hashtbl.find_opt callee_block_of callee_sid with
        | Some cbi when callee_once.(cbi) -> Some new_id
        | _ -> None)
      cloned
  in
  let witness =
    if internal <> [] then W_sites (List.sort compare internal)
    else
      (* fallback 1: a sibling site in the consumed site's own block runs
         exactly as often as the consumed call did *)
      let siblings =
        List.filter (fun sid -> sid <> site_id) (sites_in_block cf.blocks.(site_block))
      in
      if siblings <> [] then W_sites (List.sort compare siblings)
      else if runs_once cf site_block then
        (* fallback 2: the consumed block runs once per caller entry *)
        W_caller_entries caller
      else W_none
  in
  t.rev_instances <-
    { caller; callee; site_id; origin; witness; trained_count; trained_caller_entries }
    :: t.rev_instances

let record_promotion t ~promoted_origin ~origin ~target =
  Hashtbl.replace t.promotions promoted_origin (origin, target)

(* ---------------------------- persistence ---------------------------- *)

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "provenance {\n";
  List.iter
    (fun (po, (origin, target)) ->
      Buffer.add_string buf (Printf.sprintf "  promo %d = %d @%s\n" po origin target))
    (promotions t);
  List.iter
    (fun i ->
      let w =
        match i.witness with
        | W_sites ids -> "sites " ^ String.concat "," (List.map string_of_int ids)
        | W_caller_entries f -> "entries @" ^ f
        | W_none -> "none"
      in
      Buffer.add_string buf
        (Printf.sprintf "  inline @%s @%s %d %d %d %d %s\n" i.caller i.callee i.site_id
           i.origin i.trained_count i.trained_caller_entries w))
    (instances t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Same error form as [Profile.of_string]: the IR parser's located
   [Parse_error]. *)
let of_string text =
  let t = create () in
  let rev = ref [] in
  (* running per-kind totals *)
  let trained = ref 0 and trained_entries = ref 0 in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let fail fmt =
        Printf.ksprintf
          (fun message -> raise (Pibe_ir.Parser.Parse_error { line = lineno; message }))
          fmt
      in
      let line = String.trim raw in
      let malformed () = fail "malformed line: %s" line in
      let parse_int tok = match int_of_string_opt tok with Some v -> v | None -> malformed () in
      let parse_name tok =
        if String.length tok >= 2 && tok.[0] = '@' then String.sub tok 1 (String.length tok - 1)
        else malformed ()
      in
      let parse_count total tok =
        let c = parse_int tok in
        if c < 0 then fail "negative count %d" c;
        if c > max_int - !total then fail "count %d overflows the total of its kind" c;
        total := !total + c;
        c
      in
      if line = "" || line = "provenance {" || line = "}" then ()
      else
        match String.split_on_char ' ' line with
        | [ "promo"; po; "="; origin; target ] ->
          let promoted_origin = parse_int po in
          let origin = parse_int origin in
          record_promotion t ~promoted_origin ~origin ~target:(parse_name target)
        | "inline" :: caller :: callee :: site_id :: origin :: count :: entries :: w ->
          let caller = parse_name caller in
          let callee = parse_name callee in
          let site_id = parse_int site_id in
          let origin = parse_int origin in
          let trained_count = parse_count trained count in
          let trained_caller_entries = parse_count trained_entries entries in
          let witness =
            match w with
            | [ "none" ] -> W_none
            | [ "entries"; f ] -> W_caller_entries (parse_name f)
            | [ "sites"; ids ] -> W_sites (List.map parse_int (String.split_on_char ',' ids))
            | _ -> malformed ()
          in
          rev :=
            { caller; callee; site_id; origin; witness; trained_count; trained_caller_entries }
            :: !rev
        | _ -> malformed ())
    (String.split_on_char '\n' text);
  t.rev_instances <- !rev;
  t
