open Pibe_ir
open Types

type clone_kind =
  | Cloned_direct of string
  | Cloned_indirect
  | Cloned_asm

type cloned_site = {
  new_site : site;
  callee_site : site;
  kind : clone_kind;
}

type promotion = {
  fallback_site : site;
  promoted : (string * site) list;
}

(* Site ids are unique program-wide (validated), so the first hit is the
   only hit: stop scanning as soon as it is found instead of walking the
   remaining blocks and instructions.  The scan runs from the last block
   back, because the inliners' next site is most often one that the
   previous inline cloned into the blocks it appended, which a forward
   scan reaches only after the whole grown caller. *)
let find_site_in_func f site_id =
  let rec scan bi j =
    if j >= 0 then
      match f.blocks.(bi).insts.(j) with
      | (Call { site; _ } | Icall { site; _ } | Asm_icall { site; _ }) as i
        when site.site_id = site_id ->
        Some (bi, j, i)
      | _ -> scan bi (j - 1)
    else if bi > 0 then scan (bi - 1) (Array.length f.blocks.(bi - 1).insts - 1)
    else None
  in
  let n = Array.length f.blocks in
  if n = 0 then None else scan (n - 1) (Array.length f.blocks.(n - 1).insts - 1)

let offset_operand off = function
  | Reg r -> Reg (r + off)
  | Imm _ as o -> o

let offset_expr off = function
  | Const _ as e -> e
  | Move o -> Move (offset_operand off o)
  | Binop (op, a, b) -> Binop (op, offset_operand off a, offset_operand off b)
  | Load o -> Load (offset_operand off o)

(* ------------------------------------------------------------------ *)
(* Inlining                                                             *)
(* ------------------------------------------------------------------ *)

let inline_call prog ~caller ~site_id =
  let cf =
    match Program.find_opt prog caller with
    | Some f -> f
    | None -> invalid_arg ("Transform.inline_call: unknown caller " ^ caller)
  in
  let bi, j, inst =
    match find_site_in_func cf site_id with
    | Some x -> x
    | None ->
      invalid_arg
        (Printf.sprintf "Transform.inline_call: site %d not found in %s" site_id caller)
  in
  let dst, callee, args =
    match inst with
    | Call { dst; callee; args; _ } -> (dst, callee, args)
    | Icall _ | Asm_icall _ | Assign _ | Store _ | Observe _ ->
      invalid_arg
        (Printf.sprintf "Transform.inline_call: site %d in %s is not a direct call" site_id
           caller)
  in
  let ff =
    match Program.find_opt prog callee with
    | Some f -> f
    | None -> invalid_arg ("Transform.inline_call: unknown callee " ^ callee)
  in
  let n = Array.length cf.blocks in
  let m = Array.length ff.blocks in
  let off = cf.nregs in
  let cont = n + m in
  let prog = ref prog in
  let cloned = ref [] in
  let clone_site_inst i =
    let fresh origin =
      let p, s = Program.clone_site !prog ~origin in
      prog := p;
      s
    in
    match i with
    | Call c ->
      let s = fresh c.site in
      cloned := { new_site = s; callee_site = c.site; kind = Cloned_direct c.callee } :: !cloned;
      Call
        {
          c with
          site = s;
          dst = Option.map (fun r -> r + off) c.dst;
          args = List.map (offset_operand off) c.args;
        }
    | Icall c ->
      let s = fresh c.site in
      cloned := { new_site = s; callee_site = c.site; kind = Cloned_indirect } :: !cloned;
      Icall
        {
          site = s;
          dst = Option.map (fun r -> r + off) c.dst;
          fptr = offset_operand off c.fptr;
          args = List.map (offset_operand off) c.args;
        }
    | Asm_icall c ->
      let s = fresh c.site in
      cloned := { new_site = s; callee_site = c.site; kind = Cloned_asm } :: !cloned;
      Asm_icall { fptr = offset_operand off c.fptr; site = s }
    | Assign (r, e) -> Assign (r + off, offset_expr off e)
    | Store (a, v) -> Store (offset_operand off a, offset_operand off v)
    | Observe v -> Observe (offset_operand off v)
  in
  let map_label l = n + l in
  let map_callee_term = function
    | Jmp l -> ([||], Jmp (map_label l))
    | Br (c, l1, l2) -> ([||], Br (offset_operand off c, map_label l1, map_label l2))
    | Switch s ->
      ( [||],
        Switch
          {
            s with
            scrutinee = offset_operand off s.scrutinee;
            cases = Array.map (fun (v, l) -> (v, map_label l)) s.cases;
            default = map_label s.default;
          } )
    | Ret v ->
      let extra =
        match (dst, v) with
        | Some d, Some o -> [| Assign (d, Move (offset_operand off o)) |]
        | Some d, None -> [| Assign (d, Const 0) |]
        | None, _ -> [||]
      in
      (extra, Jmp cont)
  in
  let split_block = cf.blocks.(bi) in
  let prefix = Array.sub split_block.insts 0 j in
  let suffix =
    Array.sub split_block.insts (j + 1) (Array.length split_block.insts - j - 1)
  in
  (* Calling-convention glue, matching the engine's frame semantics:
     surplus arguments are dropped, missing parameters read as zero.  The
     explicit zeroing matters when the caller's CFG re-enters the inlined
     body (a loop): a fresh frame would have reset the register. *)
  let param_moves =
    Array.init ff.params (fun i ->
        match List.nth_opt args i with
        | Some a -> Assign (off + i, Move a)
        | None -> Assign (off + i, Const 0))
  in
  let blocks =
    Array.init (n + m + 1) (fun l ->
        if l = bi then
          { insts = Array.append prefix param_moves; term = Jmp (map_label ff.entry) }
        else if l < n then cf.blocks.(l)
        else if l < n + m then begin
          let fb = ff.blocks.(l - n) in
          let insts = Array.map clone_site_inst fb.insts in
          let extra, term = map_callee_term fb.term in
          { insts = Array.append insts extra; term }
        end
        else { insts = suffix; term = split_block.term })
  in
  let cf' = { cf with blocks; nregs = cf.nregs + ff.nregs } in
  (Program.update_func !prog cf', List.rev !cloned, bi)

(* ------------------------------------------------------------------ *)
(* Indirect call promotion                                              *)
(* ------------------------------------------------------------------ *)

let promote_icall prog ~caller ~site_id ~targets =
  let cf =
    match Program.find_opt prog caller with
    | Some f -> f
    | None -> invalid_arg ("Transform.promote_icall: unknown caller " ^ caller)
  in
  let bi, j, inst =
    match find_site_in_func cf site_id with
    | Some x -> x
    | None ->
      invalid_arg
        (Printf.sprintf "Transform.promote_icall: site %d not found in %s" site_id caller)
  in
  let dst, fptr, args, orig_site =
    match inst with
    | Icall { dst; fptr; args; site } -> (dst, fptr, args, site)
    | Call _ | Asm_icall _ | Assign _ | Store _ | Observe _ ->
      invalid_arg
        (Printf.sprintf "Transform.promote_icall: site %d in %s is not an indirect call"
           site_id caller)
  in
  if targets = [] then invalid_arg "Transform.promote_icall: empty target list";
  let prog = ref prog in
  let target_indices =
    List.map
      (fun t ->
        match Program.fptr_index !prog t with
        | Some i -> (t, i)
        | None -> invalid_arg ("Transform.promote_icall: target not in fptr table: @" ^ t))
      targets
  in
  let fresh_site () =
    let p, s = Program.fresh_site !prog in
    prog := p;
    s
  in
  let clone_fallback () =
    let p, s = Program.clone_site !prog ~origin:orig_site in
    prog := p;
    s
  in
  let n = Array.length cf.blocks in
  let split_block = cf.blocks.(bi) in
  let prefix = Array.sub split_block.insts 0 j in
  let suffix =
    Array.sub split_block.insts (j + 1) (Array.length split_block.insts - j - 1)
  in
  let k = List.length target_indices in
  (* Layout of the new blocks appended after the existing ones:
       n + 2*i     : direct call to target i, jmp cont
       n + 2*i + 1 : test for target i+1 (or the fallback when i = k-1)
       n + 2*k     : cont (suffix + original terminator)
     The head block [bi] keeps the prefix and tests target 0. *)
  let cont = n + (2 * k) in
  let nregs = ref cf.nregs in
  let fresh_reg () =
    let r = !nregs in
    incr nregs;
    r
  in
  let test_insts_and_term (t_idx : int) ~(call_block : label) ~(next_block : label) =
    let c = fresh_reg () in
    ([| Assign (c, Binop (Eq, fptr, Imm t_idx)) |], Br (Reg c, call_block, next_block))
  in
  let promoted = ref [] in
  let call_block target =
    let s = fresh_site () in
    promoted := (target, s) :: !promoted;
    { insts = [| Call { dst; callee = target; args; site = s; tail = false } |]; term = Jmp cont }
  in
  let fallback_site = clone_fallback () in
  let fallback_block =
    { insts = [| Icall { dst; fptr; args; site = fallback_site } |]; term = Jmp cont }
  in
  let targets_arr = Array.of_list target_indices in
  (* Build test/call blocks. *)
  let extra_blocks = Array.make ((2 * k) + 1) fallback_block in
  List.iteri
    (fun i (t, _) ->
      extra_blocks.(2 * i) <- call_block t;
      if i < k - 1 then begin
        let _, next_idx = targets_arr.(i + 1) in
        let insts, term =
          test_insts_and_term next_idx
            ~call_block:(n + (2 * (i + 1)))
            ~next_block:(if i + 1 < k - 1 then n + (2 * (i + 1)) + 1 else n + (2 * (k - 1)) + 1)
        in
        extra_blocks.((2 * i) + 1) <- { insts; term }
      end
      else extra_blocks.((2 * i) + 1) <- fallback_block)
    target_indices;
  extra_blocks.(2 * k) <- { insts = suffix; term = split_block.term };
  let head_insts, head_term =
    let _, idx0 = targets_arr.(0) in
    let insts, term =
      test_insts_and_term idx0 ~call_block:n
        ~next_block:(if k > 1 then n + 1 else n + 1 (* fallback at n+1 when k=1 *))
    in
    (Array.append prefix insts, term)
  in
  let blocks =
    Array.init (n + (2 * k) + 1) (fun l ->
        if l = bi then { insts = head_insts; term = head_term }
        else if l < n then cf.blocks.(l)
        else extra_blocks.(l - n))
  in
  let cf' = { cf with blocks; nregs = !nregs } in
  ( Program.update_func !prog cf',
    { fallback_site; promoted = List.rev !promoted } )
