open Types

let block f l =
  if l < 0 || l >= Array.length f.blocks then
    invalid_arg (Printf.sprintf "Func.block: label %d out of range in %s" l f.fname)
  else f.blocks.(l)

let iter_insts f g =
  Array.iteri (fun l b -> Array.iter (fun i -> g l i) b.insts) f.blocks

let iter_terms f g = Array.iteri (fun l b -> g l b.term) f.blocks

let fold_insts f ~init ~f:g =
  let acc = ref init in
  iter_insts f (fun _ i -> acc := g !acc i);
  !acc

let map_blocks f ~f:g = { f with blocks = Array.mapi g f.blocks }

let call_sites f =
  List.rev
    (fold_insts f ~init:[] ~f:(fun acc i ->
         match i with
         | Call { site; callee; _ } -> (site, callee) :: acc
         | Assign _ | Store _ | Observe _ | Icall _ | Asm_icall _ -> acc))

let icall_sites f =
  List.rev
    (fold_insts f ~init:[] ~f:(fun acc i ->
         match i with
         | Icall { site; _ } -> site :: acc
         | Assign _ | Store _ | Observe _ | Call _ | Asm_icall _ -> acc))

let asm_icall_sites f =
  List.rev
    (fold_insts f ~init:[] ~f:(fun acc i ->
         match i with
         | Asm_icall { site; _ } -> site :: acc
         | Assign _ | Store _ | Observe _ | Call _ | Icall _ -> acc))

let ret_count f =
  Array.fold_left
    (fun acc b -> match b.term with Ret _ -> acc + 1 | Jmp _ | Br _ | Switch _ -> acc)
    0 f.blocks

let jump_table_count f =
  Array.fold_left
    (fun acc b ->
      match b.term with
      | Switch { lowering = Jump_table; _ } -> acc + 1
      | Switch { lowering = Branch_ladder; _ } | Ret _ | Jmp _ | Br _ -> acc)
    0 f.blocks

let inst_count f =
  Array.fold_left (fun acc b -> acc + Array.length b.insts + 1) 0 f.blocks

let successors = function
  | Jmp l -> [ l ]
  | Br (_, l1, l2) -> [ l1; l2 ]
  | Switch { cases; default; _ } -> default :: Array.to_list (Array.map snd cases)
  | Ret _ -> []

let iter_successors term g =
  match term with
  | Jmp l -> g l
  | Br (_, l1, l2) ->
    g l1;
    g l2
  | Switch { cases; default; _ } ->
    g default;
    Array.iter (fun (_, l) -> g l) cases
  | Ret _ -> ()

let reachable_labels f =
  let n = Array.length f.blocks in
  let seen = Array.make n false in
  let rec go l =
    if l >= 0 && l < n && not seen.(l) then begin
      seen.(l) <- true;
      iter_successors f.blocks.(l).term go
    end
  in
  go f.entry;
  seen

let max_site_id f =
  fold_insts f ~init:(-1) ~f:(fun acc i ->
      match i with
      | Call { site; _ } | Icall { site; _ } | Asm_icall { site; _ } ->
        max acc site.site_id
      | Assign _ | Store _ | Observe _ -> acc)

let rename_sites f ~fresh =
  let rename_inst i =
    match i with
    | Call c -> Call { c with site = fresh c.site }
    | Icall c -> Icall { c with site = fresh c.site }
    | Asm_icall c -> Asm_icall { c with site = fresh c.site }
    | Assign _ | Store _ | Observe _ -> i
  in
  map_blocks f ~f:(fun _ b -> { b with insts = Array.map rename_inst b.insts })
