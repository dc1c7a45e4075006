open Pibe_ir.Types

let standard = 5

let inst_cost = function
  | Assign _ | Store _ | Observe _ -> standard
  | Call { args; _ } | Icall { args; _ } -> standard + (standard * List.length args)
  | Asm_icall _ -> standard

let term_cost = function
  | Jmp _ -> 0
  | Br _ -> standard
  | Switch { cases; _ } -> standard + (standard * Array.length cases)
  | Ret _ -> standard

let block_cost b = Array.fold_left (fun acc i -> acc + inst_cost i) (term_cost b.term) b.insts
let func_cost f = Array.fold_left (fun acc b -> acc + block_cost b) 0 f.blocks

let inline_delta ~before ~after ~site_block =
  let d = ref (block_cost after.blocks.(site_block) - block_cost before.blocks.(site_block)) in
  for l = Array.length before.blocks to Array.length after.blocks - 1 do
    d := !d + block_cost after.blocks.(l)
  done;
  !d

let rule2_default = 12_000
let rule3_default = 3_000
