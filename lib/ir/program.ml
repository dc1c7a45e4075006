open Types
module String_map = Map.Make (String)

type t = {
  funcs : func String_map.t;
  rev_order : string list;
  fptr_table : string array;
  globals_size : int;
  rev_globals_init : (int * int) list;
  next_site : int;
}

let empty =
  {
    funcs = String_map.empty;
    rev_order = [];
    fptr_table = [||];
    globals_size = 0;
    rev_globals_init = [];
    next_site = 0;
  }

let with_globals_size t size = { t with globals_size = size }
let layout_order t = List.rev t.rev_order
let find t name = String_map.find name t.funcs
let find_opt t name = String_map.find_opt name t.funcs
let mem t name = String_map.mem name t.funcs

let add_func t f =
  let rev_order =
    if String_map.mem f.fname t.funcs then t.rev_order else f.fname :: t.rev_order
  in
  { t with funcs = String_map.add f.fname f t.funcs; rev_order }

let update_func t f =
  if not (String_map.mem f.fname t.funcs) then
    invalid_arg ("Program.update_func: unknown function " ^ f.fname)
  else { t with funcs = String_map.add f.fname f t.funcs }

let remove_func t name =
  if not (String_map.mem name t.funcs) then
    invalid_arg ("Program.remove_func: unknown function " ^ name)
  else if Array.exists (String.equal name) t.fptr_table then
    invalid_arg ("Program.remove_func: " ^ name ^ " is address-taken (fptr table)")
  else
    {
      t with
      funcs = String_map.remove name t.funcs;
      rev_order = List.filter (fun n -> not (String.equal n name)) t.rev_order;
    }

let iter_funcs t g = List.iter (fun name -> g (find t name)) (layout_order t)

let fold_funcs t ~init ~f =
  List.fold_left (fun acc name -> f acc (find t name)) init (layout_order t)

let iter_unordered t g = String_map.iter (fun _ f -> g f) t.funcs
let fold_unordered t ~init ~f = String_map.fold (fun _ fn acc -> f acc fn) t.funcs init
let func_count t = String_map.cardinal t.funcs

let fptr_index t name =
  let n = Array.length t.fptr_table in
  let rec go i =
    if i >= n then None else if String.equal t.fptr_table.(i) name then Some i else go (i + 1)
  in
  go 0

let add_fptr t name =
  match fptr_index t name with
  | Some i -> (t, i)
  | None ->
    let i = Array.length t.fptr_table in
    ({ t with fptr_table = Array.append t.fptr_table [| name |] }, i)

let fresh_site t =
  let id = t.next_site in
  ({ t with next_site = id + 1 }, { site_id = id; site_origin = id })

let clone_site t ~origin =
  let id = t.next_site in
  ({ t with next_site = id + 1 }, { site_id = id; site_origin = origin.site_origin })

let set_global t ~addr ~value =
  if addr < 0 || addr >= t.globals_size then
    invalid_arg (Printf.sprintf "Program.set_global: address %d out of range" addr)
  else { t with rev_globals_init = (addr, value) :: t.rev_globals_init }

let initial_memory t =
  let mem = Array.make t.globals_size 0 in
  List.iter (fun (addr, v) -> mem.(addr) <- v) (List.rev t.rev_globals_init);
  mem

let all_sites t =
  List.rev
    (fold_funcs t ~init:[] ~f:(fun acc f ->
         Func.fold_insts f ~init:acc ~f:(fun acc i ->
             match i with
             | Call { site; _ } | Icall { site; _ } | Asm_icall { site; _ } ->
               (f.fname, site) :: acc
             | Assign _ | Store _ | Observe _ -> acc)))

let total_icall_sites t =
  fold_funcs t ~init:0 ~f:(fun acc f -> acc + List.length (Func.icall_sites f))

let total_ret_sites t = fold_funcs t ~init:0 ~f:(fun acc f -> acc + Func.ret_count f)
