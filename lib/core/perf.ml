module Engine = Pibe_cpu.Engine
module Tbl = Pibe_util.Tbl

type row = {
  func : string;
  self_cycles : int;
  inclusive_cycles : int;
  calls : int;
}

type acc = {
  mutable self : int;
  mutable inclusive : int;
  mutable calls : int;
}

type t = {
  table : (string, acc) Hashtbl.t;
  mutable total : int;
}

let acc_of t name =
  match Hashtbl.find_opt t.table name with
  | Some a -> a
  | None ->
    let a = { self = 0; inclusive = 0; calls = 0 } in
    Hashtbl.replace t.table name a;
    a

let profile config prog ~run =
  let t = { table = Hashtbl.create 256; total = 0 } in
  (* The engine is created after the hooks close over this ref. *)
  let engine_ref = ref None in
  let cycles () =
    match !engine_ref with
    | Some e -> Engine.cycles e
    | None -> 0
  in
  (* shadow stack of (function, cycles at entry); the delta since the last
     event is charged to the function that was running *)
  let stack = ref [] in
  let last_stamp = ref 0 in
  let charge_running now =
    (match !stack with
    | (running, _) :: _ ->
      (acc_of t running).self <- (acc_of t running).self + (now - !last_stamp)
    | [] ->
      (* the top-level entry function is not announced through on_call *)
      let a = acc_of t "[entry]" in
      a.self <- a.self + (now - !last_stamp));
    last_stamp := now
  in
  let on_call ~site:_ ~callee =
    let now = cycles () in
    charge_running now;
    let name = Engine.func_name (Option.get !engine_ref) callee in
    let a = acc_of t name in
    a.calls <- a.calls + 1;
    stack := (name, now) :: !stack
  in
  let on_exit fname =
    let now = cycles () in
    charge_running now;
    match !stack with
    | (top, entered) :: rest when String.equal top fname ->
      (acc_of t top).inclusive <- (acc_of t top).inclusive + (now - entered);
      stack := rest
    | _ ->
      (* top-level entries are not announced through on_call; ignore the
         unmatched exit *)
      ()
  in
  let config = { config with Engine.on_call = Some on_call; on_exit = Some on_exit } in
  let engine = Engine.create ~config prog in
  engine_ref := Some engine;
  run engine;
  t.total <- cycles ();
  t

let rows t =
  let all =
    Hashtbl.fold
      (fun func a acc ->
        { func; self_cycles = a.self; inclusive_cycles = a.inclusive; calls = a.calls }
        :: acc)
      t.table []
  in
  List.sort
    (fun a b ->
      if a.self_cycles <> b.self_cycles then compare b.self_cycles a.self_cycles
      else String.compare a.func b.func)
    all

let top ?(n = 15) t = List.filteri (fun i _ -> i < n) (rows t)
let total_cycles t = t.total

let to_table ?(n = 15) t =
  let tbl =
    Tbl.create ~title:"flat profile (self cycles, heaviest first)"
      ~columns:[ "#"; "function"; "self"; "self %"; "inclusive"; "calls" ]
  in
  List.iteri
    (fun i r ->
      Tbl.add_row tbl
        [
          Tbl.Int (i + 1);
          Tbl.Str r.func;
          Tbl.Int r.self_cycles;
          Exp_common.pct
            (Pibe_util.Stats.ratio_pct ~num:r.self_cycles ~den:(max 1 t.total));
          Tbl.Int r.inclusive_cycles;
          Tbl.Int r.calls;
        ])
    (top ~n t);
  tbl
