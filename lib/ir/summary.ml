open Types

type t = {
  blocks : int;
  insts : int;
  code_bytes : int;
  icall_sites : site list;
  rets : int;
  jump_tables : int;
}

(* Keyed on physical identity, hashed by name: the name is consistent
   with [==], and hashing it costs a tenth of a structural hash of the
   body, which would cost as much as the walks it saves.  Every version
   of one function shares a bucket.  Entries are strong references; the
   capacity sits an order of magnitude above a paper-scale working set
   (about 2,800 summaries for 1,744 functions over a 24-build matrix). *)
let summaries : (func, t) Pibe_util.Memo.t =
  Pibe_util.Memo.create ~capacity:(1 lsl 15) ~hash:(fun f -> Hashtbl.hash f.fname) ~equal:( == ) ()

let compute (f : func) =
  {
    blocks = Array.length f.blocks;
    insts = Func.inst_count f;
    code_bytes = Layout.func_size f;
    icall_sites = Func.icall_sites f;
    rets = Func.ret_count f;
    jump_tables = Func.jump_table_count f;
  }

let of_func f = Pibe_util.Memo.get summaries f compute
