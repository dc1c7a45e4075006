open Pibe_ir
open Types

type defenses = {
  retpolines : bool;
  ret_retpolines : bool;
  lvi : bool;
  fineibt : bool;
  pac : bool;
  coarse_cfi : bool;
}

let no_defenses =
  {
    retpolines = false;
    ret_retpolines = false;
    lvi = false;
    fineibt = false;
    pac = false;
    coarse_cfi = false;
  }

(* "all-defenses" keeps its historical meaning — the paper's full
   retpoline/LVI stack.  The CFI/PAC family is an alternative frontier
   point, not a layer on top of it. *)
let all_defenses = { no_defenses with retpolines = true; ret_retpolines = true; lvi = true }

let defenses_name d =
  let legacy =
    match (d.retpolines, d.ret_retpolines, d.lvi) with
    | false, false, false -> []
    | true, false, false -> [ "retpolines" ]
    | false, true, false -> [ "ret-retpolines" ]
    | false, false, true -> [ "lvi-cfi" ]
    | true, true, true -> [ "all-defenses" ]
    | true, true, false -> [ "retpolines"; "ret-retpolines" ]
    | true, false, true -> [ "retpolines"; "lvi" ]
    | false, true, true -> [ "ret-retpolines"; "lvi" ]
  in
  let parts =
    legacy
    @ (if d.fineibt then [ "fineibt" ] else [])
    @ (if d.pac then [ "pac-ret" ] else [])
    @ if d.coarse_cfi then [ "coarse-cfi" ] else []
  in
  match parts with
  | [] -> "none"
  | parts -> String.concat "+" parts

(* Every part [defenses_name] prints, plus short aliases; a "+"-joined
   list names the union of its parts. *)
let add_defense d = function
  | "none" -> Some d
  | "retpolines" | "retp" -> Some { d with retpolines = true }
  | "ret-retpolines" | "retret" -> Some { d with ret_retpolines = true }
  | "lvi-cfi" | "lvi" -> Some { d with lvi = true }
  | "all-defenses" | "all" -> Some { d with retpolines = true; ret_retpolines = true; lvi = true }
  | "fineibt" -> Some { d with fineibt = true }
  | "pac-ret" | "pac" -> Some { d with pac = true }
  | "coarse-cfi" | "coarse" -> Some { d with coarse_cfi = true }
  | _ -> None

let defenses_of_string text =
  let rec go d = function
    | [] -> Ok d
    | part :: rest -> (
      match add_defense d part with
      | Some d -> go d rest
      | None -> Error (Printf.sprintf "unknown defense set %S" text))
  in
  go no_defenses (String.split_on_char '+' text)

(* Kind precedence when several forward (or backward) requests are
   combined: each site keeps exactly one kind, the thunk-based
   retpoline/LVI family wins over the check-based FineIBT/PAC kinds, and
   FineIBT wins over the coarse label.  The thunk family does not
   subsume the check kinds: the site loses whatever the dropped kind
   blocked.  On the quick kernel FineIBT alone blocks the v2 and LVI
   drills, yet lvi-cfi+fineibt admits v2 and retpolines+fineibt admits
   LVI; pac-ret alone blocks both ret2spec drills, yet lvi-cfi+pac-ret
   admits them.  Adding a defense can therefore revive a drill (the
   ROADMAP's security-metamorphic item). *)
let forward_kind d =
  match (d.retpolines, d.lvi) with
  | true, true -> Protection.F_fenced_retpoline
  | true, false -> Protection.F_retpoline
  | false, true -> Protection.F_lvi
  | false, false ->
    if d.fineibt then Protection.F_fineibt
    else if d.coarse_cfi then Protection.F_coarse_cfi
    else Protection.F_none

let backward_kind d =
  match (d.ret_retpolines, d.lvi) with
  | true, true -> Protection.B_fenced_ret_retpoline
  | true, false -> Protection.B_ret_retpoline
  | false, true -> Protection.B_lvi
  | false, false -> if d.pac then Protection.B_pac else Protection.B_none

type image = {
  prog : Program.t;
  defenses : defenses;
  rsb_refill : bool;
  fwd : (int, Protection.forward) Hashtbl.t;
  bwd : (string, Protection.backward) Hashtbl.t;
  cfi : Cfi.t option;
  thunk_bytes : int;
  hardened_icall_sites : int;
  hardened_ret_sites : int;
}

let any_defense d =
  d.retpolines || d.ret_retpolines || d.lvi || d.fineibt || d.pac || d.coarse_cfi

let lower_jump_tables f =
  Func.map_blocks f ~f:(fun _ b ->
      match b.term with
      | Switch ({ lowering = Jump_table; _ } as s) ->
        { b with term = Switch { s with lowering = Branch_ladder } }
      | Switch { lowering = Branch_ladder; _ } | Jmp _ | Br _ | Ret _ -> b)

(* Jump tables: disabled program-wide when any transient defense is on,
   except inside opaque assembly bodies.  Also exposed as a standalone
   pass-manager pass ([no-jump-tables]); the re-lowering is idempotent, so
   running it before [harden] yields the same image.  Only functions that
   hold a jump table are rebuilt; every other record stays shared, and a
   program without jump tables comes back unchanged. *)
let disable_jump_tables prog =
  Program.fold_unordered prog ~init:prog ~f:(fun p f ->
      if f.attrs.is_asm || (Summary.of_func f).Summary.jump_tables = 0 then p
      else Program.update_func p (lower_jump_tables f))

let harden ?(rsb_refill = false) prog defenses =
  let fkind = forward_kind defenses in
  let bkind = backward_kind defenses in
  let fwd = Hashtbl.create 1024 in
  let bwd = Hashtbl.create 1024 in
  let hardened_icalls = ref 0 in
  let hardened_rets = ref 0 in
  (* Nothing iterates [fwd] or [bwd], so the scan's order cannot reach
     the image.  Jump-table lowering keeps every call site and return,
     so the scan reads the summaries of the functions as they come in,
     not of their lowered copies, which are new every build. *)
  Program.iter_unordered prog (fun f ->
      if not f.attrs.is_asm then begin
        let s = Summary.of_func f in
        (if fkind <> Protection.F_none then
           List.iter
             (fun (site : site) ->
               Hashtbl.replace fwd site.site_id fkind;
               incr hardened_icalls)
             s.Summary.icall_sites);
        if bkind <> Protection.B_none && (not f.attrs.boot_only) && s.Summary.rets > 0 then begin
          Hashtbl.replace bwd f.fname bkind;
          hardened_rets := !hardened_rets + s.Summary.rets
        end
      end);
  let prog = if any_defense defenses then disable_jump_tables prog else prog in
  let thunk_bytes = Thunks.shared_thunk_bytes fkind in
  (* The CFI kinds need the target-set oracle; run it on the hardened
     program so promoted/cloned sites resolve. *)
  let cfi =
    match fkind with
    | Protection.F_fineibt | Protection.F_coarse_cfi -> Some (Cfi.analyze prog)
    | Protection.F_none | Protection.F_retpoline | Protection.F_lvi
    | Protection.F_fenced_retpoline ->
      None
  in
  {
    prog;
    defenses;
    rsb_refill;
    fwd;
    bwd;
    cfi;
    thunk_bytes;
    hardened_icall_sites = !hardened_icalls;
    hardened_ret_sites = !hardened_rets;
  }

let fwd_protection image (s : site) =
  Option.value ~default:Protection.F_none (Hashtbl.find_opt image.fwd s.site_id)

let bwd_protection image fname =
  Option.value ~default:Protection.B_none (Hashtbl.find_opt image.bwd fname)

let footprint image f =
  let s = Summary.of_func f in
  let fkind_bytes =
    List.fold_left
      (fun acc (site : site) ->
        acc + Thunks.per_icall_bytes (fwd_protection image site))
      0 s.Summary.icall_sites
  in
  let bkind = bwd_protection image f.fname in
  let pad_bytes =
    match image.cfi with
    | Some cfi -> Cfi.pad_bytes cfi ~protection:(forward_kind image.defenses) f.fname
    | None -> 0
  in
  s.Summary.code_bytes + fkind_bytes + pad_bytes + (s.Summary.rets * Thunks.per_ret_bytes bkind)

let image_bytes image =
  Program.fold_unordered image.prog ~init:image.thunk_bytes ~f:(fun acc f ->
      acc + footprint image f)

let engine_config ?(base = Pibe_cpu.Engine.default_config) image =
  {
    base with
    Pibe_cpu.Engine.fwd_protection = fwd_protection image;
    bwd_protection = bwd_protection image;
    cfi_valid =
      (match image.cfi with
      | None -> base.Pibe_cpu.Engine.cfi_valid
      | Some cfi -> fun ~site ~target ~protection -> Cfi.valid cfi ~protection ~site ~target);
    footprint = footprint image;
    rsb_refill = image.rsb_refill;
  }
