(* Hardening pass: protection kinds per defense set, jump-table lowering,
   audit accounting, image sizes, listings. *)

open Pibe_ir
open Types
module Pass = Pibe_harden.Pass
module Audit = Pibe_harden.Audit
module Thunks = Pibe_harden.Thunks
module Cfi = Pibe_harden.Cfi

let kernel_prog () = (Helpers.kernel ()).Pibe_kernel.Gen.prog

let test_forward_kinds () =
  Alcotest.(check bool) "none" true (Pass.forward_kind Pass.no_defenses = Protection.F_none);
  Alcotest.(check bool) "retp" true
    (Pass.forward_kind { Pass.no_defenses with Pass.retpolines = true }
    = Protection.F_retpoline);
  Alcotest.(check bool) "lvi" true
    (Pass.forward_kind { Pass.no_defenses with Pass.lvi = true } = Protection.F_lvi);
  Alcotest.(check bool) "combined = fenced" true
    (Pass.forward_kind Pass.all_defenses = Protection.F_fenced_retpoline)

let test_backward_kinds () =
  Alcotest.(check bool) "retret" true
    (Pass.backward_kind { Pass.no_defenses with Pass.ret_retpolines = true }
    = Protection.B_ret_retpoline);
  Alcotest.(check bool) "combined" true
    (Pass.backward_kind Pass.all_defenses = Protection.B_fenced_ret_retpoline);
  Alcotest.(check bool) "retp only leaves returns bare" true
    (Pass.backward_kind { Pass.no_defenses with Pass.retpolines = true }
    = Protection.B_none)

(* CFI/PAC kinds and their precedence: the retpoline family wins over
   the CFI family on both edges (stronger transient guarantee), FineIBT
   over the coarse baseline. *)
let test_cfi_kinds_and_precedence () =
  Alcotest.(check bool) "fineibt" true
    (Pass.forward_kind { Pass.no_defenses with Pass.fineibt = true } = Protection.F_fineibt);
  Alcotest.(check bool) "coarse" true
    (Pass.forward_kind { Pass.no_defenses with Pass.coarse_cfi = true }
    = Protection.F_coarse_cfi);
  Alcotest.(check bool) "retpoline beats fineibt" true
    (Pass.forward_kind { Pass.no_defenses with Pass.retpolines = true; fineibt = true }
    = Protection.F_retpoline);
  Alcotest.(check bool) "fineibt beats coarse" true
    (Pass.forward_kind { Pass.no_defenses with Pass.fineibt = true; coarse_cfi = true }
    = Protection.F_fineibt);
  Alcotest.(check bool) "pac" true
    (Pass.backward_kind { Pass.no_defenses with Pass.pac = true } = Protection.B_pac);
  Alcotest.(check bool) "ret-retpoline beats pac" true
    (Pass.backward_kind { Pass.no_defenses with Pass.ret_retpolines = true; pac = true }
    = Protection.B_ret_retpoline)

(* The landing-pad analysis on the generated kernel: registered handlers
   (fptr index written into initialized memory) get pads, the planted
   gadget (fptr-table entry only) does not. *)
let test_cfi_pad_analysis () =
  let info = Helpers.kernel () in
  let cfi = Cfi.analyze info.Pibe_kernel.Gen.prog in
  Alcotest.(check bool) "registered handler has a pad" true
    (Cfi.has_pad cfi info.Pibe_kernel.Gen.valid_gadget);
  Alcotest.(check bool) "planted gadget has no pad" false
    (Cfi.has_pad cfi info.Pibe_kernel.Gen.gadget);
  Alcotest.(check bool) "pads are a strict subset of address-taken" true
    (Cfi.pad_count cfi > 0 && Cfi.pad_count cfi < Cfi.address_taken_count cfi)

let test_fineibt_pad_bytes_in_footprint () =
  let info = Helpers.kernel () in
  let prog = info.Pibe_kernel.Gen.prog in
  let fineibt = Pass.harden prog { Pass.no_defenses with Pass.fineibt = true } in
  let bare = Pass.harden prog Pass.no_defenses in
  let f = Program.find prog info.Pibe_kernel.Gen.valid_gadget in
  Alcotest.(check bool) "padded handler grows under fineibt" true
    (Pass.footprint fineibt f > Pass.footprint bare f);
  Alcotest.(check bool) "pac image grows" true
    (Pass.image_bytes (Pass.harden prog { Pass.no_defenses with Pass.pac = true })
    > Pass.image_bytes bare);
  Alcotest.(check bool) "fineibt image audits fully protected" true
    (Audit.fully_protected (Audit.run fineibt)
       ~against:{ Pass.no_defenses with Pass.fineibt = true })

let test_all_icalls_protected () =
  let prog = kernel_prog () in
  let image = Pass.harden prog Pass.all_defenses in
  Program.iter_funcs image.Pass.prog (fun f ->
      if not f.attrs.is_asm then
        List.iter
          (fun (s : site) ->
            Alcotest.(check bool)
              (Printf.sprintf "site %d protected" s.site_id)
              true
              (Pass.fwd_protection image s = Protection.F_fenced_retpoline))
          (Func.icall_sites f))

let test_jump_tables_lowered_except_asm () =
  let prog = kernel_prog () in
  let image = Pass.harden prog Pass.all_defenses in
  Program.iter_funcs image.Pass.prog (fun f ->
      let jts = Func.jump_table_count f in
      if f.attrs.is_asm then ()
      else Alcotest.(check int) (f.fname ^ " has no jump tables") 0 jts)

let test_no_defenses_keeps_jump_tables () =
  let prog = kernel_prog () in
  let image = Pass.harden prog Pass.no_defenses in
  let total =
    Program.fold_funcs image.Pass.prog ~init:0 ~f:(fun acc f -> acc + Func.jump_table_count f)
  in
  Alcotest.(check bool) "jump tables survive" true (total > 10)

let test_boot_only_exempt_backward () =
  let prog = kernel_prog () in
  let image = Pass.harden prog Pass.all_defenses in
  Program.iter_funcs image.Pass.prog (fun f ->
      if f.attrs.boot_only then
        Alcotest.(check bool) (f.fname ^ " boot-exempt") true
          (Pass.bwd_protection image f.fname = Protection.B_none))

let test_audit_counts_sum () =
  let prog = kernel_prog () in
  let image = Pass.harden prog Pass.all_defenses in
  let r = Audit.run image in
  let asm_sites =
    Program.fold_funcs prog ~init:0 ~f:(fun acc f ->
        acc + List.length (Func.asm_icall_sites f))
  in
  Alcotest.(check int) "defended + vulnerable = icalls + asm sites"
    (Program.total_icall_sites prog + asm_sites)
    (r.Audit.defended_icalls + r.Audit.vulnerable_icalls);
  Alcotest.(check int) "return partition"
    (Program.total_ret_sites prog)
    (r.Audit.defended_rets + r.Audit.vulnerable_rets);
  Alcotest.(check bool) "fully protected modulo asm/boot" true
    (Audit.fully_protected r ~against:Pass.all_defenses);
  Alcotest.(check bool) "asm residue exists (para-virt)" true (r.Audit.asm_icalls > 0);
  Alcotest.(check bool) "a few asm jump tables remain" true (r.Audit.vulnerable_ijumps > 0)

let test_audit_no_defense_image () =
  let prog = kernel_prog () in
  let image = Pass.harden prog Pass.no_defenses in
  let r = Audit.run image in
  Alcotest.(check int) "nothing defended" 0 (r.Audit.defended_icalls + r.Audit.defended_rets)

let test_image_bytes_grow_with_defenses () =
  let prog = kernel_prog () in
  let base = Pass.image_bytes (Pass.harden prog Pass.no_defenses) in
  let retp =
    Pass.image_bytes
      (Pass.harden prog { Pass.no_defenses with Pass.retpolines = true })
  in
  let all = Pass.image_bytes (Pass.harden prog Pass.all_defenses) in
  Alcotest.(check bool) "retpolines add bytes" true (retp > base);
  Alcotest.(check bool) "all defenses add more" true (all > retp)

let test_footprint_includes_ret_bytes () =
  let prog = kernel_prog () in
  let image = Pass.harden prog Pass.all_defenses in
  let f = Program.find prog "vfs_read" in
  Alcotest.(check bool) "footprint > layout size" true
    (Pass.footprint image f > Layout.func_size f)

let test_listings_contain_key_instructions () =
  let has needle s =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.equal (String.sub s i n) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "retpoline pauses" true (has "pause" (Thunks.listing `Retpoline));
  Alcotest.(check bool) "lvi fences" true (has "lfence" (Thunks.listing `Lvi_forward));
  Alcotest.(check bool) "backward fences" true (has "lfence" (Thunks.listing `Lvi_backward));
  Alcotest.(check bool) "fenced retpoline nots" true
    (has "notq" (Thunks.listing `Fenced_retpoline));
  Alcotest.(check bool) "fineibt lands on endbr64" true
    (has "endbr64" (Thunks.listing `Fineibt));
  Alcotest.(check bool) "coarse cfi shares one label" true
    (has "endbr64" (Thunks.listing `Coarse_cfi));
  Alcotest.(check bool) "pac signs and authenticates" true
    (has "paciasp" (Thunks.listing `Pac_ret) && has "autiasp" (Thunks.listing `Pac_ret))

let test_defenses_name () =
  Alcotest.(check string) "all" "all-defenses" (Pass.defenses_name Pass.all_defenses);
  Alcotest.(check string) "none" "none" (Pass.defenses_name Pass.no_defenses);
  (* legacy combos keep their exact strings *)
  Alcotest.(check string) "legacy combo intact" "retpolines+lvi"
    (Pass.defenses_name { Pass.no_defenses with Pass.retpolines = true; lvi = true });
  Alcotest.(check string) "fineibt" "fineibt"
    (Pass.defenses_name { Pass.no_defenses with Pass.fineibt = true });
  Alcotest.(check string) "pac" "pac-ret"
    (Pass.defenses_name { Pass.no_defenses with Pass.pac = true });
  Alcotest.(check string) "coarse" "coarse-cfi"
    (Pass.defenses_name { Pass.no_defenses with Pass.coarse_cfi = true });
  Alcotest.(check string) "fineibt+pac" "fineibt+pac-ret"
    (Pass.defenses_name { Pass.no_defenses with Pass.fineibt = true; pac = true });
  Alcotest.(check string) "mixed families" "retpolines+fineibt"
    (Pass.defenses_name { Pass.no_defenses with Pass.retpolines = true; fineibt = true })

(* Every one of the 64 flag sets reads back from its printed name, and
   the short aliases name the same sets. *)
let test_defenses_of_string () =
  let bit i k = i land (1 lsl k) <> 0 in
  for i = 0 to 63 do
    let d =
      {
        Pass.retpolines = bit i 0;
        ret_retpolines = bit i 1;
        lvi = bit i 2;
        fineibt = bit i 3;
        pac = bit i 4;
        coarse_cfi = bit i 5;
      }
    in
    let name = Pass.defenses_name d in
    Alcotest.(check bool) (name ^ " reads back") true (Pass.defenses_of_string name = Ok d)
  done;
  Alcotest.(check bool) "aliases" true
    (Pass.defenses_of_string "retp+retret+lvi" = Ok Pass.all_defenses
    && Pass.defenses_of_string "all"
       = Pass.defenses_of_string "retpolines+ret-retpolines+lvi-cfi"
    && Pass.defenses_of_string "fineibt+pac+coarse"
       = Ok { Pass.no_defenses with Pass.fineibt = true; pac = true; coarse_cfi = true });
  List.iter
    (fun text ->
      Alcotest.(check bool) (text ^ " rejected") true
        (Pass.defenses_of_string text = Error (Printf.sprintf "unknown defense set %S" text)))
    [ ""; "retpoline"; "fineibt+"; "+pac"; "lvi+bogus" ]

let suite =
  [
    ("forward kinds", `Quick, test_forward_kinds);
    ("backward kinds", `Quick, test_backward_kinds);
    ("cfi kinds and precedence", `Quick, test_cfi_kinds_and_precedence);
    ("cfi landing-pad analysis", `Quick, test_cfi_pad_analysis);
    ("fineibt/pac bytes in footprint", `Quick, test_fineibt_pad_bytes_in_footprint);
    ("all icalls protected", `Quick, test_all_icalls_protected);
    ("jump tables lowered except asm", `Quick, test_jump_tables_lowered_except_asm);
    ("no defenses keeps jump tables", `Quick, test_no_defenses_keeps_jump_tables);
    ("boot-only exempt from backward hardening", `Quick, test_boot_only_exempt_backward);
    ("audit counts partition the surface", `Quick, test_audit_counts_sum);
    ("audit of undefended image", `Quick, test_audit_no_defense_image);
    ("image bytes grow with defenses", `Quick, test_image_bytes_grow_with_defenses);
    ("footprint includes hardening bytes", `Quick, test_footprint_includes_ret_bytes);
    ("listings contain key instructions", `Quick, test_listings_contain_key_instructions);
    ("defense names", `Quick, test_defenses_name);
    ("defense names read back", `Quick, test_defenses_of_string);
  ]
