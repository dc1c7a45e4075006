(* Dispatch-floor microbenchmark: ns of host wall-clock per simulated
   instruction, per execution tier, on two adversarial program shapes.

     bench/dispatch_bench.exe            full run (default rounds)
     bench/dispatch_bench.exe --quick    smoke settings (make check)
     bench/dispatch_bench.exe --check    exit 1 unless tier-3 beats
                                         tier-2 on the loop-dominated
                                         program (used when generating
                                         BENCH_PR10.json evidence)

   Programs:
     call-dominated  a tight loop whose body is one direct call to a
                     6-instruction straight-line leaf — per-iteration
                     work is dominated by the call/return seam, the
                     shape --callfuse exists for.
     loop-dominated  a loop over a 64-instruction Jmp-chained superblock
                     — per-iteration work is pure straight-line dispatch,
                     the shape tier 3's register-threaded stream targets.

   Tier configs (all bit-exact; thresholds forced low so a short warmup
   promotes everything):
     interp      reference interpreter
     tier1       compiled, --tierup 0 (per-block closures)
     tier2       compiled, --tierup 1 --callfuse 0 --tier3 0
     callfused   compiled, --tierup 1 --callfuse 1 --tier3 0
     tier3       compiled, --tierup 1 --callfuse 1 --tier3 1

   Each tier gets one engine, warmed past every threshold up front;
   then the timed batches are INTERLEAVED across tiers (round 1 of every
   tier, then round 2, ...) so host-speed drift hits all tiers alike —
   the same rationale as tools/bench_compare.sh — and each tier reports
   the best of its [rounds] batches, which suppresses scheduling
   noise. *)

open Pibe_ir
open Types

let iters_per_call = 256

(* main(n): acc = 0; for i < n: acc = leaf(i, acc); ret acc.  leaf is a
   straight-line 5-binop body — CAssign-only, single Ret block, well
   under the fusion size bound. *)
let call_dominated () =
  let prog = ref (Program.with_globals_size Program.empty 16) in
  let leaf =
    let b = Builder.create ~name:"leaf" ~params:2 in
    let a = Builder.param b 0 and acc = Builder.param b 1 in
    let r1 = Builder.reg b in
    Builder.assign b r1 (Binop (Add, Reg a, Reg acc));
    let r2 = Builder.reg b in
    Builder.assign b r2 (Binop (Xor, Reg r1, Imm 7));
    let r3 = Builder.reg b in
    Builder.assign b r3 (Binop (Add, Reg r2, Reg a));
    let r4 = Builder.reg b in
    Builder.assign b r4 (Binop (Mul, Reg r3, Imm 3));
    let r5 = Builder.reg b in
    Builder.assign b r5 (Binop (And, Reg r4, Imm 262143));
    Builder.ret b (Some (Reg r5));
    Builder.finish b ()
  in
  prog := Program.add_func !prog leaf;
  let main =
    let b = Builder.create ~name:"main" ~params:1 in
    let n = Builder.param b 0 in
    let acc = Builder.reg b and i = Builder.reg b in
    let header = Builder.new_block b in
    let body = Builder.new_block b in
    let exit_b = Builder.new_block b in
    Builder.assign b acc (Const 0);
    Builder.assign b i (Const 0);
    Builder.jmp b header;
    Builder.switch_to b header;
    let cond = Builder.reg b in
    Builder.assign b cond (Binop (Lt, Reg i, Reg n));
    Builder.br b (Reg cond) body exit_b;
    Builder.switch_to b body;
    let p, site = Program.fresh_site !prog in
    prog := p;
    Builder.call b ~dst:acc site "leaf" [ Reg i; Reg acc ];
    Builder.assign b i (Binop (Add, Reg i, Imm 1));
    Builder.jmp b header;
    Builder.switch_to b exit_b;
    Builder.ret b (Some (Reg acc));
    Builder.finish b ()
  in
  prog := Program.add_func !prog main;
  !prog

(* hot(n): a loop whose body is four Jmp-chained blocks of 16 binops
   each — one long single-predecessor chain per iteration. *)
let loop_dominated () =
  let b = Builder.create ~name:"hot" ~params:1 in
  let n = Builder.param b 0 in
  let x = Builder.reg b and i = Builder.reg b in
  let header = Builder.new_block b in
  let bodies = Array.init 4 (fun _ -> Builder.new_block b) in
  let exit_b = Builder.new_block b in
  Builder.assign b x (Const 1);
  Builder.assign b i (Const 0);
  Builder.jmp b header;
  Builder.switch_to b header;
  let cond = Builder.reg b in
  Builder.assign b cond (Binop (Lt, Reg i, Reg n));
  Builder.br b (Reg cond) bodies.(0) exit_b;
  Array.iteri
    (fun bi body ->
      Builder.switch_to b body;
      for k = 0 to 15 do
        let op = [| Add; Xor; Sub; Or |].(k land 3) in
        Builder.assign b x (Binop (op, Reg x, Imm (3 + k + (16 * bi))))
      done;
      if bi = 3 then begin
        Builder.assign b i (Binop (Add, Reg i, Imm 1));
        Builder.jmp b header
      end
      else Builder.jmp b bodies.(bi + 1))
    bodies;
  Builder.switch_to b exit_b;
  Builder.ret b (Some (Reg x));
  Builder.finish b ()
    |> Program.add_func (Program.with_globals_size Program.empty 16)

type tier_cfg = {
  label : string;
  backend : Pibe_cpu.Engine.backend;
  tierup : int;
  callfuse : int;
  tier3 : int;
}

let tiers =
  [
    { label = "interp"; backend = Pibe_cpu.Engine.Interp; tierup = 0; callfuse = 0; tier3 = 0 };
    { label = "tier1"; backend = Pibe_cpu.Engine.Compiled; tierup = 0; callfuse = 0; tier3 = 0 };
    { label = "tier2"; backend = Pibe_cpu.Engine.Compiled; tierup = 1; callfuse = 0; tier3 = 0 };
    { label = "callfused"; backend = Pibe_cpu.Engine.Compiled; tierup = 1; callfuse = 1; tier3 = 0 };
    { label = "tier3"; backend = Pibe_cpu.Engine.Compiled; tierup = 1; callfuse = 1; tier3 = 1 };
  ]

(* One engine per tier, warmed past every promotion threshold. *)
let warm_engine prog ~entry ~warmup cfg =
  let e =
    Pibe_cpu.Engine.create ~backend:cfg.backend ~tierup:cfg.tierup ~callfuse:cfg.callfuse
      ~tier3:cfg.tier3 prog
  in
  for _ = 1 to warmup do
    ignore (Pibe_cpu.Engine.call e entry [ iters_per_call ])
  done;
  e

(* One timed batch of [runs] top-level calls on an already-warm engine:
   ns of wall-clock per simulated instruction executed in the batch. *)
let time_batch e ~entry ~runs =
  let insts0 = (Pibe_cpu.Engine.counters e).Pibe_cpu.Engine.insts in
  let t0 = Pibe_trace.Trace.now_s () in
  for _ = 1 to runs do
    ignore (Pibe_cpu.Engine.call e entry [ iters_per_call ])
  done;
  let dt = Pibe_trace.Trace.now_s () -. t0 in
  let di = (Pibe_cpu.Engine.counters e).Pibe_cpu.Engine.insts - insts0 in
  dt *. 1e9 /. float_of_int di

(* Measure every tier on one program with the batches interleaved:
   round-robin over the tier engines so host drift is shared. *)
let measure_row prog ~entry ~warmup ~runs ~rounds =
  let engines = List.map (fun cfg -> warm_engine prog ~entry ~warmup cfg) tiers in
  let best = Array.make (List.length engines) infinity in
  for _ = 1 to rounds do
    List.iteri
      (fun i e ->
        let ns = time_batch e ~entry ~runs in
        if ns < best.(i) then best.(i) <- ns)
      engines
  done;
  Array.to_list best

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let check = Array.exists (( = ) "--check") Sys.argv in
  (* --prof TIER PROGRAM: hammer one tier on one program for a few
     seconds and exit — a steady-state target for a sampling profiler
     (the interleaved measurement loop spreads samples too thin). *)
  (match Array.to_list Sys.argv with
  | _ :: "--prof" :: tier_label :: prog_name :: _ ->
    let cfg = List.find (fun c -> c.label = tier_label) tiers in
    let prog, entry =
      if prog_name = "call-dominated" then (call_dominated (), "main")
      else (loop_dominated (), "hot")
    in
    let e = ref (warm_engine prog ~entry ~warmup:16 cfg) in
    let ns = ref 0.0 in
    for _ = 1 to 100 do
      (* a fresh warm engine per batch keeps the run under the fuel cap *)
      match time_batch !e ~entry ~runs:1000 with
      | v -> ns := v
      | exception Pibe_cpu.Machine.Out_of_fuel ->
        e := warm_engine prog ~entry ~warmup:16 cfg
    done;
    Printf.printf "prof %s %s: %.2f ns/inst (last batch)\n" tier_label prog_name !ns;
    exit 0
  | _ -> ());
  let warmup = if quick then 4 else 16 in
  let runs = if quick then 40 else 400 in
  let rounds = if quick then 2 else 5 in
  let programs =
    [ ("call-dominated", call_dominated (), "main"); ("loop-dominated", loop_dominated (), "hot") ]
  in
  Printf.printf "dispatch_bench: ns of wall-clock per simulated instruction\n";
  Printf.printf "(%d sim-insts/call batches; best of %d rounds x %d calls)\n\n" iters_per_call
    rounds runs;
  Printf.printf "%-16s" "program";
  List.iter (fun c -> Printf.printf "  %9s" c.label) tiers;
  print_newline ();
  let results =
    List.map
      (fun (name, prog, entry) ->
        let row = measure_row prog ~entry ~warmup ~runs ~rounds in
        Printf.printf "%-16s" name;
        List.iter (fun ns -> Printf.printf "  %9.2f" ns) row;
        print_newline ();
        (name, row))
      programs
  in
  if check then begin
    (* tiers = [interp; tier1; tier2; callfused; tier3] *)
    let loop_row = List.assoc "loop-dominated" results in
    let t2 = List.nth loop_row 2 and t3 = List.nth loop_row 4 in
    if t3 < t2 then Printf.printf "\ncheck: tier3 %.2f < tier2 %.2f ns/inst (ok)\n" t3 t2
    else begin
      Printf.printf "\ncheck FAILED: tier3 %.2f >= tier2 %.2f ns/inst\n" t3 t2;
      exit 1
    end
  end
