(* Per-pass pipeline instrumentation: what each pass of the lowered spec
   did to the IR, for the two headline configurations.  This is the
   pass-manager view of the pipeline; its host time is in the
   pass:<elem> trace spans (--trace). *)

module Tbl = Pibe_util.Tbl
module Manager = Pibe_pm.Manager
module Spec = Pibe_pm.Spec

let run env =
  let configs =
    [
      ("PGO baseline (no defenses)", Config.pibe_baseline);
      ("best config (all defenses)", Exp_common.best_config Exp_common.all_defenses);
    ]
  in
  Env.warm_builds env (List.map snd configs);
  List.map
    (fun (label, config) ->
      let built = Env.build env config in
      let spec = Pipeline.spec_of_config config in
      let t =
        Manager.table
          ~title:(Printf.sprintf "Pipeline passes: %s = %s" label (Spec.to_string spec))
          built.Pipeline.pass_stats
      in
      List.iter
        (fun (s : Manager.pass_stats) ->
          List.iter
            (fun line -> Tbl.add_row t [ Tbl.Str ("  " ^ s.Manager.pass ^ ": " ^ line) ])
            (Manager.detail_lines s))
        built.Pipeline.pass_stats;
      t)
    configs
