(* Benchmark binary: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints progress on stderr and, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and state = ref ".perfbench-state" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured duration");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--state-dir", Arg.Set_string state, "DIR scratch state root") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  match !workload with
  | "campaign_verify" -> Campaign_verify.run ~seed ~seconds ~trace ()
  | "probe" -> Host.main ()
  | "campaign_default" ->
      (* Not a gated workload: `because campaign` with no flags (default
         world, 4 cycles), for the one-off breakdown in README.md. *)
      Campaign_verify.run
        ~world_params:(fun seed ->
          { Because_scenario.World.default_params with seed })
        ~params:
          { Campaign_verify.params with Because_scenario.Campaign.cycles = 4 }
        ~worlds:2 ~seed ~seconds ~trace ()
  | "stream_epochs" -> Stream_epochs.run ~seed ~seconds ~trace ~state:!state
  | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
