(* perfbench: the repository's compile benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --emit-spec        (prints BENCHMARK.json)

   Run from the repository root (it reads the goldens under
   test/golden). The last line of standard output is the result as one
   JSON object. *)

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref (float_of_int Perfbench.Spec.run_seconds) in
  let trace = ref 0 and emit_spec = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for request order and angles");
      ("--seconds", Arg.Set_float seconds, "S seconds of passes to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer ledger instead of end-to-end");
      ("--emit-spec", Arg.Set emit_spec, " print BENCHMARK.json and exit")
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !emit_spec then print_string (Perfbench.Spec.render ())
  else
    match
      List.find_opt
        (fun (w : Perfbench.Workload.t) -> w.Perfbench.Workload.name = !workload)
        (Perfbench.Workload.all ())
    with
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" !workload;
      exit 2
    | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
    | Some w -> (
      try
        Perfbench.Harness.run w ~seed:!seed ~seconds:!seconds
          ~trace:(!trace = 1)
          ~golden_dir:(Filename.concat "test" "golden")
      with
      | Perfbench.Harness.Replay_diverged ->
        prerr_endline
          "perfbench: the stage-by-stage replay diverged from \
           Service.handle; refusing to emit per-layer numbers";
        exit 3
      | e ->
        Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
        exit 1)
