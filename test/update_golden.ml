(* Refresh the golden files (make update-golden). Each file renders
   through the same code path its regression test compares with, so the
   files cannot diverge from what the tests compute:
     - the 17-benchmark latency table (Latency_table.render/compute)
     - the GRAPE bit-determinism reference (Grape.reference_golden)
     - the canonical hit-rate table (Canon_table.render/compute)
     - the 32-point variational sweep table (Sweep_table.render/compute)
     - the qaoa pulse-IR export (Pulse_ir.reference_golden/to_string)
     - the mined patterns and paqoc-minf table (Mined_golden.render) *)

let write path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let () =
  let latency_path, grape_path, canon_path, sweep_path, ir_path, mined_path =
    match Sys.argv with
    | [| _; latency |] -> (Some latency, None, None, None, None, None)
    | [| _; latency; grape |] ->
      (Some latency, Some grape, None, None, None, None)
    | [| _; latency; grape; canon |] ->
      (Some latency, Some grape, Some canon, None, None, None)
    | [| _; latency; grape; canon; sweep |] ->
      (Some latency, Some grape, Some canon, Some sweep, None, None)
    | [| _; latency; grape; canon; sweep; ir |] ->
      (Some latency, Some grape, Some canon, Some sweep, Some ir, None)
    | [| _; latency; grape; canon; sweep; ir; mined |] ->
      (Some latency, Some grape, Some canon, Some sweep, Some ir, Some mined)
    | _ ->
      prerr_endline
        "usage: update_golden LATENCY_FILE [GRAPE_FILE] [CANON_FILE] \
         [SWEEP_FILE] [IR_FILE] [MINED_FILE]";
      exit 2
  in
  Option.iter
    (fun path ->
      let table =
        Paqoc_benchmarks.Latency_table.(render (compute ~jobs:2 ()))
      in
      write path table;
      Printf.printf "wrote %s (%d benchmarks)\n" path
        (List.length (String.split_on_char '\n' table) - 4))
    latency_path;
  Option.iter
    (fun path ->
      let golden = Paqoc_pulse.Grape.reference_golden () in
      write path golden;
      Printf.printf "wrote %s (%d lines)\n" path
        (List.length (String.split_on_char '\n' golden) - 1))
    grape_path;
  Option.iter
    (fun path ->
      let table =
        Paqoc_benchmarks.Canon_table.(render (compute ()))
      in
      write path table;
      Printf.printf "wrote %s (%d benchmarks)\n" path
        (List.length (String.split_on_char '\n' table) - 5))
    canon_path;
  Option.iter
    (fun path ->
      let table =
        Paqoc_benchmarks.Sweep_table.(render (compute ()))
      in
      write path table;
      Printf.printf "wrote %s (%d iterations)\n" path
        (List.length (String.split_on_char '\n' table) - 4))
    sweep_path;
  Option.iter
    (fun path ->
      let ir = Paqoc_service.Pulse_ir.reference_golden () in
      write path (Paqoc_service.Pulse_ir.to_string ir);
      Printf.printf "wrote %s (%d instructions)\n" path
        (List.length ir.Paqoc_service.Pulse_ir.schedule))
    ir_path;
  Option.iter
    (fun path ->
      let golden = Paqoc_test_render.Mined_golden.render () in
      write path golden;
      Printf.printf "wrote %s (%d lines)\n" path
        (List.length (String.split_on_char '\n' golden) - 1))
    mined_path
