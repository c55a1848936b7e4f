(* Alpenhorn evaluation harness: one section per table/figure of the paper's
   §8, plus the DESIGN.md ablations.

   Usage: dune exec bench/main.exe [-- section...]
   Sections: fig6 fig7 fig8 fig9 fig10 figscale skewsize privacy cpu
             parallel sizes extract e2e ablation-onion ablation-bloom
             ablation-mailboxes ratelimit ablation-pipeline scale smoke
   With no arguments, every section runs. The "smoke" section also runs
   under `dune runtest`: it validates the telemetry exporters on one tiny
   instrumented round (see bench_smoke.ml). *)

module Costmodel = Alpenhorn_sim.Costmodel

let sections pc =
  [
    ("fig6", fun () -> Bench_figures.fig6 pc);
    ("fig7", fun () -> Bench_figures.fig7 pc);
    ("fig8", fun () -> Bench_figures.fig8 pc);
    ("fig9", fun () -> Bench_figures.fig9 pc);
    ("fig10", fun () -> Bench_figures.fig10 pc);
    ("figscale", fun () -> Bench_figures.figscale pc);
    ("skewsize", fun () -> Bench_figures.skewsize pc);
    ("privacy", Bench_privacy.privacy);
    ("cpu", Bench_cpu.cpu);
    ("parallel", Bench_cpu.parallel);
    ("sizes", Bench_cpu.sizes);
    ("extract", Bench_cpu.extract);
    ("e2e", Bench_e2e.e2e);
    ("ablation-onion", Bench_e2e.ablation_onion);
    ("ablation-bloom", Bench_e2e.ablation_bloom);
    ("ablation-mailboxes", Bench_e2e.ablation_mailboxes);
    ("ratelimit", Bench_e2e.ratelimit);
    ("ablation-pipeline", Bench_e2e.ablation_pipeline);
    ("scale", Bench_scale.scale);
    ("smoke", fun () -> Bench_smoke.smoke ());
  ]

let () =
  let params = Alpenhorn_pairing.Params.production () in
  let pc = Costmodel.protocol_costs params in
  let available = sections pc in
  let requested =
    match Array.to_list Sys.argv with [] | [ _ ] -> List.map fst available | _ :: args -> args
  in
  print_endline "Alpenhorn evaluation harness (paper: Lazar & Zeldovich, OSDI 2016)";
  Printf.printf "sections: %s\n" (String.concat " " requested);
  List.iter
    (fun name ->
      match List.assoc_opt name available with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat " " (List.map fst available));
        exit 1)
    requested
