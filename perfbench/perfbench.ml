(* The repository benchmark's measuring program. perfbench/run.py builds
   it and runs:

     perfbench.exe --workload W --seed S --seconds N --trace 0|1
                   [--cli PATH] [--setups K]

   and the last line of standard output is the JSON result. Untraced runs
   report the end-to-end metrics, traced runs the per-layer metrics (see
   perfbench/README.md for what each one means and which it should move).
   Any failed check makes the run exit 1 after printing its result. *)

module Sha256 = Alpenhorn_crypto.Sha256
module Parallel = Alpenhorn_parallel.Parallel

let end_to_end =
  [
    ("setup_s", "s");
    ("addfriend_round_s", "s");
    ("dialing_round_s", "s");
    ("alloc_mwords", "Mwords");
    ("client_download_bytes", "B");
    ("heap_words_per_client", "words");
  ]

let per_layer =
  [
    ("pkg.rotate_s", "s");
    ("pkg.extract_s", "s");
    ("pkg.extract_mwords", "Mwords");
    ("client.begin_addfriend_s", "s");
    ("client.submit_s", "s");
    ("client.submit_mwords", "Mwords");
    ("mixnet.hop_s", "s");
    ("mixnet.hop_mwords", "Mwords");
    ("mixnet.keys_s", "s");
    ("mixnet.noise_s", "s");
    ("mailbox.distribute_s", "s");
    ("client.scan_addfriend_s", "s");
    ("client.scan_addfriend_mwords", "Mwords");
    ("client.scan_dialing_s", "s");
    ("pairing.pair_us", "us");
    ("pairing.pair_kwords", "kwords");
    ("pairing.mont_muls", "count");
    ("net.rpc_calls", "count");
    ("net.rpc_pkg_s", "s");
    ("net.rpc_mix_s", "s");
    ("net.syscalls", "count");
    ("net.connects", "count");
    ("net.wire_bytes_per_pair", "B");
    ("mailbox.distribute_sharded_s", "s");
    ("mailbox.distribute_sharded_mwords", "Mwords");
    ("mailbox.publish_s", "s");
    ("mailbox.scan_s", "s");
    ("bloom.publish_s", "s");
    ("bloom.scan_s", "s");
    ("costmodel.scan_ratio", "ratio");
    ("costmodel.unwrap_ratio", "ratio");
    ("costmodel.extract_ratio", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.coverage", "ratio");
    ("trace.overhead_frac", "ratio");
    ("round.addfriend_wall_s", "s");
    ("round.dialing_wall_s", "s");
    ("host.reference_ms", "ms");
  ]

(* ---- host context: recorded with every run, never gated ---- *)

let sha_chain n =
  let s = ref (String.make 32 'h') in
  for _ = 1 to n do
    s := Sha256.digest !s
  done

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Effective cores: the same fixed work on one spinning domain, then on
   two at once. 2 * t1 / t2 is ~1 on one effective core and ~2 on two. *)
let host_context () =
  let work () = sha_chain 100_000 in
  let t1 = timed work in
  let t2 =
    timed (fun () ->
        let d = Domain.spawn work in
        work ();
        Domain.join d)
  in
  let block = String.make (1 lsl 20) 'x' in
  let sha_s = timed (fun () -> for _ = 1 to 16 do ignore (Sha256.digest block) done) in
  Printf.printf "host {\"effective_cores\":%.3f,\"pool_size\":%d,\"sha256_mb_s\":%.2f}\n%!"
    (2.0 *. t1 /. t2)
    (Parallel.size (Parallel.get ()))
    (16.0 /. sha_s)

(* ---- result line ---- *)

let print_result ~table (r : Common.result) =
  let missing = List.filter (fun (name, _) -> not (List.mem_assoc name r.Common.metrics)) table in
  let unknown = List.filter (fun (name, _) -> not (List.mem_assoc name table)) r.Common.metrics in
  List.iter (fun (n, _) -> Printf.eprintf "perfbench: metric %s missing\n" n) missing;
  List.iter (fun (n, _) -> Printf.eprintf "perfbench: metric %s not in the table\n" n) unknown;
  let value name = match List.assoc_opt name r.Common.metrics with Some v -> v | None -> nan in
  let finite = List.for_all (fun (name, _) -> Float.is_finite (value name)) table in
  if not finite then prerr_endline "perfbench: a metric is not finite";
  let correct = r.Common.failed = 0 && missing = [] && unknown = [] && finite in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = value name in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
          (if Float.is_finite v then v else 0.0)
          unit)
      table
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 r.Common.attempted) r.Common.failed (String.concat ", " metrics);
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let cli = ref "" and setups = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "pair-inproc | pair-fleet | scale-1m");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer metrics");
      ("--cli", Arg.Set_string cli, "path of alpenhorn_cli.exe (pair-fleet)");
      ( "--setups",
        Arg.Set_int setups,
        "set-ups per run; setup_s is their median (default 3, and 9 on scale-1m)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed S --seconds N --trace 0|1";
  Unix.putenv "ALPENHORN_DOMAINS" "1";
  Parallel.set_default_size 1;
  host_context ();
  let seed = Printf.sprintf "perfbench-%d" !seed and seconds = !seconds and traced = !trace = 1 in
  (* a set-up takes ~3-5 s on the pair workloads and ~0.4 s on scale-1m *)
  let setups = if !setups > 0 then !setups else if !workload = "scale-1m" then 9 else 3 in
  let measured =
    match !workload with
    | "pair-inproc" ->
      if traced then Inproc.traced ~seed ~seconds else Inproc.untraced ~seed ~seconds ~setups
    | "pair-fleet" ->
      if !cli = "" then (prerr_endline "perfbench: pair-fleet needs --cli"; exit 2);
      if traced then Fleet.traced ~cli:!cli ~seed ~seconds
      else Fleet.untraced ~cli:!cli ~seed ~seconds ~setups
    | "scale-1m" ->
      if traced then Scale1m.traced ~seed ~seconds else Scale1m.untraced ~seed ~seconds ~setups
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  (* a layer the workload never calls reads 0 in a traced run *)
  let result =
    if not traced then measured
    else
      {
        measured with
        Common.metrics =
          measured.Common.metrics
          @ List.filter_map
              (fun (name, _) ->
                if List.mem_assoc name measured.Common.metrics then None else Some (name, 0.0))
              per_layer;
      }
  in
  Printf.eprintf "perfbench: %d operations checked, %d failed\n" result.Common.attempted
    result.Common.failed;
  if not (print_result ~table:(if traced then per_layer else end_to_end) result) then exit 1
