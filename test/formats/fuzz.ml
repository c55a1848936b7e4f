(* The format registry at depth: fuzz.exe MUTANTS [SEED] checks every
   format with MUTANTS mutants each (see formats.mli) and exits 1 on the
   first format that fails. *)

let () =
  match Array.to_list Sys.argv with
  | [ _; mutants ] | [ _; mutants; _ ] when int_of_string_opt mutants <> None ->
    let mutants = int_of_string mutants in
    let seed = if Array.length Sys.argv > 2 then Sys.argv.(2) else "fuzz" in
    let entries = Alpenhorn_formats.Formats.entries () in
    let failed =
      List.filter
        (fun e ->
          let name = Alpenhorn_formats.Formats.name e in
          match Alpenhorn_formats.Formats.check ~seed ~mutants e with
          | Ok () -> false
          | Error msg ->
            Printf.printf "FAIL %s: %s\n%!" name msg;
            true)
        entries
    in
    if failed <> [] then begin
      Printf.printf "fuzz: %d of %d formats failed (seed %S, %d mutants each)\n" (List.length failed)
        (List.length entries) seed mutants;
      exit 1
    end;
    Printf.printf "fuzz: %d formats x %d mutants, no exception, every decode canonical (seed %S)\n"
      (List.length entries) mutants seed
  | _ ->
    prerr_endline "usage: fuzz.exe MUTANTS [SEED]";
    exit 2
