(* Client compromise and recovery (§9).

   Alice's laptop is stolen. The thief holds her long-term signing key and
   keywheel state. This example walks the paper's recovery procedure:
   deregister with the old key, sit out the 30-day lockout, re-register a
   new key, and re-run the add-friend protocol with each friend — while the
   PKG lockout policy keeps the thief from hijacking the account in the
   meantime.

   Run with: dune exec examples/recovery.exe *)

module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Pkg = Alpenhorn_pkg.Pkg

let day = 24 * 3600

let step =
  let n = ref 0 in
  fun msg ->
    incr n;
    Printf.printf "\n%d. %s\n%!" !n msg

let () =
  (* the in-process deployment, with its PKG handles for the deregistration *)
  let pkgs, backend = Deployment.local_backend ~config:Config.test ~seed:"recovery" in
  let d = Deployment.of_backend ~config:Config.test ~seed:"recovery" backend in
  let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
  let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> ()
      | Error e -> failwith (Pkg.error_to_string e))
    [ alice; bob ];

  step "Alice and Bob become friends (normal add-friend handshake)";
  Client.add_friend alice ~email:"bob@x" ();
  ignore (Deployment.run_addfriend_round d ());
  ignore (Deployment.run_addfriend_round d ());
  Printf.printf "   friends: %b\n" (Client.is_friend alice ~email:"bob@x");

  step "Alice makes an offline backup (long-term key + pinned friend keys, no keywheel)";
  let backup_blob = Client.export_backup alice ~passphrase:"correct horse battery" in
  Printf.printf "   sealed backup: %d bytes\n" (String.length backup_blob);

  step "Alice's laptop is stolen: she deregisters with her old signing key";
  let signature = Client.sign_deregister alice in
  Array.iter
    (fun pkg ->
      match Pkg.deregister pkg ~now:(Deployment.now d) ~email:"alice@x" ~signature with
      | Ok () -> ()
      | Error e -> failwith (Pkg.error_to_string e))
    pkgs;
  Printf.printf "   deregistered at every PKG\n";

  step "The thief (who also controls her email) tries to register immediately";
  let thief = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
  (match Deployment.register d thief with
   | Error (Pkg.Locked_out remaining) ->
     Printf.printf "   PKG refuses: locked out for %d more days\n" (remaining / day)
   | Ok () -> failwith "lockout failed to protect the account!"
   | Error e -> failwith (Pkg.error_to_string e));

  step "Alice regains her email access and waits out the 30-day lockout";
  Deployment.advance_clock d ~seconds:(31 * day);
  let alice2 = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
  (match Deployment.register d alice2 with
   | Ok () -> Printf.printf "   re-registered with a brand-new signing key\n"
   | Error e -> failwith (Pkg.error_to_string e));

  step "Alice restores her backup: bob's pinned key survives, keywheels do not";
  let backup =
    match
      Alpenhorn_core.Persist.import_identity (Deployment.params d)
        ~passphrase:"correct horse battery" backup_blob
    with
    | Some b -> b
    | None -> failwith "backup corrupt"
  in
  Printf.printf "   restored %d pinned friend key(s); keywheel empty as designed\n"
    (List.length backup.Alpenhorn_core.Persist.pinned);

  step "Bob clears the stale entry and they re-run add-friend";
  Client.remove_friend bob ~email:"alice@x";
  Client.add_friend alice2 ~email:"bob@x" ();
  ignore (Deployment.run_addfriend_round d ~participants:[ alice2; bob ] ());
  ignore (Deployment.run_addfriend_round d ~participants:[ alice2; bob ] ());
  let friends = Client.is_friend bob ~email:"alice@x" in
  Printf.printf "   friends again: %b (fresh keywheel, new long-term key)\n" friends;
  if not friends then failwith "re-friending failed";

  step "A call under the new keywheel still works";
  Client.call alice2 ~email:"bob@x" ~intent:0;
  let got = ref false in
  for _ = 1 to 5 do
    let ds = Deployment.run_dialing_round d ~participants:[ alice2; bob ] () in
    if ds.Deployment.calls <> [] then got := true
  done;
  Printf.printf "   call delivered: %b\n" !got;
  if not !got then failwith "the call was not delivered";
  Printf.printf "\nRecovery complete: the thief never obtained the new account.\n"
