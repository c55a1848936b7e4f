(* Generate (q, l) pairs for Params pregenerated sets. *)
module B = Alpenhorn_bigint.Bigint
module P = Alpenhorn_pairing
let () =
  let qbits = int_of_string Sys.argv.(1) in
  let rng = Alpenhorn_crypto.Drbg.create ~seed:("genparams-" ^ Sys.argv.(1)) in
  let t0 = Unix.gettimeofday () in
  let p = P.Params.generate rng ~qbits in
  Printf.printf "qbits=%d time=%.1fs\n" qbits (Unix.gettimeofday () -. t0);
  Printf.printf "q = 0x%s\n" (B.to_hex p.P.Params.q);
  Printf.printf "l = 0x%s\n" (B.to_hex (B.div p.P.Params.cofactor (B.of_int 12)));
  Printf.printf "p bits = %d\n" (B.numbits (P.Field.modulus p.P.Params.fp));
  P.Params.validate p;
  print_endline "validate OK";
  (* quick bilinearity smoke *)
  let fp = p.P.Params.fp and g = p.P.Params.g in
  let a = B.of_int 7 and b = B.of_int 11 in
  let e1 = P.Pairing.pair p (P.Curve.mul fp a g) (P.Curve.mul fp b g) in
  let e2 = P.Pairing.gt_pow p (P.Pairing.pair p g g) (B.of_int 77) in
  Printf.printf "bilinear: %b\n" (P.Pairing.gt_equal e1 e2);
  Printf.printf "nondegenerate: %b\n" (not (P.Pairing.gt_equal (P.Pairing.pair p g g) (P.Pairing.gt_one p)))
