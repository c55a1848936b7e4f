(** A registry of every wire format, and the property check run over it.

    Each entry pairs a format's encoder and total decoder with a
    DRBG-seeded generator of values. {!check} asserts, for one entry:

    - the round trip: a generated value decodes back to a value with the
      same encoding;
    - canonicality: whenever a mutant decodes, it re-encodes to exactly
      the mutant's bytes;
    - totality: no decoder raises on any mutant.

    Mutants are bit flips, bytes overwritten (with zero or at random),
    truncations, u32 length and count fields set to 0, 2^30 − 1, 2^30
    and 2^32 − 1, trailing bytes, and splices of two valid encodings.
    Everything is derived from the seed, so a failure reproduces from the
    seed, format name and mutant count. *)

type entry =
  | Entry : {
      name : string;
      encode : 'a -> string;
      decode : string -> 'a option;
      gen : Alpenhorn_crypto.Drbg.t -> 'a;
    }
      -> entry

val entries : unit -> entry list
(** The codecs of [Wire], [Persist], [Bloom], [Ratelimit], the trace
    envelope and every [Proto] request, response and error on the curves
    they run on; plus frames, [Payload], curve points and the
    [Stream_writer] record blobs of add-friend shards through their own
    hand-written functions. *)

val name : entry -> string

val check : seed:string -> mutants:int -> entry -> (unit, string) result
(** [Error] describes the first violation: the kind, the mutant's index
    and its bytes in hex. *)
