(* Allocation probe for the zero-allocation tests. [words f] warms [f]
   with one call, then returns the minor-heap words [n] further calls
   allocate, net of an empty loop of the same length. The probes run in
   the dev profile like the rest of the suite, so they see what the
   engine's callers see when nothing is inlined across modules. *)

let words ?(n = 10_000) f =
  f ();
  let b0 = Gc.minor_words () in
  for _ = 1 to n do
    ()
  done;
  let baseline = Gc.minor_words () -. b0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0 -. baseline

(* Alcotest check that [f] allocates nothing per call. *)
let check_zero what f = Alcotest.(check (float 0.0)) (what ^ " allocates nothing") 0.0 (words f)

(* A fixed pseudo-random address stream (a Weyl sequence): distinct enough
   to miss every cache level, and free of allocation itself. *)
let scatter i = (i * 0x9E3779B1) land ((1 lsl 30) - 1)
