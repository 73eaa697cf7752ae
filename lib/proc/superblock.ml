(* Kept only because the frozen campaign benchmark names these fields. *)
type stats = Block_engine.stats = {
  decodes : int;
  dispatches : int;
  invalidations : int;
  resident : int;
}
