(** The guest-machine engine: persistent states, optional per-execution
    race checking and either canonical-state or happens-before coverage
    signatures. *)

type signature_mode =
  | Canonical_state  (** ZING-style: fingerprint of the canonical state *)
  | Hb_signature
      (** CHESS-style: happens-before signature of the run.  Only this
          mode folds each step's events into a happens-before signature;
          the other keeps none, so its steps skip that work and its
          states retain no happens-before maps. *)

type config = {
  granularity : Icb_machine.Interp.granularity;
  check_races : bool;
      (** detect data races along each execution and report them as
          errors; required for soundness under [Sync_only] *)
  detector : [ `Vclock | `Goldilocks ];
  signature_mode : signature_mode;
}

val default_config : config
(** [Sync_only], races checked with the vector-clock detector, canonical
    state signatures. *)

val zing_config : config
(** [Every_access], no race checking (unnecessary at full granularity),
    canonical state signatures. *)

val chess_config : config
(** [Sync_only], Goldilocks race checking, happens-before signatures — the
    paper's CHESS configuration. *)

type state

module Make (_ : sig
  val config : config
  val prog : Icb_machine.Prog.t
end) : Engine.S with type state = state

val machine_state : state -> Icb_machine.State.t
(** The underlying machine state, for model-specific inspection (final
    invariant checks in tests, trace printing in the harness). *)
