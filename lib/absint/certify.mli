(** Static rule certification: prove critic rules sound offline so the
    dynamic rule guard can skip them.

    Each rule is exercised over a built-in witness corpus (plus any
    caller-supplied designs) mapped onto the target technology.  Every
    site the rule matches is applied transactionally and its effect
    checked two ways, strongest first:

    - {e cone-local}: the rule guard's own cone check
      ([Milo_rules.Cone.sweep] before, [Milo_rules.Cone.recheck]
      after) on the site's output nets over their fan-in cone leaves,
      exhaustive up to {!exhaustive_leaves} leaves and over 128 seeded
      random vectors up to {!random_leaves};
    - {e whole-design}: when no cone is verifiable (sequential sites,
      vanished nets), the pre-apply design is compared against the
      post-apply one with [Milo_guard.Guard.check].

    A rule whose every verified site was proved exhaustively is
    [Certified]; one with at least one verified site, but only random
    evidence somewhere, is [Probabilistic]; a rule that matched
    nothing verifiable is [Uncertified]; and {e any} divergence makes
    it [Refused].  Only [Certified] rules may skip the dynamic guard
    ([Milo_rules.Engine.set_certified]); the stage-boundary checks
    remain as a backstop — a certificate is empirical evidence over
    the corpus, not a proof over every context, which is exactly why
    the flow keeps stage guards on.

    Certificates are digest-signed and cached per (rule, technology)
    pair; a tampered certificate fails {!valid} and is recomputed. *)

module D = Milo_netlist.Design

type verdict = Certified | Probabilistic | Uncertified | Refused

val verdict_name : verdict -> string

type certificate = {
  cert_rule : string;
  cert_class : string;
  cert_tech : string;
  cert_verdict : verdict;
  cert_sites : int;  (** sites exercised across the corpus *)
  cert_exhaustive : int;  (** sites proved by exhaustive enumeration *)
  cert_random : int;  (** sites checked by random vectors only *)
  cert_detail : string;  (** refusal divergence, or "" *)
  cert_digest : string;  (** hex digest binding all fields *)
}

val valid : certificate -> bool
(** Does the signature match the payload? *)

val exhaustive_leaves : int
(** Cone size up to which enumeration is exhaustive (12). *)

val random_leaves : int
(** Cone size up to which random vectors are still tried (16). *)

(** {2 Certificate cache} *)

type cache

val create_cache : unit -> cache
(** A private cache (per-instance state; nothing shared). *)

val shared_cache : cache
(** The default process-wide cache the flow uses.  Every cache access
    is serialized, so flows on several domains may fill it at once. *)

val reset_cache : cache -> unit

val lookup : ?cache:cache -> tech:string -> string -> certificate option
(** Cached certificate for (rule, technology), if any and valid. *)

(** {2 Certification} *)

val default_corpus : Milo_techmap.Table_map.target -> D.t list
(** The built-in witness designs, mapped onto the target: gate chains,
    shared/duplicated logic, constant ties, masked (unobservable)
    cones, a mux→flip-flop pair, a MUXFF with a mux on its data leg,
    ripple and lookahead adders, and a high-power variant component
    when the technology has one. *)

val certify_rules :
  ?cache:cache ->
  Milo_techmap.Table_map.target ->
  Milo_rules.Rule.t list ->
  certificate list
(** Certify each rule over {!default_corpus}, reusing cached
    certificates.  At most 12 sites are exercised per rule, and at most
    4 per witness design. *)

val certified_names : certificate list -> string list
(** Names of the [Certified] rules — what
    [Milo_rules.Engine.set_certified] expects. *)

val cert_to_json : certificate -> string
val pp_certificate : Format.formatter -> certificate -> unit
