(** Metarules: dynamic selection of the search control parameters by
    rule class and optimization phase (Section 2.2.2). *)

type phase = Meeting_timing | Recovering_area | Polishing

val fixed_full : Search.params
(** The no-metarules baseline: full lookahead for every rule class. *)

val fixed_greedy : Search.params
(** The no-lookahead baseline. *)

val params_for : cls:Rule.rule_class -> phase:phase -> Search.params
