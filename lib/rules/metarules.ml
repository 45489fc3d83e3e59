(* Metarules: control knowledge that tunes the search parameters by rule
   class and optimization phase (Section 2.2.2: "based on the state of
   the optimization, metarules determine what values the control
   parameters should have ... greater lookahead is required for
   area-saving rules than general rules; little or no lookahead is
   required for the most powerful rules"). *)

type phase = Meeting_timing | Recovering_area | Polishing

(* Fixed "no metarules" configuration: full lookahead everywhere (the
   expensive baseline of [CoBa85]). *)
let fixed_full = { Search.b = 3; d_max = 3; d_app = 1; n_hood = 0; delta_cost = 20.0 }

(* Fixed "no lookahead" configuration: pure greedy. *)
let fixed_greedy = { Search.b = 1; d_max = 1; d_app = 1; n_hood = 0; delta_cost = 0.0 }

(* Metarule-selected parameters. *)
let params_for ~(cls : Rule.rule_class) ~(phase : phase) =
  match (cls, phase) with
  (* The most powerful rules need little or no lookahead. *)
  | (Rule.Logic | Rule.Cleanup), _ ->
      { Search.b = 1; d_max = 1; d_app = 1; n_hood = 0; delta_cost = 0.0 }
  (* Area-saving rules benefit from deeper lookahead, but localized. *)
  | Rule.Area, Recovering_area ->
      { Search.b = 3; d_max = 3; d_app = 1; n_hood = 3; delta_cost = 8.0 }
  | Rule.Area, (Meeting_timing | Polishing) ->
      { Search.b = 2; d_max = 2; d_app = 1; n_hood = 2; delta_cost = 4.0 }
  (* Timing rules: moderate breadth, shallow depth, localized to the
     critical region. *)
  | Rule.Timing, Meeting_timing ->
      { Search.b = 3; d_max = 2; d_app = 1; n_hood = 3; delta_cost = 12.0 }
  | Rule.Timing, (Recovering_area | Polishing) ->
      { Search.b = 2; d_max = 2; d_app = 1; n_hood = 2; delta_cost = 6.0 }
  | Rule.Power, _ ->
      { Search.b = 2; d_max = 2; d_app = 1; n_hood = 2; delta_cost = 6.0 }
  | (Rule.Electric | Rule.Micro), _ ->
      { Search.b = 1; d_max = 1; d_app = 1; n_hood = 0; delta_cost = 100.0 }
