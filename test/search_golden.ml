(* Golden lookahead: Search.run on one mapped random-logic design under
   E3's three parameter sets (fixed greedy, fixed full lookahead, and
   the metarules' area-recovery set), each from a fresh copy.  For
   each it prints the total area gain with [%h], the evaluation and
   node counts and the final design's hash, so the comparison against
   search_golden.expected pins the search's picks, its exploration
   order and its commits bit for bit. *)

module D = Milo_netlist.Design
module R = Milo_rules.Rule
module Search = Milo_rules.Search
module Metarules = Milo_rules.Metarules

let () =
  let ecl = Milo_library.Ecl.get () in
  let mapped =
    Milo_techmap.Table_map.map_design
      (Milo_techmap.Table_map.ecl_target ())
      (Milo_designs.Workload.random_logic ~gates:60 ~seed:101 ())
  in
  let env name = Milo_library.Technology.find ecl name in
  let cost_factory (ctx : R.context) () =
    Milo_estimate.Estimate.area env ctx.R.design
  in
  List.iter
    (fun (name, params) ->
      let d = D.copy mapped in
      let ctx =
        R.make_context ecl (Milo_compilers.Gate_comp.named_set ~prefix:"E_" ecl) d
      in
      let stats = { Search.nodes = 0; evals = 0 } in
      let gain =
        Search.run ~params ~stats ~cost_factory ctx
          ~cleanups:Milo_critic.Critic.cleanup
          (Milo_critic.Critic.logic @ Milo_critic.Critic.area)
      in
      Printf.printf "%s gain %h evals %d nodes %d design %s\n" name gain
        stats.Search.evals stats.Search.nodes
        (Milo_journal.Journal.design_hash d))
    [
      ("greedy", Metarules.fixed_greedy);
      ("full-lookahead", Metarules.fixed_full);
      ("metarules", Metarules.params_for ~cls:R.Area ~phase:Metarules.Recovering_area);
    ]
