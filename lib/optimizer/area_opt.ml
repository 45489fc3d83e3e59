(* The area optimizer: greedy gain-measured application of the logic and
   area critics' rules, with the timing constraint enforced as a penalty
   so area recovery avoids critical paths (Section 3's "area
   optimizations ... avoid critical or near-critical paths"). *)

module R = Milo_rules.Rule
module Engine = Milo_rules.Engine

let cost_fn ?(required = infinity) ?(input_arrivals = []) ctx () =
  (* With a measurer in the context the totals are already current —
     O(1) instead of a full STA + estimate fold per evaluation. *)
  let m =
    match !(ctx.R.measurer) with
    | Some ms -> Milo_measure.Measure.current ms
    | None -> Engine.measure_fn ctx ~input_arrivals ()
  in
  let penalty =
    if m.Engine.delay > required then 1000.0 *. (m.Engine.delay -. required)
    else 0.0
  in
  m.Engine.area +. (0.05 *. m.Engine.power) +. penalty

let optimize ?exec ?(required = infinity) ?(input_arrivals = [])
    ?(max_steps = 200) ?budget ~rules ~cleanups ctx =
  Milo_trace.Trace.with_span "area-opt" @@ fun () ->
  (* Worker forks carry no measurer, so on a fork each cost is a full
     STA + estimate fold: once per task for the baseline shared by the
     task's sites, then once per candidate that applies. *)
  let cost = Engine.Measured (cost_fn ~required ~input_arrivals) in
  Engine.greedy_pass ~max_steps ?budget ?exec ~cost ctx ~cleanups rules

(* Area recovery with lookahead (used by the metarules experiment). *)
let optimize_lookahead ?exec ?(required = infinity) ?(input_arrivals = [])
    ?(params = Milo_rules.Search.default_params) ?stats ?budget ~rules
    ~cleanups ctx =
  let cost_factory wctx = cost_fn ~required ~input_arrivals wctx in
  Milo_rules.Search.run ~params ?stats ?budget ?exec ~cost_factory ctx
    ~cleanups rules
