(* The area optimizer: greedy gain-measured application of the logic and
   area critics' rules, with the timing constraint enforced as a penalty
   so area recovery avoids critical paths (Section 3's "area
   optimizations ... avoid critical or near-critical paths"). *)

module R = Milo_rules.Rule
module Engine = Milo_rules.Engine

(* The measurer's totals are current in O(1): the flat stage installs
   it, and each worker fork carries a fork of it. *)
let cost_fn ?(required = infinity) ctx () =
  let m =
    match !(ctx.R.measurer) with
    | Some ms -> Milo_measure.Measure.current ms
    | None -> invalid_arg "Area_opt.cost_fn: the context has no measurer"
  in
  let penalty =
    if m.Engine.delay > required then 1000.0 *. (m.Engine.delay -. required)
    else 0.0
  in
  m.Engine.area +. (0.05 *. m.Engine.power) +. penalty

let optimize ?exec ?(required = infinity) ?(max_steps = 200) ?budget ~rules
    ~cleanups ctx =
  Milo_trace.Trace.with_span "area-opt" @@ fun () ->
  let cost = Engine.Measured (cost_fn ~required) in
  Engine.greedy_pass ~max_steps ?budget ?exec ~cost ctx ~cleanups rules
