(* The power optimizer: power-weighted greedy application of the power
   critic's rules under the timing constraint. *)

module R = Milo_rules.Rule
module Engine = Milo_rules.Engine

let cost_fn ?(required = infinity) ctx () =
  (* Measurer-aware, like [Area_opt.cost_fn]. *)
  let m =
    match !(ctx.R.measurer) with
    | Some ms -> Milo_measure.Measure.current ms
    | None -> invalid_arg "Power_opt.cost_fn: the context has no measurer"
  in
  let penalty =
    if m.Engine.delay > required then 1000.0 *. (m.Engine.delay -. required)
    else 0.0
  in
  m.Engine.power +. (0.05 *. m.Engine.area) +. penalty

let optimize ?exec ?(required = infinity) ?(max_steps = 200) ?budget ~rules
    ~cleanups ctx =
  Milo_trace.Trace.with_span "power-opt" @@ fun () ->
  let cost = Engine.Measured (cost_fn ~required) in
  Engine.greedy_pass ~max_steps ?budget ?exec ~cost ctx ~cleanups rules
