(* The time optimizer (Figure 8):

     timing analysis -> pick the critical path furthest from spec ->
     pick a control strategy by slack -> try strategies/rules; keep a
     transformation only if it reduces the worst endpoint arrival ->
     repeat until the constraint is met or all strategies are exhausted. *)

module D = Milo_netlist.Design
module R = Milo_rules.Rule
module Sta = Milo_timing.Sta

type step = {
  step_strategy : string;
  step_detail : string;
  delay_before : float;
  delay_after : float;
}

type outcome = { met : bool; final_delay : float; steps : step list }

(* With a measurer in the context, its live Sta view replaces a
   from-scratch analysis (the measurer is kept in lock-step with every
   committed edit, so the view is always current). *)
let analyze ctx ~input_arrivals =
  match !(ctx.R.measurer) with
  | Some m -> Milo_measure.Measure.sta m
  | None ->
      let env name = Milo_library.Technology.find ctx.R.tech name in
      Sta.analyze ~input_arrivals env ctx.R.design

(* The worst arrival among endpoints (what the constraint binds). *)
let worst ctx ~input_arrivals = Sta.worst_delay (analyze ctx ~input_arrivals)

let area ctx =
  match !(ctx.R.measurer) with
  | Some m -> (Milo_measure.Measure.current m).Milo_measure.Measure.area
  | None ->
      let env name = Milo_library.Technology.find ctx.R.tech name in
      Milo_estimate.Estimate.area env ctx.R.design

(* The measurer's running totals as a trace/attribution cost; [None]
   outside a measured window. *)
let cost_of ctx =
  match !(ctx.R.measurer) with
  | None -> None
  | Some m ->
      let c = Milo_measure.Measure.current m in
      Some
        {
          Milo_trace.Trace.delay = c.Milo_measure.Measure.delay;
          area = c.Milo_measure.Measure.area;
          power = c.Milo_measure.Measure.power;
        }

(* Try one strategy on the most critical path; keep the edit only if the
   worst delay strictly improves without a runaway area cost (the
   two-level collapse of an XOR-rich cone can explode, as the paper
   notes about the Logic Consultant's minimizer). *)
let try_strategy ?budget ctx ~input_arrivals ~cleanups (s : Strategies.strategy)
    =
  (match budget with Some b -> Milo_rules.Budget.eval b | None -> ());
  let sta = analyze ctx ~input_arrivals in
  match Milo_timing.Paths.most_critical sta with
  | None -> None
  | Some path -> (
      let before = Sta.worst_delay sta in
      let area_before = area ctx in
      (* Attribution is built only when the commit is recorded. *)
      let attributed = D.has_commit_hook ctx.R.design in
      let before_cost =
        if attributed || Milo_trace.Trace.enabled () then cost_of ctx else None
      in
      let log = D.new_log () in
      match s.Strategies.run ctx sta path log with
      | Strategies.Not_applicable ->
          D.undo ctx.R.design log;
          None
      | Strategies.Applied detail -> (
          Milo_rules.Engine.run_cleanups ctx cleanups log;
          match Milo_rules.Engine.measure_step ctx log with
          | Milo_rules.Engine.Measure_failed ->
              D.undo ctx.R.design log;
              None
          | step ->
              let after = worst ctx ~input_arrivals in
              let area_after = area ctx in
              let area_ok =
                area_after <= Float.max (area_before *. 1.25) (area_before +. 4.0)
              in
              let kept = after < before -. 1e-9 && area_ok in
              if Milo_trace.Trace.enabled () then
                Milo_trace.Trace.emit ?before:before_cost
                  ?after:(cost_of ctx)
                  (Milo_trace.Trace.Strategy_step
                     {
                       strategy = s.Strategies.strat_name;
                       detail;
                       kept;
                       delay_before = before;
                       delay_after = after;
                     });
              if kept then begin
                (* Keep the measurement before committing (mirroring
                   [Engine.greedy_step]'s commit): if keeping forces a resync,
                   the totals attached to the commit below are the
                   resynced — final — ones, so attribution telescopes. *)
                Milo_rules.Engine.measure_keep ctx step;
                let attr =
                  if attributed then
                    {
                      D.no_attribution with
                      at_before = before_cost;
                      at_after = cost_of ctx;
                    }
                  else D.no_attribution
                in
                D.commit ~label:s.Strategies.strat_name ~attr
                  ~design:ctx.R.design log;
                (match budget with
                | Some b -> Milo_rules.Budget.step b
                | None -> ());
                Some
                  {
                    step_strategy = s.Strategies.strat_name;
                    step_detail = detail;
                    delay_before = before;
                    delay_after = after;
                  }
              end
              else begin
                D.undo ctx.R.design log;
                Milo_rules.Engine.measure_drop ctx step;
                None
              end))

module Pool = Milo_parallel.Pool
module Exec = Milo_parallel.Exec

(* Quarantine key for a whole strategy: strategies are not rules, but
   a faulting strategy task is contained the same way — under a
   reserved name the rule tables cannot collide with. *)
let strategy_key name = "strategy:" ^ name

(* Strategy fan-out for one optimizer iteration: every non-quarantined
   strategy in [order] is tried speculatively by one supervised task on
   a forked snapshot (a pure would-this-help oracle), then the first
   success in strategy order is re-run authoritatively on the real
   context — so trace, provenance, the measurer and the budget see
   exactly one strategy application, the one a scan of the oracle
   verdicts in order picks.  A faulting task quarantines its strategy
   for the rest of the run. *)
let try_all ?budget ~exec ctx ~input_arrivals ~cleanups order =
  let session = ctx.R.session in
  let strategies =
    List.filter_map
      (fun id ->
        let s = Strategies.by_id id in
        if
          Milo_rules.Engine.is_quarantined session
            (strategy_key s.Strategies.strat_name)
        then None
        else Some s)
      order
  in
  if strategies = [] then None
  else begin
    (match budget with
    | Some b -> List.iter (fun _ -> Milo_rules.Budget.eval b) strategies
    | None -> ());
    let tasks =
      List.map
        (fun (s : Strategies.strategy) () ->
          Milo_rules.Engine.worker_task ctx (fun wctx ->
              try_strategy wctx ~input_arrivals ~cleanups s <> None))
        strategies
    in
    let outcomes = Exec.map exec tasks in
    let sarr = Array.of_list strategies in
    Array.iteri
      (fun i outcome ->
        match outcome with
        | Pool.Done (_, fails) -> Milo_rules.Engine.import_failures session fails
        | Pool.Task_failed fault ->
            Milo_rules.Engine.note_failure_named session
              ~reason:Milo_rules.Engine.Raised
              (strategy_key sarr.(i).Strategies.strat_name)
              ("parallel task: " ^ Pool.fault_message fault))
      outcomes;
    let rec pick i =
      if i >= Array.length sarr then None
      else
        match outcomes.(i) with
        | Pool.Done (true, _) -> (
            (* The oracle said this strategy improves; the
               authoritative run re-verifies on the real context.  A
               divergence (rare: the oracle measured from scratch, the
               context may measure incrementally) just falls through
               to the next candidate. *)
            match try_strategy ?budget ctx ~input_arrivals ~cleanups sarr.(i) with
            | Some step -> Some step
            | None -> pick (i + 1))
        | Pool.Done (false, _) | Pool.Task_failed _ -> pick (i + 1)
    in
    pick 0
  end

let optimize ?(exec = Exec.inline ()) ?(required = 0.0) ?(input_arrivals = [])
    ?(max_steps = 64) ?budget ~cleanups ctx =
  Milo_trace.Trace.with_span "time-opt" @@ fun () ->
  let steps = ref [] in
  let exhausted () =
    match budget with Some b -> Milo_rules.Budget.exhausted b | None -> false
  in
  let rec loop n =
    let current = worst ctx ~input_arrivals in
    if current <= required || n >= max_steps || exhausted () then current
    else begin
      let deficit = current -. required in
      let order = Strategies.order_for ~deficit ~required:(Float.max required current) in
      match try_all ?budget ~exec ctx ~input_arrivals ~cleanups order with
      | Some step ->
          steps := step :: !steps;
          loop (n + 1)
      | None -> current
    end
  in
  let final_delay = loop 0 in
  { met = final_delay <= required; final_delay; steps = List.rev !steps }

(* Unconstrained "make it as fast as possible": iterate until no
   strategy improves. *)
let minimize_delay ?exec ?(input_arrivals = []) ?(max_steps = 64) ?budget
    ~cleanups ctx =
  optimize ?exec ~required:0.0 ~input_arrivals ~max_steps ?budget ~cleanups ctx
