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

(* The context's measurer is kept in lock-step with every committed
   edit, so its live Sta view and running totals are always current
   (and carry the input arrivals it was created with).  Every context
   the optimizer runs on has one: the flat stage installs it. *)
let measurer ctx =
  match !(ctx.R.measurer) with
  | Some m -> m
  | None -> invalid_arg "Time_opt: the context has no measurer"

let analyze ctx = Milo_measure.Measure.sta (measurer ctx)

(* The worst arrival among endpoints (what the constraint binds). *)
let worst ctx = Sta.worst_delay (analyze ctx)
let area ctx =
  (Milo_measure.Measure.current (measurer ctx)).Milo_measure.Measure.area

(* The measurer's running totals as an attribution cost. *)
let cost_of ctx =
  let c = Milo_measure.Measure.current (measurer ctx) in
  {
    Milo_trace.Trace.delay = c.Milo_measure.Measure.delay;
    area = c.Milo_measure.Measure.area;
    power = c.Milo_measure.Measure.power;
  }

module Engine = Milo_rules.Engine

let exhausted budget =
  match budget with Some b -> Milo_rules.Budget.exhausted b | None -> false

(* Quarantine key for a whole strategy: strategies are not rules, but
   a raising strategy is contained the same way — under a reserved name
   the rule tables cannot collide with. *)
let strategy_key name = "strategy:" ^ name

(* Try one strategy on the most critical path, in place; keep the edit
   only if the worst delay strictly improves without a runaway area
   cost (the two-level collapse of an XOR-rich cone can explode, as the
   paper notes about the Logic Consultant's minimizer).  A refused try
   leaves no trace: the log is undone (ids included), the measurer
   retreats exactly and the rule guard is rewound.  A strategy that
   raises is refused the same way and quarantined. *)
let try_strategy ?budget ctx ~cleanups (s : Strategies.strategy) =
  (match budget with Some b -> Milo_rules.Budget.eval b | None -> ());
  let sta = analyze ctx in
  match Milo_timing.Paths.most_critical sta with
  | None -> None
  | Some path -> (
      let before = Sta.worst_delay sta in
      let area_before = area ctx in
      (* Attribution is built only when the commit is recorded. *)
      let attributed = D.has_commit_hook ctx.R.design in
      let before_cost = if attributed then Some (cost_of ctx) else None in
      let session = ctx.R.session in
      let guard = Engine.guard_mark session in
      let log = D.new_log () in
      let refuse ?step () =
        D.undo ctx.R.design log;
        Option.iter (Engine.measure_drop ctx) step;
        Engine.guard_rewind session guard;
        None
      in
      match s.Strategies.run ctx sta path log with
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception e ->
          Engine.note_failure_named session ~reason:Engine.Raised
            (strategy_key s.Strategies.strat_name)
            (Printexc.to_string e);
          refuse ()
      | Strategies.Not_applicable -> refuse ()
      | Strategies.Applied detail -> (
          Engine.run_cleanups ctx cleanups log;
          match Engine.measure_step ctx log with
          | Engine.Measure_failed -> refuse ()
          | step ->
              let after = worst ctx in
              let area_after = area ctx in
              let area_ok =
                area_after <= Float.max (area_before *. 1.25) (area_before +. 4.0)
              in
              if after < before -. 1e-9 && area_ok then begin
                (* Keep the measurement before committing (mirroring
                   [Engine.greedy_step]'s commit): if keeping forces a resync,
                   the totals attached to the commit below are the
                   resynced — final — ones, so attribution telescopes. *)
                Engine.measure_keep ctx step;
                let attr =
                  if attributed then
                    {
                      D.no_attribution with
                      at_before = before_cost;
                      at_after = Some (cost_of ctx);
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
              else refuse ~step ()))

(* One optimizer iteration (Figure 8's "try strategies in slack
   order"): each strategy of [strategies] that is not quarantined is
   tried once, in turn, in place, and the first that helps is the
   iteration's one committed application — the strategies after it are
   never tried.  The budget is checked before each try; a try that has
   started runs to its end, because a strategy is one local rewrite. *)
let try_all ?budget ctx ~cleanups strategies =
  let rec go = function
    | [] -> None
    | _ when exhausted budget -> None
    | (s : Strategies.strategy) :: rest -> (
        if Engine.is_quarantined ctx.R.session (strategy_key s.Strategies.strat_name)
        then go rest
        else
          match try_strategy ?budget ctx ~cleanups s with
          | None -> go rest
          | step -> step)
  in
  go strategies

let optimize ?(required = 0.0) ?(max_steps = 64) ?budget ~cleanups ctx =
  Milo_trace.Trace.with_span "time-opt" @@ fun () ->
  let steps = ref [] in
  let rec loop n =
    let current = worst ctx in
    if current <= required || n >= max_steps || exhausted budget then current
    else begin
      let deficit = current -. required in
      let order = Strategies.order_for ~deficit ~required:(Float.max required current) in
      match
        try_all ?budget ctx ~cleanups (List.map Strategies.by_id order)
      with
      | Some step ->
          steps := step :: !steps;
          loop (n + 1)
      | None -> current
    end
  in
  let final_delay = loop 0 in
  { met = final_delay <= required; final_delay; steps = List.rev !steps }
