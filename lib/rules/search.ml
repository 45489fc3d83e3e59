(* SOCRATES-style lookahead: a depth-first search tree whose nodes are
   circuit states and whose arcs are rule applications, bounded by the
   metarule control parameters of [CoBa85]:

     B       — breadth: sons per node
     D_max   — depth of the search tree
     D_app   — how many moves of the best sequence are executed
     N       — neighbourhood: rule sites must touch a component within
               path distance N of the first move's site
     Δcost   — maximum cost increase tolerated for a single move

   Backtracking restores the circuit through the change log. *)

module D = Milo_netlist.Design

type params = {
  b : int;
  d_max : int;
  d_app : int;
  n_hood : int;  (* 0 = unrestricted *)
  delta_cost : float;
}

let default_params = { b = 3; d_max = 3; d_app = 1; n_hood = 0; delta_cost = 10.0 }

type stats = { mutable nodes : int; mutable evals : int }

(* Candidate moves at the current state. *)
let moves ctx rules ~allowed =
  List.concat_map
    (fun (r : Rule.t) ->
      List.filter_map
        (fun (site : Rule.site) ->
          let ok =
            match allowed with
            | None -> true
            | Some tbl ->
                List.exists (fun cid -> Hashtbl.mem tbl cid) site.Rule.site_comps
          in
          if ok then Some (r, site) else None)
        (r.Rule.find ctx))
    rules

module Pool = Milo_parallel.Pool
module Exec = Milo_parallel.Exec

(* Depth-first search for an oracle worker on a forked context,
   returning the cost of the best reachable state and the move
   sequence to it; the fork is restored before returning.  No budget
   is charged here (the coordinator charges the merged eval counts
   deterministically afterwards), and every evaluation is appended to
   [trail] for the coordinator to record.  A node's own cost is the
   baseline of its moves' evaluations.  Cancellation reaches it
   through [Engine.evaluate]/[Engine.guarded_apply]'s poll points. *)
let dfs ~params ctx ~cost ~cleanups rules st trail =
  let ranked ~allowed ~before =
    let cands = moves ctx rules ~allowed in
    let scored =
      List.filter_map
        (fun (r, site) ->
          st.evals <- st.evals + 1;
          let ev =
            Engine.evaluate ctx ~before ~cost ~quiet:false ~cleanups r site
          in
          trail := (r, ev) :: !trail;
          match ev.Engine.result with
          | Error _ -> None
          | Ok gain ->
              if -.gain > params.delta_cost then None else Some (gain, r, site))
        cands
    in
    let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare b a) scored in
    List.filteri (fun i _ -> i < params.b) sorted
  in
  let rec dfs depth ~allowed current_cost =
    st.nodes <- st.nodes + 1;
    if depth >= params.d_max then (current_cost, [])
    else
      let best = ref (current_cost, []) in
      List.iter
        (fun (_, (r : Rule.t), site) ->
          if Rule.site_alive ctx site then begin
            let log = D.new_log () in
            if Engine.guarded_apply ctx r site log then begin
              Engine.run_cleanups ctx cleanups log;
              match Engine.measure_step ctx log with
              | Engine.Measure_failed -> D.undo ctx.Rule.design log
              | step ->
                  let c = cost () in
                  let allowed' =
                    match allowed with
                    | Some _ -> allowed
                    | None ->
                        if params.n_hood > 0 then
                          Some
                            (Engine.neighbourhood ctx site.Rule.site_comps
                               params.n_hood)
                        else None
                  in
                  let sub_cost, sub_moves = dfs (depth + 1) ~allowed:allowed' c in
                  let total = Float.min c sub_cost in
                  if total < fst !best then
                    best :=
                      (total, (r, site) :: (if sub_cost < c then sub_moves else []));
                  D.undo ctx.Rule.design log;
                  Engine.measure_drop ctx step
            end
            else D.undo ctx.Rule.design log
          end)
        (ranked ~allowed ~before:current_cost);
      !best
  in
  dfs

(* Coordinator side of a worker's result: record its evaluations and
   import its failures, in task order; a faulted task quarantines its
   rule. *)
let settle ctx (r : Rule.t) outcome k =
  match outcome with
  | Pool.Done ((v, trail), fails) ->
      List.iter (fun (r, ev) -> Engine.record_eval r ev) (List.rev trail);
      Engine.import_failures ctx.Rule.session fails;
      k v
  | Pool.Task_failed fault ->
      Engine.note_failure_named ctx.Rule.session ~reason:Engine.Raised
        r.Rule.rule_name
        ("parallel task: " ^ Pool.fault_message fault)

(* One lookahead step: build the bounded search tree, execute the first
   D_app moves of the best sequence, return the realized gain.  Two
   fan-outs, both merged in submission order so the result is
   independent of scheduling:

   1. root ranking — one supervised task per rule scores that rule's
      sites on a forked snapshot; the coordinator assembles the scored
      list in (rule index, site ordinal) order and ranks it with a
      stable sort and the breadth cut;
   2. branch exploration — one supervised task per ranked root move
      applies the move on a fresh fork and runs the remaining subtree
      there; the coordinator folds the branch results in rank order, so
      ties break identically.

   Only the winning sequence's first D_app moves are then re-applied
   authoritatively on the coordinator — budget steps and provenance
   both flow from that single path.  A faulting task
   quarantines its rule and costs exactly its own candidates. *)
let step ?(params = default_params) ?stats ?budget ?(exec = Exec.inline ())
    ~cost_factory ctx ~cleanups rules =
  let st = match stats with Some s -> s | None -> { nodes = 0; evals = 0 } in
  let nodes0 = st.nodes and evals0 = st.evals in
  let charge evals =
    st.evals <- st.evals + evals;
    match budget with
    | Some b -> for _ = 1 to evals do Budget.eval b done
    | None -> ()
  in
  if match budget with Some b -> Budget.exhausted b | None -> false then None
  else begin
    let cost = cost_factory ctx in
    let root_cost = cost () in
    (* Fan-out 1: score the root moves, one task per rule. *)
    let rules_arr = Array.of_list rules in
    let rank_tasks =
      Array.to_list rules_arr
      |> List.map (fun (r : Rule.t) () ->
             Engine.worker_task ctx (fun wctx ->
                 let wcost = cost_factory wctx in
                 let sites =
                   if Engine.is_quarantined wctx.Rule.session r.Rule.rule_name
                   then []
                   else r.Rule.find wctx
                 in
                 let trail = ref [] in
                 let scored =
                   match sites with
                   | [] -> []
                   | _ :: _ ->
                       let before = wcost () in
                       List.map
                         (fun site ->
                           let ev =
                             Engine.evaluate wctx ~before ~cost:wcost
                               ~quiet:false ~cleanups r site
                           in
                           trail := (r, ev) :: !trail;
                           match ev.Engine.result with
                           | Error _ -> None
                           | Ok gain ->
                               if -.gain > params.delta_cost then None
                               else Some (gain, site))
                         sites
                 in
                 (scored, !trail)))
    in
    let scored = ref [] in
    Array.iteri
      (fun ti outcome ->
        let r = rules_arr.(ti) in
        settle ctx r outcome (fun gains ->
            charge (List.length gains);
            List.iter
              (function
                | Some (gain, site) -> scored := (gain, r, site) :: !scored
                | None -> ())
              gains))
      (Exec.map exec rank_tasks);
    let sorted =
      List.sort (fun (a, _, _) (b, _, _) -> compare b a) (List.rev !scored)
    in
    let ranked = List.filteri (fun i _ -> i < params.b) sorted in
    (* Fan-out 2: explore each surviving root branch on its own fork. *)
    let ranked_arr = Array.of_list ranked in
    let branch_tasks =
      Array.to_list ranked_arr
      |> List.map (fun (_, (r : Rule.t), site) () ->
             Engine.worker_task ctx (fun wctx ->
                 let wcost = cost_factory wctx in
                 let wst = { nodes = 0; evals = 0 } in
                 let trail = ref [] in
                 let explored =
                   if not (Rule.site_alive wctx site) then None
                   else begin
                     let log = D.new_log () in
                     if Engine.guarded_apply wctx r site log then begin
                       Engine.run_cleanups wctx cleanups log;
                       match Engine.measure_step wctx log with
                       | Engine.Measure_failed -> None
                       | _step ->
                           let c = wcost () in
                           let allowed' =
                             if params.n_hood > 0 then
                               Some
                                 (Engine.neighbourhood wctx site.Rule.site_comps
                                    params.n_hood)
                             else None
                           in
                           let sub_cost, sub_moves =
                             dfs ~params wctx ~cost:wcost ~cleanups rules wst
                               trail 1 ~allowed:allowed' c
                           in
                           Some (c, sub_cost, sub_moves, wst.nodes, wst.evals)
                     end
                     else None
                   end
                 in
                 (explored, !trail)))
    in
    st.nodes <- st.nodes + 1;
    let best = ref (root_cost, []) in
    Array.iteri
      (fun bi outcome ->
        let _, (r : Rule.t), site = ranked_arr.(bi) in
        settle ctx r outcome (function
          | None -> ()
          | Some (c, sub_cost, sub_moves, nodes, evals) ->
              st.nodes <- st.nodes + nodes;
              charge evals;
              let total = Float.min c sub_cost in
              if total < fst !best then
                best :=
                  (total, (r, site) :: (if sub_cost < c then sub_moves else []))))
      (Exec.map exec branch_tasks);
    let best_cost, seq = !best in
    if Milo_trace.Trace.enabled () then begin
      Milo_trace.Trace.count "search.nodes" (st.nodes - nodes0);
      Milo_trace.Trace.count "search.evals" (st.evals - evals0)
    end;
    if best_cost >= root_cost -. 1e-9 || seq = [] then None
    else begin
      (* Execute the first D_app moves of the winning sequence.  Later
         moves assumed the edits of earlier ones, so the first move that
         no longer applies (dead site or failed re-application) aborts
         the rest of the sequence instead of executing it against a
         state it was never evaluated on. *)
      let rec exec_moves k = function
        | [] -> ()
        | ((r : Rule.t), site) :: rest ->
            if k < params.d_app && Rule.site_alive ctx site then begin
              let log = D.new_log () in
              if Engine.guarded_apply ctx r site log then begin
                Engine.run_cleanups ctx cleanups log;
                Engine.measure_keep ctx (Engine.measure_step ctx log);
                D.commit ~label:r.Rule.rule_name ~design:ctx.Rule.design log;
                (match budget with Some b -> Budget.step b | None -> ());
                exec_moves (k + 1) rest
              end
              else D.undo ctx.Rule.design log
            end
      in
      exec_moves 0 seq;
      Some (root_cost -. cost ())
    end
  end

(* Run lookahead steps until no improving sequence remains, the step
   ceiling is reached, or the budget is exhausted. *)
let run ?(params = default_params) ?(max_steps = 200) ?stats ?budget ?exec
    ~cost_factory ctx ~cleanups rules =
  let stop n =
    n >= max_steps
    || match budget with Some b -> Budget.exhausted b | None -> false
  in
  let rec go n total =
    if stop n then total
    else
      match
        step ~params ?stats ?budget ?exec ~cost_factory ctx ~cleanups rules
      with
      | Some gain when gain > 1e-9 -> go (n + 1) (total +. gain)
      | Some _ | None -> total
  in
  go 0 0.0
