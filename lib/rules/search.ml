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
module Pool = Milo_parallel.Pool

type params = {
  b : int;
  d_max : int;
  d_app : int;
  n_hood : int;  (* 0 = unrestricted *)
  delta_cost : float;
}

let default_params = { b = 3; d_max = 3; d_app = 1; n_hood = 0; delta_cost = 10.0 }

type stats = { mutable nodes : int; mutable evals : int }

(* Candidate moves at the current state, in (rule index, site ordinal)
   order.  A quarantined rule, or one whose [find] raises (which
   quarantines it), has none. *)
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
        (Engine.guarded_find ctx r))
    rules

(* The search tree from the current state of [ctx], a fork whose cost
   is [root].  Each node evaluates its moves (its own cost is their
   baseline), drops those costing more than Δcost, and explores the
   best B in rank order — a stable sort, so equal gains keep (rule,
   site) order and the first strictly cheaper total wins.  A move whose
   re-application, measurement or cost fails at the node is skipped.
   Returns the cost of the best reachable state with the moves to it,
   the nodes visited, and every evaluation made, oldest first, for the
   coordinator to record; the fork is restored.  Cancellation reaches
   it through [Engine.evaluate]/[Engine.guarded_apply]'s poll points. *)
let search ~params ~cleanups rules ctx cost root =
  let design = ctx.Rule.design in
  let nodes = ref 0 and trail = ref [] in
  let ranked ~allowed ~before =
    moves ctx rules ~allowed
    |> List.filter_map (fun (r, site) ->
           let ev =
             Engine.evaluate ctx ~before ~cost ~quiet:false ~cleanups r site
           in
           trail := (r, ev) :: !trail;
           match ev.Engine.result with
           | Error _ -> None
           | Ok gain when -.gain > params.delta_cost -> None
           | Ok gain -> Some { Engine.rule = r; site; gain })
    |> List.stable_sort (fun (a : Engine.application) b -> compare b.gain a.gain)
    |> List.filteri (fun i _ -> i < params.b)
  in
  let rec node depth ~allowed current =
    incr nodes;
    if depth >= params.d_max then (current, [])
    else
      List.fold_left
        (fun best (app : Engine.application) ->
          let log = D.new_log () in
          if not (Rule.site_alive ctx app.site) then best
          else if not (Engine.guarded_apply ctx app.rule app.site log) then (
            D.undo design log;
            best)
          else begin
            Engine.run_cleanups ctx cleanups log;
            match Engine.measure_step ctx log with
            | Engine.Measure_failed ->
                D.undo design log;
                best
            | step ->
                let best =
                  match cost () with
                  | exception
                      ((Out_of_memory | Stack_overflow | Pool.Cancelled) as e) ->
                      raise e
                  | exception _ -> best
                  | c ->
                      let allowed =
                        match allowed with
                        | None when params.n_hood > 0 ->
                            Some
                              (Engine.neighbourhood ctx app.site.Rule.site_comps
                                 params.n_hood)
                        | _ -> allowed
                      in
                      let sub_cost, sub_moves = node (depth + 1) ~allowed c in
                      let total = Float.min c sub_cost in
                      if total < fst best then
                        (total, app :: (if sub_cost < c then sub_moves else []))
                      else best
                in
                D.undo design log;
                Engine.measure_drop ctx step;
                best
          end)
        (current, [])
        (ranked ~allowed ~before:current)
  in
  let best = node 0 ~allowed:None root in
  (best, !nodes, List.rev !trail)

(* One lookahead step: run the search as one supervised task on a fork
   (a fault ends the step with no gain), record its evaluations and
   charge them, then commit the first D_app moves of the best sequence
   through [Engine.commit_app], as the greedy step commits its winner.
   Later moves assumed the edits of earlier ones, so the first move
   that no longer applies (dead site or refused re-application) aborts
   the rest of the sequence instead of executing it against a state it
   was never evaluated on. *)
let step ?(params = default_params) ?stats ?budget ~cost_factory ctx ~cleanups
    rules =
  if match budget with Some b -> Budget.exhausted b | None -> false then None
  else begin
    let cost = cost_factory ctx in
    let root = cost () in
    let exec =
      Milo_parallel.Exec.inline ?deadline:(Option.bind budget Budget.deadline_time) ()
    in
    let task wctx = search ~params ~cleanups rules wctx (cost_factory wctx) root in
    match (Engine.fan_out ~exec ctx [ (None, task) ]).(0) with
    | None -> None
    | Some ((best, seq), nodes, trail) ->
        List.iter (fun (r, ev) -> Engine.record_eval r ev) trail;
        let evals = List.length trail in
        Option.iter
          (fun st ->
            st.nodes <- st.nodes + nodes;
            st.evals <- st.evals + evals)
          stats;
        Option.iter (fun b -> for _ = 1 to evals do Budget.eval b done) budget;
        if Milo_trace.Trace.enabled () then begin
          Milo_trace.Trace.count "search.nodes" nodes;
          Milo_trace.Trace.count "search.evals" evals
        end;
        if best >= root -. 1e-9 || seq = [] then None
        else begin
          let rec commit k = function
            | (app : Engine.application) :: rest
              when k < params.d_app && Rule.site_alive ctx app.site ->
                if Engine.commit_app ?budget ~near:false ctx ~cleanups app <> None
                then commit (k + 1) rest
            | _ -> ()
          in
          commit 0 seq;
          Some (root -. cost ())
        end
  end

(* Run lookahead steps until no improving sequence remains, the step
   ceiling is reached, or the budget is exhausted. *)
let run ?(params = default_params) ?(max_steps = 200) ?stats ?budget
    ~cost_factory ctx ~cleanups rules =
  let stop n =
    n >= max_steps
    || match budget with Some b -> Budget.exhausted b | None -> false
  in
  let rec go n total =
    if stop n then total
    else
      match step ~params ?stats ?budget ~cost_factory ctx ~cleanups rules with
      | Some gain when gain > 1e-9 -> go (n + 1) (total +. gain)
      | Some _ | None -> total
  in
  go 0 0.0
