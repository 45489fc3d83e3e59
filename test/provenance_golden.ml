(* Golden attribution: the ledger rows, conservation rows, tag counts
   and critical-path blame of design 7's recorded flow (a micro-stage
   commit, unmeasured electric cleanups and measured optimize steps),
   every float printed with [%h] so the comparison against
   provenance_golden.expected is bit-exact.  A change that moves
   attribution on the live and the offline side alike passes
   provenance_suite's one-fold check; it fails here. *)

module P = Milo_provenance.Provenance
module Flow = Milo.Flow
module Suite = Milo_designs.Suite
module Trace = Milo_trace.Trace
module Sta = Milo_timing.Sta

let cost (c : Trace.cost) = Printf.sprintf "%h/%h/%h" c.delay c.area c.power

let () =
  let case = Suite.design7 () in
  let p = P.create () in
  let optimized =
    match
      Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
        ~guard:Milo_guard.Guard.Sampled ~provenance:p case.Suite.case_design
    with
    | Flow.Complete res -> res.Flow.optimized
    | Flow.Partial pp ->
        failwith ("flow degraded at " ^ Flow.stage_name pp.Flow.failed_stage)
  in
  Printf.printf "design %s\n" case.Suite.case_name;
  List.iter
    (fun (r : P.row) ->
      Printf.printf "ledger %s %s applies=%d measured=%d delta=%h/%h/%h\n"
        r.P.row_stage r.P.row_label r.P.row_applies r.P.row_measured
        r.P.row_delay r.P.row_area r.P.row_power)
    (P.ledger p);
  List.iter
    (fun (c : P.conservation) ->
      Printf.printf
        "conservation %s commits=%d measured=%d breaks=%d sum=%s end=%s \
         residual=%s\n"
        c.P.co_stage c.P.co_commits c.P.co_measured c.P.co_breaks
        (cost c.P.co_sum) (cost c.P.co_end) (cost c.P.co_residual))
    (P.conservation p);
  let comps, nets = P.tag_count p in
  Printf.printf "tags comps=%d nets=%d\n" comps nets;
  let env n =
    Milo_library.Technology.find
      (Flow.target_of Flow.Ecl).Milo_techmap.Table_map.tech n
  in
  match
    Sta.critical_path
      (Sta.analyze
         ~input_arrivals:case.Suite.constraints.Milo.Constraints.input_arrivals
         env optimized)
  with
  | None -> print_endline "critical path none"
  | Some path ->
      List.iter
        (fun ((h : Sta.hop), tag) ->
          match tag with
          | Some (tg : P.tag) ->
              Printf.printf "blame comp %d <- %s step %d (%s)\n" h.Sta.comp
                (Option.value tg.P.tag_label ~default:"(unlabeled)")
                tg.P.tag_step tg.P.tag_stage
          | None -> Printf.printf "blame comp %d <- unattributed\n" h.Sta.comp)
        (P.blame p path)
