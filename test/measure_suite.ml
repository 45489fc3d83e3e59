(* Incremental-measurement equivalence suite — the measurement layer's
   tier-1 gate.

   Drives random rule sequences over mapped designs with a live
   measurer and the differential oracle enabled, exercising every path
   of the apply/measure/undo discipline:

   - [Engine.evaluate] (apply + measure + undo, gain probes);
   - manual [guarded_apply] + cleanups + [measure_step], then a random
     choice of commit+[measure_keep] or undo+[measure_drop];

   and after every committed or undone step cross-checks the running
   totals against a from-scratch [Sta.analyze] + estimate fold, within
   1e-9 relative.  [Measure.set_debug_check true] additionally makes
   the measurer itself raise [Divergence] on any advance/retreat that
   disagrees with a full recompute — the suite requires zero.

   At three points of each case the context is forked the way an
   oracle worker forks it ([Rule.fork_context], which forks the
   measurer): the fork's copied timing must equal a fresh analysis of
   the copied design bit for bit, the fork is driven through random
   steps of its own under the same oracle, and the parent must come
   out of it unchanged.  The random stream is a fixed LCG, so failures
   reproduce exactly. *)

module D = Milo_netlist.Design
module R = Milo_rules.Rule
module Engine = Milo_rules.Engine
module Measure = Milo_measure.Measure
module Sta = Milo_timing.Sta
module Estimate = Milo_estimate.Estimate
module Suite = Milo_designs.Suite
module Flow = Milo.Flow
module Critic = Milo_critic.Critic

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

(* Deterministic pseudo-random stream: reproducible across runs and
   platforms, independent of [Random]'s global state. *)
let lcg = ref 1

let rand n =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  !lcg mod n

let ecl = lazy (Milo_library.Ecl.get ())

let ctx_for design =
  let ecl = Lazy.force ecl in
  R.make_context ecl
    (Milo_compilers.Gate_comp.named_set ~prefix:"E_" ecl)
    design

let rules () = Critic.logic @ Critic.area @ Critic.power
let cleanups () = Critic.cleanup

(* From-scratch reference totals, computed with the measurer's own
   (memoized) macro environment. *)
let full_totals env design =
  let sta = Sta.analyze ~input_arrivals:[] env design in
  {
    Measure.delay = Sta.worst_delay sta;
    area = Estimate.area env design;
    power = Estimate.power env design;
  }

let close got want =
  Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want)

let check_state what m =
  let want = full_totals (Measure.env m) (Measure.design m) in
  let got = Measure.current m in
  if
    not
      (close got.Measure.delay want.Measure.delay
      && close got.Measure.area want.Measure.area
      && close got.Measure.power want.Measure.power)
  then
    fail
      "%s: incremental (%.12g, %.12g, %.12g) <> full (%.12g, %.12g, %.12g)"
      what got.Measure.delay got.Measure.area got.Measure.power
      want.Measure.delay want.Measure.area want.Measure.power

(* One random step: pick a live (rule, site) candidate, then exercise a
   random path of the measurement discipline.  Returns false when the
   design has no candidates left. *)
let step name i ctx m =
  let candidates =
    List.concat_map
      (fun r -> List.map (fun s -> (r, s)) (Engine.guarded_find ctx r))
      (rules ())
  in
  match candidates with
  | [] -> false
  | _ -> (
      let r, site = List.nth candidates (rand (List.length candidates)) in
      let where =
        Printf.sprintf "%s step %d (%s)" name i r.R.rule_name
      in
      match rand 3 with
      | 0 ->
          (* Probe path: apply + measure + undo inside [evaluate]. *)
          let cost () = Engine.weighted () (Measure.current m) in
          ignore
            (Engine.evaluate ctx ~before:(cost ()) ~cost ~quiet:false
               ~cleanups:(cleanups ()) r site);
          check_state (where ^ " after evaluate") m;
          true
      | mode ->
          (* Manual path: apply + cleanups + measure_step, then a random
             keep or drop. *)
          let log = D.new_log () in
          if Engine.guarded_apply ctx r site log then (
            Engine.run_cleanups ctx (cleanups ()) log;
            let mstep = Engine.measure_step ctx log in
            if mode = 1 then (
              Engine.measure_keep ctx mstep;
              D.commit log;
              check_state (where ^ " after commit") m)
            else (
              D.undo ctx.R.design log;
              Engine.measure_drop ctx mstep;
              check_state (where ^ " after undo") m);
            true)
          else (
            D.undo ctx.R.design log;
            check_state (where ^ " after failed apply") m;
            true))

let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)

(* A timing view as bits: the worst delay, every net's arrival and the
   endpoints (sorted by endpoint, since ties may list in any order). *)
let sta_image design sta =
  ( bits (Sta.worst_delay sta),
    List.map
      (fun (n : D.net) -> (n.D.nid, Option.map bits (Sta.net_arrival sta n.D.nid)))
      (D.nets design),
    List.sort compare (List.map (fun (ep, a) -> (ep, bits a)) (Sta.endpoints sta)) )

let fork_steps = 10
let forks = ref 0

(* Fork the measured context as an oracle worker does, check the
   fork's copied timing against a fresh analysis, drive [fork_steps]
   random steps on the fork, and check that the parent did not move. *)
let fork_check name i ctx m =
  let where = Printf.sprintf "%s fork at step %d" name i in
  let totals = Measure.current m and sta = Measure.sta m in
  let worst = Sta.worst_delay sta and endpoints = Sta.endpoints sta in
  let fctx = R.fork_context ctx in
  (match !(fctx.R.measurer) with
  | None -> fail "%s: the fork has no measurer" where
  | Some fm ->
      incr forks;
      let fresh =
        Sta.analyze ~input_arrivals:[] (Measure.env fm) fctx.R.design
      in
      if sta_image fctx.R.design (Measure.sta fm) <> sta_image fctx.R.design fresh
      then fail "%s: the copied timing differs from a fresh analysis" where;
      let j = ref 0 in
      while !j < fork_steps && step where !j fctx fm do
        incr j
      done);
  let now = Measure.current m in
  if
    not
      (same_float totals.Measure.delay now.Measure.delay
      && same_float totals.Measure.area now.Measure.area
      && same_float totals.Measure.power now.Measure.power)
  then fail "%s: the parent's totals moved" where;
  if not (same_float worst (Sta.worst_delay (Measure.sta m))) then
    fail "%s: the parent's worst delay moved" where;
  if
    not
      (List.equal
         (fun (e, a) (e', a') -> e = e' && same_float a a')
         endpoints
         (Sta.endpoints (Measure.sta m)))
  then fail "%s: the parent's endpoints moved" where;
  check_state (where ^ ": parent") m

let drive name design ~steps =
  let ctx = ctx_for design in
  match Measure.create ~input_arrivals:[] (Lazy.force ecl) design with
  | exception e ->
      fail "%s: Measure.create raised %s" name (Printexc.to_string e)
  | m -> (
      ctx.R.measurer := Some m;
      check_state (name ^ " initial") m;
      try
        let fork_at = [ 0; steps / 3; 2 * steps / 3 ] in
        let i = ref 0 in
        while
          !i < steps
          && begin
               if List.mem !i fork_at then fork_check name !i ctx m;
               step name !i ctx m
             end
        do
          incr i
        done;
        let s = Measure.stats m in
        Printf.printf
          "%-24s %3d steps  adv=%d ret=%d commit=%d resync=%d oracle=%d\n"
          name !i s.Measure.advances s.Measure.retreats s.Measure.commits
          s.Measure.resyncs s.Measure.oracle_checks
      with
      | Measure.Divergence msg -> fail "%s: oracle divergence: %s" name msg
      | e -> fail "%s: raised %s" name (Printexc.to_string e))

(* Mapped suite designs: the compiled + conservatively mapped form the
   optimizer actually sees. *)
let mapped_case (c : Suite.case) =
  let mapped, _ = Flow.human_baseline ~technology:Flow.Ecl c.Suite.case_design in
  (c.Suite.case_name, mapped)

let () =
  Measure.set_debug_check true;
  lcg := 20260805;
  (* Random mapped workloads: dense combinational soup, lots of rule
     traffic. *)
  List.iter
    (fun (gates, seed) ->
      let d = Milo_designs.Workload.random_logic ~gates ~seed () in
      let target = Milo_techmap.Table_map.ecl_target () in
      let mapped = Milo_techmap.Table_map.map_design target d in
      drive (Printf.sprintf "workload_g%d_s%d" gates seed) mapped ~steps:40)
    [ (30, 11); (60, 23); (90, 37) ];
  (* Figure 19 suite designs, including the sequential ones. *)
  List.iter
    (fun c ->
      let name, mapped = mapped_case c in
      drive name mapped ~steps:30)
    [ Suite.design1 (); Suite.design4 (); Suite.design7 () ];
  Measure.set_debug_check false;
  Printf.printf "%d forked measurers driven %d steps each\n" !forks fork_steps;
  if !forks = 0 then fail "no measurer was forked";
  if !failures > 0 then (
    Printf.printf "%d failure(s)\n" !failures;
    exit 1)
  else print_endline "measure_suite: all equivalence checks passed"
