(* Parallel-runtime determinism suite — the tentpole's tier-1 gate.

   The supervised domain pool must be observably invisible: a flow run
   at [--domains 1] (inline supervised tasks), at [--domains 4] (a
   real forced pool, twice, so scheduling variance gets a chance to
   show), and degraded back to inline by an injected pool-construction
   failure must all produce bit-identical final designs, costs,
   semantic-guard counters, quarantine sets, provenance ledger rows,
   trajectory JSONL (wall-clock fields masked) and traces (the span
   name sequence, each rule's evaluation, apply, refusal and rollback
   counts, and the counters); every journal must replay with zero
   divergences; and the degraded run — only that one — must carry the
   Degraded_to_sequential note.

   Engine state is per run: a rule quarantined through one session is
   not quarantined in another, and two flows on two domains at once
   return exactly what the same two flows return in series — also when
   both journal and record provenance, so both hash designs through the
   shared digest cache.  Two domains reading one design at once get
   the drivers and fanouts a serial pass gets. *)

module D = Milo_netlist.Design
module Flow = Milo.Flow
module Guard = Milo_guard.Guard
module Suite = Milo_designs.Suite
module J = Milo_journal.Journal
module P = Milo_provenance.Provenance
module Trajectory = Milo_provenance.Trajectory
module Trace = Milo_trace.Trace
module Metrics = Milo_trace.Metrics
module Pool = Milo_parallel.Pool
module Rule = Milo_rules.Rule
module Engine = Milo_rules.Engine

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let guard_counters (g : Guard.stats) =
  [
    g.Guard.stage_checks;
    g.Guard.stage_mismatches;
    g.Guard.rule_checks;
    g.Guard.rule_mismatches;
    g.Guard.rule_skipped;
    g.Guard.rule_certified;
  ]

(* Strip one ["name":value] field from a sorted-key JSON object line:
   the trajectory's [budget_elapsed] is wall-clock time, the only
   legitimately non-deterministic byte in the stream. *)
let strip_field name line =
  let key = "\"" ^ name ^ "\":" in
  let n = String.length line and m = String.length key in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = key then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i ->
      let j = ref (i + m) in
      while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      (* consume the separating comma on whichever side has one *)
      if !j < n && line.[!j] = ',' then
        String.sub line 0 i ^ String.sub line (!j + 1) (n - !j - 1)
      else if i > 0 && line.[i - 1] = ',' then
        String.sub line 0 (i - 1) ^ String.sub line !j (n - !j)
      else String.sub line 0 i ^ String.sub line !j (n - !j)

(* What a trace holds that does not depend on the wall clock. *)
type trace = {
  tr_spans : string list;  (** span names, in start order *)
  tr_rules : (string * (int * int * int * int)) list;
      (** per rule, by name: evals, applies, refusals, rollbacks *)
  tr_counters : (string * int) list;
}

let trace_of t =
  {
    tr_spans = List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans t);
    tr_rules =
      List.sort compare
        (List.map
           (fun (name, (s : Trace.rule_stat)) ->
             ( name,
               (s.Trace.evals, s.Trace.applies, s.Trace.refusals, s.Trace.rollbacks)
             ))
           (Trace.rule_stats t));
    tr_counters = Metrics.counters (Trace.metrics t);
  }

type snapshot = {
  sn_design : D.t;
  sn_hash : string;
  sn_stats : Flow.stats;
  sn_guard : int list;
  sn_quarantined : (string * int) list;
  sn_ledger : P.row list;
  sn_traj : string list;
  sn_trace : trace;
  sn_notes : string list;
  sn_journal : string;
}

let snapshot_run ~what ~domains (case : Suite.case) =
  let journal = Filename.temp_file "milo_parallel_suite" ".mjl" in
  let t = Trace.create () in
  let p = P.create () in
  match
    Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
      ~guard:Guard.Sampled ~journal ~trace:t ~provenance:p ~domains
      ~force_domains:true case.Suite.case_design
  with
  | Flow.Complete res ->
      Some
        {
          sn_design = res.Flow.optimized;
          sn_hash = J.design_hash res.Flow.optimized;
          sn_stats = res.Flow.final;
          sn_guard = guard_counters res.Flow.guard_stats;
          sn_quarantined = res.Flow.quarantined;
          sn_ledger = P.ledger p;
          sn_traj =
            List.map (strip_field "budget_elapsed")
              (Trajectory.lines (P.events p));
          sn_trace = trace_of t;
          sn_notes = res.Flow.notes;
          sn_journal = journal;
        }
  | Flow.Partial pr ->
      Sys.remove journal;
      fail "%s: degraded at %s (%s)" what
        (Flow.stage_name pr.Flow.failed_stage)
        pr.Flow.failure.Flow.err_message;
      None
  | exception e ->
      (try Sys.remove journal with Sys_error _ -> ());
      fail "%s: uncaught %s" what (Printexc.to_string e);
      None

(* Every observable surface of [b] must be bit-identical to [a]'s
   (notes excepted — degradation is allowed to differ there and is
   asserted separately). *)
let compare_snapshots what (a : snapshot) (b : snapshot) =
  if not (D.equal_structure a.sn_design b.sn_design) then
    fail "%s: final designs differ structurally" what;
  if a.sn_hash <> b.sn_hash then
    fail "%s: final design hashes differ (%s vs %s)" what a.sn_hash b.sn_hash;
  if a.sn_stats <> b.sn_stats then
    fail "%s: final costs differ (%.6f/%.3f/%.3f vs %.6f/%.3f/%.3f)" what
      a.sn_stats.Flow.delay a.sn_stats.Flow.area a.sn_stats.Flow.power
      b.sn_stats.Flow.delay b.sn_stats.Flow.area b.sn_stats.Flow.power;
  if a.sn_guard <> b.sn_guard then
    fail "%s: guard counters differ ([%s] vs [%s])" what
      (String.concat ";" (List.map string_of_int a.sn_guard))
      (String.concat ";" (List.map string_of_int b.sn_guard));
  if a.sn_quarantined <> b.sn_quarantined then
    fail "%s: quarantine sets differ" what;
  if a.sn_ledger <> b.sn_ledger then fail "%s: ledger rows differ" what;
  if List.length a.sn_traj <> List.length b.sn_traj then
    fail "%s: trajectory lengths differ (%d vs %d)" what
      (List.length a.sn_traj) (List.length b.sn_traj)
  else
    List.iteri
      (fun i (la, lb) ->
        if la <> lb then
          fail "%s: trajectory line %d differs:\n  %s\n  %s" what i la lb)
      (List.combine a.sn_traj b.sn_traj);
  if a.sn_trace.tr_spans <> b.sn_trace.tr_spans then
    fail "%s: span name sequences differ (%d vs %d spans)" what
      (List.length a.sn_trace.tr_spans)
      (List.length b.sn_trace.tr_spans);
  if a.sn_trace.tr_rules <> b.sn_trace.tr_rules then
    fail "%s: per-rule attribution counts differ" what;
  if a.sn_trace.tr_counters <> b.sn_trace.tr_counters then
    fail "%s: trace counters differ" what

let check_replay what (s : snapshot) =
  match Flow.replay s.sn_journal with
  | rep ->
      if not rep.Flow.rep_finished then
        fail "%s: journal does not end in a Finish record" what;
      if rep.Flow.rep_divergences <> [] then
        fail "%s: replay found %d divergence(s)" what
          (List.length rep.Flow.rep_divergences)
  | exception e -> fail "%s: replay raised %s" what (Printexc.to_string e)

let check_case (case : Suite.case) =
  let name = case.Suite.case_name in
  let s1 = snapshot_run ~what:(name ^ " domains=1") ~domains:1 case in
  let s4a = snapshot_run ~what:(name ^ " domains=4 (a)") ~domains:4 case in
  let s4b = snapshot_run ~what:(name ^ " domains=4 (b)") ~domains:4 case in
  Pool.fail_spawn_for_testing := true;
  let sdeg = snapshot_run ~what:(name ^ " degraded") ~domains:4 case in
  Pool.fail_spawn_for_testing := false;
  (match (s1, s4a, s4b, sdeg) with
  | Some s1, Some s4a, Some s4b, Some sdeg ->
      compare_snapshots (name ^ ": domains 1 vs 4") s1 s4a;
      compare_snapshots (name ^ ": domains 4 run a vs run b") s4a s4b;
      compare_snapshots (name ^ ": domains 4 vs degraded") s4a sdeg;
      if s1.sn_notes <> [] then
        fail "%s: inline run carries unexpected notes" name;
      if s4a.sn_notes <> [] || s4b.sn_notes <> [] then
        fail "%s: pooled run carries unexpected notes" name;
      if not (List.mem "Degraded_to_sequential" sdeg.sn_notes) then
        fail "%s: degraded run lost its Degraded_to_sequential note" name;
      check_replay (name ^ " domains=1 replay") s1;
      check_replay (name ^ " domains=4 replay") s4a;
      check_replay (name ^ " degraded replay") sdeg;
      if !failures = 0 then
        Printf.printf
          "ok   %s: 1 == 4 == 4 == degraded (%d spans, %d rules \
           attributed, %d counters, %d trajectory lines, replays clean)\n"
          name
          (List.length s4a.sn_trace.tr_spans)
          (List.length s4a.sn_trace.tr_rules)
          (List.length s4a.sn_trace.tr_counters)
          (List.length s4a.sn_traj)
  | _ -> ());
  List.iter
    (fun s ->
      match s with
      | Some s -> ( try Sys.remove s.sn_journal with Sys_error _ -> ())
      | None -> ())
    [ s1; s4a; s4b; sdeg ]

(* Random logic as flowbench runs it (16 inputs, 8 outputs, seed 7, ECL,
   half the human-baseline delay): its per-level passes answer most
   candidates from the candidate table, which the suite designs hardly
   do, so the identity also covers table hits under a pool. *)
let random_logic_case gates =
  let design =
    Milo_designs.Workload.random_logic ~inputs:16 ~outputs:8 ~gates ~seed:7 ()
  in
  let human = Flow.baseline_stats ~technology:Flow.Ecl design in
  {
    Suite.case_name = Printf.sprintf "random_logic_%d" gates;
    case_design = design;
    constraints = Milo.Constraints.delay (0.5 *. human.Flow.delay);
    paper_complexity = 0;
    paper_delay_impr = 0.0;
    paper_area_impr = 0.0;
  }

(* --- Session isolation --------------------------------------------------- *)

(* Matches every component; every application raises. *)
let raising_rule =
  Rule.make ~name:"isolation-raising" ~cls:Rule.Logic
    ~find:(fun ctx ->
      List.map
        (fun (c : D.comp) -> Rule.site ~comps:[ c.D.id ] "isolation fault")
        (Rule.scan_comps ctx))
    ~apply:(fun _ _ _ -> failwith "isolation fault") ()

let quarantine_is_per_session () =
  let ctx () =
    let lib = Milo_library.Generic.get () in
    Rule.make_context lib
      (Milo_compilers.Gate_comp.generic_set lib)
      (Suite.accumulator ())
  in
  let comps (c : Rule.context) () = float_of_int (D.num_comps c.Rule.design) in
  let a = ctx () and b = ctx () in
  ignore
    (Engine.greedy_pass ~cost:(Engine.Measured comps) a ~cleanups:[]
       [ raising_rule ]);
  if not (Engine.is_quarantined a.Rule.session "isolation-raising") then
    fail "isolation: rule not quarantined in its own session"
  else if Engine.quarantined b.Rule.session <> [] then
    fail "isolation: quarantine leaked into a second session"
  else if Engine.guarded_find b raising_rule = [] then
    fail "isolation: second session refuses a rule it never saw fail"
  else Printf.printf "ok   quarantine is per session\n"

type run_summary = {
  rs_hash : string;
  rs_stats : Flow.stats;
  rs_guard : int list;
  rs_quarantined : (string * int) list;
}

let summary_of res =
  {
    rs_hash = J.design_hash res.Flow.optimized;
    rs_stats = res.Flow.final;
    rs_guard = guard_counters res.Flow.guard_stats;
    rs_quarantined = res.Flow.quarantined;
  }

let summarize (case : Suite.case) =
  match
    Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
      ~guard:Guard.Sampled case.Suite.case_design
  with
  | Flow.Complete res -> Ok (summary_of res)
  | Flow.Partial p -> Error (Flow.stage_name p.Flow.failed_stage)
  | exception e -> Error (Printexc.to_string e)

(* The same flow, journaled to a scratch file and recording provenance:
   its summary, ledger rows and trajectory (wall-clock field masked),
   and the journal's record and delta counts.  Its journal must replay
   clean. *)
let summarize_recorded (case : Suite.case) =
  let journal = Filename.temp_file "milo_parallel_suite" ".mjl" in
  let p = P.create () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      match
        Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
          ~guard:Guard.Sampled ~journal ~provenance:p case.Suite.case_design
      with
      | Flow.Complete res ->
          let rep = Flow.replay journal in
          if rep.Flow.rep_finished && rep.Flow.rep_divergences = [] then
            Ok
              ( summary_of res,
                P.ledger p,
                List.map (strip_field "budget_elapsed")
                  (Trajectory.lines (P.events p)),
                (rep.Flow.rep_records, rep.Flow.rep_deltas) )
          else Error "journal replay diverged"
      | Flow.Partial p -> Error (Flow.stage_name p.Flow.failed_stage)
      | exception e -> Error (Printexc.to_string e))

(* Two flows at once, one per domain, released together, must return
   what the same flows return in series (which run first).  [prepare]
   runs between the two, e.g. to empty the process-wide certificate
   cache so both flows certify and insert into it at the same time. *)
let concurrent_flows_match_serial ~what ?(prepare = ignore) run =
  let a = Suite.design1 () and b = Suite.design4 () in
  let serial = (run a, run b) in
  prepare ();
  let ready = Atomic.make 0 in
  let released case () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    run case
  in
  let da = Domain.spawn (released a) and db = Domain.spawn (released b) in
  let concurrent = (Domain.join da, Domain.join db) in
  match (serial, concurrent) with
  | (Ok sa, Ok sb), (Ok ca, Ok cb) ->
      if sa <> ca || sb <> cb then
        fail "isolation (%s): concurrent flows differ from the same flows in series"
          what
      else
        Printf.printf "ok   two concurrent flows == the same flows in series (%s)\n"
          what
  | _ -> fail "isolation (%s): a flow did not complete" what

(* Two domains query every net of one shared cold design at once, so
   each fills the netlist's pin-direction and driver memos while the
   other may be reading them; both must answer exactly as a serial pass
   over another cold copy does. *)
let concurrent_readers_match_serial () =
  let case = Suite.design7 () in
  let res =
    Flow.run_exn ~technology:Flow.Ecl ~constraints:case.Suite.constraints
      case.Suite.case_design
  in
  let text = Milo_netlist.Writer.to_string res.Flow.optimized in
  let cold () = Milo_netlist.Parser.of_string text in
  let resolve = Milo_library.Technology.resolver (Milo_library.Ecl.get ()) in
  let answers d =
    List.map
      (fun (n : D.net) ->
        (D.driver ~resolve d n.D.nid, D.fanout ~resolve d n.D.nid))
      (D.nets d)
  in
  let serial = answers (cold ()) in
  let rounds = 20 in
  let mismatches = ref 0 in
  for _ = 1 to rounds do
    let shared = cold () in
    let ready = Atomic.make 0 in
    let reader () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      answers shared
    in
    let da = Domain.spawn reader and db = Domain.spawn reader in
    let a = Domain.join da and b = Domain.join db in
    if a <> serial || b <> serial then incr mismatches
  done;
  if !mismatches > 0 then
    fail "concurrent readers: %d of %d rounds differ from a serial pass"
      !mismatches rounds
  else
    Printf.printf
      "ok   two domains reading one cold design == a serial pass (%d nets, \
       %d rounds)\n"
      (List.length serial) rounds

let () =
  Pool.fail_spawn_for_testing := false;
  let cases = List.filteri (fun i _ -> i < 3) (Suite.all ()) in
  List.iter check_case (cases @ [ random_logic_case 300 ]);
  quarantine_is_per_session ();
  concurrent_flows_match_serial ~what:"warm cache" summarize;
  concurrent_flows_match_serial ~what:"cold cache"
    ~prepare:(fun () -> Milo_absint.Certify.(reset_cache shared_cache))
    summarize;
  concurrent_flows_match_serial ~what:"journaled, with provenance"
    summarize_recorded;
  concurrent_readers_match_serial ();
  if !failures > 0 then begin
    Printf.printf "parallel_suite: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "parallel_suite: all clean"
