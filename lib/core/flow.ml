(* The MILO flow (Figure 11):

     capture -> microarchitecture critic -> logic compilers ->
     technology mapper -> logic optimizer (time / area / power
     optimizers over the five experts) -> optimized design.

   [human_baseline] is the comparison flow for the Figure 19
   experiment: direct compilation and conservative technology mapping
   with no optimization passes. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Database = Milo_compilers.Database
module Compile = Milo_compilers.Compile
module Table_map = Milo_techmap.Table_map
module Guard = Milo_guard.Guard
module J = Milo_journal.Journal
module P = Milo_provenance.Provenance

type technology = Ecl | Cmos

let target_of = function
  | Ecl -> Table_map.ecl_target ()
  | Cmos -> Table_map.cmos_target ()

let technology_name = function Ecl -> "ecl" | Cmos -> "cmos"

let technology_of_string = function
  | "ecl" -> Some Ecl
  | "cmos" -> Some Cmos
  | _ -> None

(* Sequential-kind classifier for the lint passes: the netlist layer
   only knows the micro components, so mapped flip-flop/counter macros
   are looked up in the given technologies.  Instances are opaque — they
   may hide registers — so they conservatively break combinational
   paths. *)
let seq_classifier techs (kind : T.kind) =
  match kind with
  | T.Instance _ -> true
  | T.Macro m ->
      let rec go = function
        | [] -> false
        | tech :: rest -> (
            match Milo_library.Technology.find_opt tech m with
            | Some mac -> Milo_library.Macro.is_sequential mac
            | None -> go rest)
      in
      go techs
  | k -> T.is_sequential_kind k

type stats = {
  delay : float;
  area : float;
  power : float;
  gates : int;
  comps : int;
}

let stats_of ?(input_arrivals = []) target design =
  let env name = Milo_library.Technology.find target.Table_map.tech name in
  let sta = Milo_timing.Sta.analyze ~input_arrivals env design in
  {
    delay = Milo_timing.Sta.worst_delay sta;
    area = Milo_estimate.Estimate.area env design;
    power = Milo_estimate.Estimate.power env design;
    gates =
      Milo_netlist.Stats.two_input_equiv
        ~macro_gates:(fun m -> (env m).Milo_library.Macro.gates)
        design;
    comps = D.num_comps design;
  }

(* --- Resilience layer ------------------------------------------------- *)

(* The flow snapshots the design after every stage; a failure anywhere
   past capture degrades to a [Partial] outcome carrying the last good
   checkpoint and a structured error, instead of losing all
   intermediate work to an escaping exception (the Section 6 feedback
   loop assumes a failed constraint still returns a usable design). *)

type stage = Capture | Micro | Compile | Techmap | Optimize

let stage_name = function
  | Capture -> "capture"
  | Micro -> "micro"
  | Compile -> "compile"
  | Techmap -> "techmap"
  | Optimize -> "optimize"

let stage_of_string = function
  | "capture" -> Some Capture
  | "micro" -> Some Micro
  | "compile" -> Some Compile
  | "techmap" -> Some Techmap
  | "optimize" -> Some Optimize
  | _ -> None

type checkpoint = { ck_stage : stage; ck_design : D.t }

type error = {
  err_stage : stage;  (** stage that was running when the flow failed *)
  err_exn : exn;  (** the original exception *)
  err_message : string;  (** structured rendering (object names kept) *)
}

(* Stage hooks: observation/injection points for instrumentation and
   the fault harness.  [before_stage] runs before the stage's work on
   the design about to be transformed; raising from it fails that
   stage.  [on_checkpoint] sees every snapshot as it is taken. *)
type hooks = {
  before_stage : stage -> D.t -> unit;
  on_checkpoint : checkpoint -> unit;
}

let no_hooks =
  { before_stage = (fun _ _ -> ()); on_checkpoint = (fun _ -> ()) }

type result = {
  micro_design : D.t;  (** after the microarchitecture critic *)
  micro_applications : (string * string) list;  (** rule, site description *)
  optimized : D.t;  (** final technology-specific design *)
  final : stats;
  optimizer_report : Milo_optimizer.Logic_optimizer.report;
  database : Database.t;
  lint_findings : (string * Milo_lint.Diagnostic.t list) list;
      (** per-stage lint diagnostics (empty when linting is [Off]) *)
  checkpoints : checkpoint list;  (** per-stage snapshots, in flow order *)
  quarantined : (string * int) list;
      (** rules quarantined during the run, with trapped-failure counts *)
  quarantine_errors : (string * string) list;
      (** first trapped exception message per quarantined rule *)
  quarantine_reasons : (string * Milo_rules.Engine.reason) list;
      (** why each quarantined rule was trapped: [Raised] or
          [Miscompiled] *)
  guard_stats : Guard.stats;
      (** semantic-guard counters (all zero when the guard was [Off]) *)
  budget : Milo_rules.Budget.status;
  run_trace : Milo_trace.Trace.t option;
      (** the tracer passed to [run ?trace], flushed — queryable for
          spans, metrics and the profile *)
  certificates : Milo_absint.Certify.certificate list;
      (** static rule certificates established for the run (empty when
          the guard was [Off] or [certify] was [false]) *)
  analysis : Milo_absint.Absint.summary option;
      (** abstract-interpretation facts over the optimized design
          ([None] when linting was [Off]) *)
  notes : string list;
      (** structured run annotations, e.g. ["Degraded_to_sequential"]
          when a requested domain pool could not be constructed *)
}

type partial = {
  failed_stage : stage;
  failure : error;
  last_good : checkpoint;  (** most recent snapshot before the failure *)
  partial_checkpoints : checkpoint list;  (** in flow order *)
  partial_micro_applications : (string * string) list;
  partial_lint_findings : (string * Milo_lint.Diagnostic.t list) list;
  partial_database : Database.t;
  partial_quarantined : (string * int) list;
  partial_quarantine_errors : (string * string) list;
  partial_quarantine_reasons : (string * Milo_rules.Engine.reason) list;
  partial_guard_stats : Guard.stats;
  partial_budget : Milo_rules.Budget.status;
  partial_trace : Milo_trace.Trace.t option;
  partial_notes : string list;
}

type outcome = Complete of result | Partial of partial

(* Structured rendering keeping the object names typed errors carry. *)
let describe_error e =
  match e with
  | Table_map.Unmappable u ->
      "unmappable: " ^ Table_map.unmappable_to_string u
  | D.Error de -> D.error_to_string de
  | Milo_lint.Lint.Lint_error r ->
      "lint: " ^ Milo_lint.Lint.report_summary r
  | Milo_rules.Engine.Lint_violation (rule, _) ->
      Printf.sprintf "lint violation after rule %s" rule
  | Guard.Miscompile { guard_stage; divergence } ->
      Printf.sprintf "miscompile after %s: %s" guard_stage
        (Guard.describe divergence)
  | e -> Printexc.to_string e

(* --- Microarchitecture critic pass ----------------------------------- *)

(* Cost of a microarchitecture design: compile it down, map it, measure
   (Section 6.3's statistics feedback). *)
let micro_cost db lib target constraints design () =
  let stats =
    Milo_critic.Micro_critic.evaluate_design
      ~input_arrivals:constraints.Constraints.input_arrivals db lib target
      design
  in
  let penalty =
    match constraints.Constraints.required_delay with
    | Some r when stats.Milo_critic.Micro_critic.stat_delay > r ->
        1000.0 *. (stats.Milo_critic.Micro_critic.stat_delay -. r)
    | Some _ | None -> 0.0
  in
  stats.Milo_critic.Micro_critic.stat_area
  +. (0.05 *. stats.Milo_critic.Micro_critic.stat_power)
  +. penalty

let micro_pass ?(max_steps = 16) ?budget ?deadline ~session db lib target
    constraints design =
  let ctx =
    R.make_context ~session ~extra_resolve:(Database.resolver db [ lib ]) lib
      (Milo_compilers.Gate_comp.generic_set lib)
      design
  in
  let apps =
    (* Inline even under a pool: measuring a candidate compiles it,
       which registers sub-designs into the shared [db]. *)
    Milo_rules.Engine.greedy_pass ~max_steps ?budget
      ~exec:(Milo_parallel.Exec.inline ?deadline ())
      ~cost:
        (Milo_rules.Engine.Measured
           (fun wctx -> micro_cost db lib target constraints wctx.R.design))
      ctx ~cleanups:[] Milo_critic.Critic.micro
  in
  List.map
    (fun (a : Milo_rules.Engine.application) ->
      (a.Milo_rules.Engine.rule.R.rule_name, a.Milo_rules.Engine.site.R.descr))
    apps

(* --- Journal integration ---------------------------------------------- *)

exception Journal_error = J.Journal_error

let stage_index = function
  | Capture -> 0
  | Micro -> 1
  | Compile -> 2
  | Techmap -> 3
  | Optimize -> 4

(* Where a resumed run re-enters: the last committed checkpoint record
   (its stage, counters and report fragments), the latest snapshot per
   stage, and the committed prefix — the recovered records up to and
   including that checkpoint, which the resumed run's journal keeps. *)
type resume_point = {
  rp_stage : stage;
  rp_last : J.checkpoint;
  rp_designs : (stage * D.t) list;
  rp_prefix : J.record list;
}

let timing_to_journal (o : Milo_optimizer.Time_opt.outcome) =
  {
    J.t_met = o.Milo_optimizer.Time_opt.met;
    t_final = o.Milo_optimizer.Time_opt.final_delay;
    t_steps =
      List.map
        (fun (s : Milo_optimizer.Time_opt.step) ->
          ( s.Milo_optimizer.Time_opt.step_strategy,
            s.Milo_optimizer.Time_opt.step_detail,
            s.Milo_optimizer.Time_opt.delay_before,
            s.Milo_optimizer.Time_opt.delay_after ))
        o.Milo_optimizer.Time_opt.steps;
  }

let timing_of_journal (t : J.timing) =
  {
    Milo_optimizer.Time_opt.met = t.J.t_met;
    final_delay = t.J.t_final;
    steps =
      List.map
        (fun (strat, detail, before, after) ->
          {
            Milo_optimizer.Time_opt.step_strategy = strat;
            step_detail = detail;
            delay_before = before;
            delay_after = after;
          })
        t.J.t_steps;
  }

let levels_to_journal entries =
  List.map
    (fun (e : Milo_optimizer.Logic_optimizer.report_entry) ->
      ( e.Milo_optimizer.Logic_optimizer.level_design,
        e.Milo_optimizer.Logic_optimizer.applications,
        e.Milo_optimizer.Logic_optimizer.area_before,
        e.Milo_optimizer.Logic_optimizer.area_after ))
    entries

let levels_of_journal levels =
  List.map
    (fun (name, apps, before, after) ->
      {
        Milo_optimizer.Logic_optimizer.level_design = name;
        applications = apps;
        area_before = before;
        area_after = after;
      })
    levels

let reason_of_name = function
  | "miscompiled" -> Milo_rules.Engine.Miscompiled
  | _ -> Milo_rules.Engine.Raised

(* --- Full MILO flow --------------------------------------------------- *)

let run_impl ~technology ~constraints ~lint ~budget ~hooks ~trace ~guard
    ~certify ~journal ~journal_fault ~provenance ~domains ~force_domains ~resume
    design =
  (* Install the tracer (if any) as the ambient one for the whole run,
     so every layer's probes report into it; restored on exit. *)
  (match trace with
  | None -> (fun f -> f ())
  | Some t -> Milo_trace.Trace.with_tracer t)
  @@ fun () ->
  let budget =
    match budget with Some b -> b | None -> Milo_rules.Budget.unlimited ()
  in
  (* The engine session of this run: quarantine, rule guard and
     certificates, handed to every context the flow builds. *)
  let session = R.new_session () in
  (* Semantic guard: one stats record shared between the engine's
     rule-level cone checks (armed on the session) and the stage-level
     equivalence checks below. *)
  let gstats = Guard.fresh_stats () in
  Milo_rules.Engine.set_rule_guard session ~budget ~stats:gstats guard;
  (* A stage at or before the resume point committed before the kill:
     it adopts its snapshot, and nothing of it is checked or recorded
     again. *)
  let committed s =
    match resume with
    | Some rp -> stage_index rp.rp_stage >= stage_index s
    | None -> false
  in
  let restored s =
    match resume with
    | Some rp when committed s -> Some (D.copy (List.assoc s rp.rp_designs))
    | Some _ | None -> None
  in
  let required =
    Option.value ~default:infinity constraints.Constraints.required_delay
  in
  let input_arrivals = constraints.Constraints.input_arrivals in
  (* The run's record stream: each record is built once and handed to
     the journal writer (durable) and the provenance recorder (in
     memory).  A resumed run continues the interrupted run's stream:
     the recorder observes the committed prefix first, and the writer
     starts from it — created after recovery has already read the
     previous image, so replacing the file here is safe. *)
  let prefix = match resume with Some rp -> rp.rp_prefix | None -> [] in
  Option.iter (fun p -> List.iter (P.observe p) prefix) provenance;
  let jw =
    Option.map (fun path -> J.create ?fault:journal_fault ~prefix path) journal
  in
  (* Parallel runtime: the fan-out sites run as supervised tasks —
     pooled across [domains] domains when a pool comes up, inline on
     this domain otherwise.  Inline and pooled merge identically, so
     the degraded run is bit-identical to the parallel one; the
     degradation is still recorded so operators can see the speedup was
     lost.  The pool comes up after the journal writer, and however the
     run ends from here on, [release] shuts the one and closes the
     other; it writes nothing, so a kill leaves the journal exactly as
     it found it. *)
  let run_notes = ref [] in
  let deadline = Milo_rules.Budget.deadline_time budget in
  let pool, exec =
    if domains <= 1 then (None, Milo_parallel.Exec.inline ?deadline ())
    else
      match
        Milo_parallel.Pool.create ~force:force_domains ~domains ()
      with
      | Some p -> (Some p, Milo_parallel.Exec.pooled ?deadline p)
      | None ->
          run_notes := "Degraded_to_sequential" :: !run_notes;
          (None, Milo_parallel.Exec.inline ?deadline ())
  in
  let shutdown_pool () =
    match pool with Some p -> Milo_parallel.Pool.shutdown p | None -> ()
  in
  let tracked = ref None in
  let untrack () =
    (match !tracked with Some d -> D.set_commit_hook d None | None -> ());
    tracked := None
  in
  let release () =
    untrack ();
    shutdown_pool ();
    match jw with Some w -> ( try J.close w with Sys_error _ -> ()) | None -> ()
  in
  Fun.protect ~finally:release @@ fun () ->
  let recorded = Option.is_some jw || Option.is_some provenance in
  let emit r =
    (match (jw, r) with
    | Some w, (J.Checkpoint _ | J.Finish _) -> J.commit w r
    | Some w, (J.Header _ | J.Stage _ | J.Delta _) -> J.append w r
    | None, _ -> ());
    match provenance with Some p -> P.observe p r | None -> ()
  in
  (* The header carries everything [resume] needs to re-issue this
     call. *)
  if recorded && not (committed Capture) then begin
    let timeout, max_steps, max_evals = Milo_rules.Budget.limits budget in
    emit
      (J.Header
         {
           J.h_design = D.name design;
           h_hash = J.design_hash design;
           h_tech = technology_name technology;
           h_required = required;
           h_arrivals = input_arrivals;
           h_lint = Milo_lint.Lint.level_name lint;
           h_guard = Guard.policy_name guard;
           h_certify = certify;
           h_timeout = timeout;
           h_max_steps = max_steps;
           h_max_evals = max_evals;
           h_domains = domains;
         })
  end;
  let budget_used () =
    let st = Milo_rules.Budget.status budget in
    ( st.Milo_rules.Budget.steps_used,
      st.Milo_rules.Budget.evals_used,
      st.Milo_rules.Budget.elapsed )
  in
  let micro_applications = ref [] in
  let levels_ref = ref [] in
  let timing_ref = ref None in
  Milo_trace.Trace.open_span ("flow:" ^ D.name design);
  Milo_trace.Trace.open_span ("stage:" ^ stage_name Capture);
  let db = Database.create () in
  let lib, target =
    Milo_trace.Trace.with_span "library" (fun () ->
        (Milo_library.Generic.get (), target_of technology))
  in
  (* Stage invariants: lint after the micro critic, after compilation,
     after technology mapping and after the optimizer.  Generic stages
     resolve against the design database and the generic library; mapped
     stages against the target technology too. *)
  let findings = ref [] in
  let lint_stage ~techs stage d =
    if lint <> Milo_lint.Lint.Off then
      Milo_trace.Trace.with_span ("lint:" ^ stage) (fun () ->
          let diags =
            Milo_lint.Lint.check_stage
              ~resolve:(Database.resolver db techs)
              ~is_sequential:(seq_classifier techs) ~level:lint ~stage d
          in
          if diags <> [] then findings := (stage, diags) :: !findings)
  in
  let generic = [ lib ] in
  let mapped = [ target.Table_map.tech; lib ] in
  (* Checkpointing: a deep copy after every completed stage, so any
     later failure degrades to the last good design.  A committed
     stage's checkpoint is already in the journal. *)
  let checkpoints = ref [] in
  let checkpoint stage d =
    (* The hook runs once the checkpoint's span has closed, so an
       observer that opens or closes spans from it sees the stage's. *)
    let ck =
      Milo_trace.Trace.with_span ("checkpoint:" ^ stage_name stage) @@ fun () ->
      let ck = { ck_stage = stage; ck_design = D.copy d } in
      checkpoints := ck :: !checkpoints;
      (* The snapshot plus every counter a resume must re-arm; the
         journal commits it with the tmp+rename discipline, so the file
         always holds a whole checkpoint or none of it. *)
      if recorded && not (committed stage) then begin
        let steps, evals, elapsed = budget_used () in
        let tick, seen =
          match Milo_rules.Engine.guard_sample_state session with
          | Some s -> s
          | None -> (0, [])
        in
        emit
          (J.Checkpoint
             {
               J.ck_stage = stage_name stage;
               ck_steps = steps;
               ck_evals = evals;
               ck_elapsed = elapsed;
               ck_guard =
                 [|
                   gstats.Guard.stage_checks;
                   gstats.Guard.stage_mismatches;
                   gstats.Guard.rule_checks;
                   gstats.Guard.rule_mismatches;
                   gstats.Guard.rule_skipped;
                   gstats.Guard.rule_certified;
                 |];
               ck_tick = tick;
               ck_seen = seen;
               ck_quarantine =
                 List.map
                   (fun (r, c, m, reason) ->
                     (r, c, m, Milo_rules.Engine.reason_name reason))
                   (Milo_rules.Engine.quarantine_dump session);
               ck_micro = !micro_applications;
               ck_levels = levels_to_journal !levels_ref;
               ck_timing = Option.map timing_to_journal !timing_ref;
               ck_design = ck.ck_design;
             })
      end;
      ck
    in
    hooks.on_checkpoint ck
  in
  (* A resumed run re-arms from its last checkpoint record, the inverse
     of the one built above, so its counters, sampler, quarantine and
     report fragments continue exactly where the interrupted run's
     stopped. *)
  (match resume with
  | None -> ()
  | Some { rp_last = ck; _ } ->
      let counter i =
        if i < Array.length ck.J.ck_guard then ck.J.ck_guard.(i) else 0
      in
      gstats.Guard.stage_checks <- counter 0;
      gstats.Guard.stage_mismatches <- counter 1;
      gstats.Guard.rule_checks <- counter 2;
      gstats.Guard.rule_mismatches <- counter 3;
      gstats.Guard.rule_skipped <- counter 4;
      gstats.Guard.rule_certified <- counter 5;
      Milo_rules.Engine.restore_guard_sample_state session ck.J.ck_tick
        ck.J.ck_seen;
      Milo_rules.Engine.quarantine_restore session
        (List.map
           (fun (r, c, m, reason) -> (r, c, m, reason_of_name reason))
           ck.J.ck_quarantine);
      micro_applications := ck.J.ck_micro;
      levels_ref := levels_of_journal ck.J.ck_levels;
      timing_ref := Option.map timing_of_journal ck.J.ck_timing);
  (* Stage guards: before a stage's checkpoint is taken, its output is
     equivalence-checked against the previous stage's (known-good)
     checkpoint.  A mismatch raises [Guard.Miscompile] — degrading the
     run to [Partial] with a shrunk counterexample — instead of letting
     a functionally wrong design flow on.  The (reference, candidate)
     pair is built only when the guard is armed, inside its span, so
     flattening a reference is charged to the guard. *)
  let ck_design stage =
    (List.find (fun c -> c.ck_stage = stage) !checkpoints).ck_design
  in
  let guard_params =
    if guard = Guard.Full then Guard.full_params else Guard.sampled_params
  in
  let stage_guard label ~techs designs =
    if guard <> Guard.Off then
      Milo_trace.Trace.with_span ("guard:" ^ label) (fun () ->
          let ref_d, cand_d = designs () in
          gstats.Guard.stage_checks <- gstats.Guard.stage_checks + 1;
          let env = Milo_sim.Simulator.env_of_techs techs in
          match
            Guard.check ~params:guard_params ~is_seq:(seq_classifier techs) env
              ref_d env cand_d
          with
          | None -> ()
          | Some divergence ->
              gstats.Guard.stage_mismatches <- gstats.Guard.stage_mismatches + 1;
              raise (Guard.Miscompile { guard_stage = label; divergence }))
  in
  let current = ref Capture in
  let enter stage d =
    (* One span per stage: close the previous stage's span (which
       force-closes anything a fault left open below it) and open the
       next.  The terminal flush closes the last one. *)
    if Milo_trace.Trace.enabled () then begin
      Milo_trace.Trace.close_span ("stage:" ^ stage_name !current);
      Milo_trace.Trace.open_span ("stage:" ^ stage_name stage)
    end;
    current := stage;
    if not (committed stage) then emit (J.Stage (stage_name stage));
    hooks.before_stage stage d
  in
  (* Delta tracking: the design the current stage transforms in place
     gets a commit hook, so every committed change-log batch (rule and
     strategy applications, electric cleanups) becomes a delta record
     as it lands, with the committer's attribution, the budget used and
     the post-commit design hash and shape.  Scratch copies (lookahead,
     worker forks, the critic's inner evaluations) have no hook and
     stay silent. *)
  let track d =
    if recorded then begin
      untrack ();
      tracked := Some d;
      D.set_commit_hook d
        (Some
           (fun label attr entries ->
             emit
               (J.Delta
                  {
                    d_stage = stage_name !current;
                    d_label = label;
                    d_hash = Some (J.design_hash d);
                    d_entries = entries;
                    d_attr = attr;
                    d_budget = Some (budget_used ());
                    d_shape = Some (D.num_comps d, D.num_nets d);
                  })))
    end
  in
  (* Static rule certification (the [lib/absint] replacement for
     per-application re-simulation): rules whose LHS≡RHS is proved once
     over the certification corpus are registered with the engine, whose
     rule guard then skips the dynamic cone check for them.  The proof
     is per (rule, technology) — independent of the user design — and
     cached across runs, so the cost amortizes to nothing. *)
  let certificates = ref [] in
  if guard <> Guard.Off && certify then begin
    certificates :=
      Milo_trace.Trace.with_span "certify" (fun () ->
          Milo_absint.Certify.certify_rules target
            Milo_critic.Critic.all_logic_level);
    Milo_rules.Engine.set_certified session
      (Milo_absint.Certify.certified_names !certificates)
  end;
  checkpoint Capture design;
  (* One path per stage: a committed stage adopts its snapshot, any
     other does its work, and only that work is linted, stage-guarded
     and recorded. *)
  match
    let micro_design =
      match restored Micro with Some d -> d | None -> D.copy design
    in
    enter Micro micro_design;
    track micro_design;
    if not (committed Micro) then begin
      micro_applications :=
        micro_pass ~budget ?deadline ~session db lib target constraints
          micro_design;
      lint_stage ~techs:generic "micro-critic" micro_design
    end;
    checkpoint Micro micro_design;
    (* Compilation always runs: it is deterministic from the micro
       design, and the database it fills cannot be journaled. *)
    enter Compile micro_design;
    let expanded = Compile.expand_design db lib micro_design in
    if not (committed Compile) then begin
      lint_stage ~techs:generic "compile" expanded;
      if lint <> Milo_lint.Lint.Off then
        List.iter
          (fun name ->
            lint_stage ~techs:generic ("compile:" ^ name)
              (Database.get db name))
          (Database.names db);
      (* The compile check flattens (a copy), so a flattening bug is also
         caught here rather than shipped into mapping. *)
      stage_guard "compile" ~techs:generic (fun () ->
          (ck_design Micro, Database.flatten db expanded))
    end;
    checkpoint Compile expanded;
    enter Techmap expanded;
    let mapped_design =
      match restored Techmap with
      | Some d -> d
      | None ->
          let d, levels =
            Milo_optimizer.Logic_optimizer.map_levels ~exec ~session ~budget db
              target expanded
          in
          levels_ref := levels;
          lint_stage ~techs:mapped "techmap" d;
          stage_guard "techmap" ~techs:mapped (fun () ->
              (Database.flatten db (ck_design Compile), d));
          d
    in
    checkpoint Techmap mapped_design;
    let optimized = Option.value (restored Optimize) ~default:mapped_design in
    enter Optimize optimized;
    track optimized;
    if not (committed Optimize) then begin
      timing_ref :=
        Milo_optimizer.Logic_optimizer.flat_passes ~exec ~session ~required
          ~input_arrivals ~budget target optimized;
      lint_stage ~techs:mapped "optimized" optimized;
      stage_guard "optimize" ~techs:mapped (fun () ->
          (ck_design Techmap, optimized))
    end;
    checkpoint Optimize optimized;
    (* Analysis stage: abstract-interpretation facts over the final
       design, from the kernel memo the optimizer's absint rules left
       in the session.  The fact-driven lint passes report through the
       same findings channel as the structural ones. *)
    let analysis =
      if lint = Milo_lint.Lint.Off then None
      else
        Milo_trace.Trace.with_span "lint:analysis" @@ fun () ->
        let st =
          Milo_absint.Absint.analyze
            ?memo:(Milo_critic.Absint_rules.memo session target.Table_map.tech)
            ~resolve:(Database.resolver db mapped)
            (Milo_absint.Absint.env_of_techs mapped)
            optimized
        in
        let diags = Milo_absint.Lint_facts.all st in
        if diags <> [] then findings := ("analysis", diags) :: !findings;
        Some (Milo_absint.Absint.summary st)
    in
    let final = stats_of ~input_arrivals target optimized in
    let optimizer_report =
      {
        Milo_optimizer.Logic_optimizer.entries = !levels_ref;
        timing = !timing_ref;
      }
    in
    (micro_design, optimized, final, optimizer_report, analysis)
  with
  | micro_design, optimized, final, optimizer_report, analysis ->
      (* Flush closes the open stage/root spans and runs the sinks, so
         the trace is complete before the caller sees the result. *)
      untrack ();
      shutdown_pool ();
      emit
        (J.Finish
           {
             f_outcome = "complete";
             f_delay = final.delay;
             f_area = final.area;
             f_power = final.power;
             f_gates = final.gates;
             f_comps = final.comps;
           });
      Option.iter J.close jw;
      (match trace with Some t -> Milo_trace.Trace.flush t | None -> ());
      Complete
        {
          micro_design;
          micro_applications = !micro_applications;
          optimized;
          final;
          optimizer_report;
          database = db;
          lint_findings = List.rev !findings;
          checkpoints = List.rev !checkpoints;
          quarantined = Milo_rules.Engine.quarantined session;
          quarantine_errors = Milo_rules.Engine.quarantined_errors session;
          quarantine_reasons = Milo_rules.Engine.quarantined_reasons session;
          guard_stats = gstats;
          budget = Milo_rules.Budget.status budget;
          run_trace = trace;
          certificates = !certificates;
          analysis;
          notes = List.rev !run_notes;
        }
  | exception ((Out_of_memory | Stack_overflow | J.Crash _) as e) ->
      (* A simulated kill from the fault harness ends the run where it
         stands: no Finish record, no Partial degradation. *)
      raise e
  | exception e ->
      (* A faulted run still flushes: open spans are force-closed and
         streaming sinks see a well-formed trace up to the failure. *)
      untrack ();
      shutdown_pool ();
      (try
         emit
           (J.Finish
              {
                f_outcome = "partial";
                f_delay = 0.0;
                f_area = 0.0;
                f_power = 0.0;
                f_gates = 0;
                f_comps = 0;
              });
         Option.iter J.close jw
       with Sys_error _ -> ());
      (match trace with Some t -> Milo_trace.Trace.flush t | None -> ());
      Partial
        {
          failed_stage = !current;
          failure =
            { err_stage = !current; err_exn = e; err_message = describe_error e };
          last_good = List.hd !checkpoints;
          partial_checkpoints = List.rev !checkpoints;
          partial_micro_applications = !micro_applications;
          partial_lint_findings = List.rev !findings;
          partial_database = db;
          partial_quarantined = Milo_rules.Engine.quarantined session;
          partial_quarantine_errors =
            Milo_rules.Engine.quarantined_errors session;
          partial_quarantine_reasons =
            Milo_rules.Engine.quarantined_reasons session;
          partial_guard_stats = gstats;
          partial_budget = Milo_rules.Budget.status budget;
          partial_trace = trace;
          partial_notes = List.rev !run_notes;
        }

let run ?(technology = Ecl) ?(constraints = Constraints.none)
    ?(lint = Milo_lint.Lint.Off) ?budget ?(hooks = no_hooks) ?trace
    ?(guard = Guard.Off) ?(certify = true) ?journal ?journal_fault ?provenance
    ?(domains = 1) ?(force_domains = false) design =
  run_impl ~technology ~constraints ~lint ~budget ~hooks ~trace ~guard ~certify
    ~journal ~journal_fault ~provenance ~domains ~force_domains ~resume:None
    design

let run_exn ?technology ?constraints ?lint ?budget ?hooks ?trace ?guard
    ?certify ?journal ?provenance ?domains ?force_domains design =
  match
    run ?technology ?constraints ?lint ?budget ?hooks ?trace ?guard ?certify
      ?journal ?provenance ?domains ?force_domains design
  with
  | Complete r -> r
  | Partial p -> raise p.failure.err_exn

(* --- Resume ------------------------------------------------------------ *)

(* Read one of the header's names, refusing one this build does not
   know. *)
let parse what of_string s =
  match of_string s with
  | Some v -> v
  | None -> raise (Journal_error ("unknown " ^ what ^ " " ^ s))

(* The preamble [resume] and [replay] share: the recovered journal, its
   run header and the technology the header names. *)
let recover_run path =
  let rc = J.recover path in
  let header =
    match J.header rc with
    | Some h -> h
    | None -> raise (Journal_error "no run header survived recovery")
  in
  (rc, header, parse "technology" technology_of_string header.J.h_tech)

let resume ?(hooks = no_hooks) ?trace ?provenance ?(force_domains = false)
    path =
  let rc, header, technology = recover_run path in
  (* The committed prefix: every record up to and including the last
     checkpoint.  The resumed run keeps it; what followed is re-run, and
     so recorded again. *)
  let rec committed_prefix = function
    | J.Checkpoint ck :: _ as rs -> (ck, List.rev rs)
    | _ :: rs -> committed_prefix rs
    | [] -> raise (Journal_error "no committed checkpoint survived recovery")
  in
  let last, prefix = committed_prefix (List.rev rc.J.r_records) in
  let lint =
    parse "lint level" Milo_lint.Lint.level_of_string header.J.h_lint
  in
  let guard = parse "guard policy" Guard.policy_of_string header.J.h_guard in
  let rp_stage = parse "stage" stage_of_string last.J.ck_stage in
  let constraints =
    {
      Constraints.required_delay =
        (if header.J.h_required = infinity then None
         else Some header.J.h_required);
      max_area = None;
      max_power = None;
      input_arrivals = header.J.h_arrivals;
    }
  in
  (* Latest snapshot per stage wins — each run writes each stage once,
     so this is belt and braces against hand-edited journals. *)
  let designs =
    List.fold_left
      (fun acc (ck : J.checkpoint) ->
        match stage_of_string ck.J.ck_stage with
        | Some s -> (s, ck.J.ck_design) :: List.remove_assoc s acc
        | None -> acc)
      [] (J.checkpoints rc)
  in
  (* Every committed stage adopts its snapshot, except compilation,
     which always re-runs. *)
  List.iter
    (fun s ->
      if stage_index s <= stage_index rp_stage && not (List.mem_assoc s designs)
      then
        raise
          (Journal_error ("journal lacks the " ^ stage_name s ^ " checkpoint")))
    [ Capture; Micro; Techmap; Optimize ];
  (* Budgets are re-armed with the remainder: original limits, counters
     pre-charged, wall clock back-dated by the recorded elapsed time. *)
  let budget =
    Milo_rules.Budget.resume ?timeout:header.J.h_timeout
      ?max_steps:header.J.h_max_steps ?max_evals:header.J.h_max_evals
      ~steps:last.J.ck_steps ~evals:last.J.ck_evals ~elapsed:last.J.ck_elapsed
      ()
  in
  (* The recorded domain count is re-entered exactly: a run journaled
     at [--domains n] resumes under the same supervised-task semantics,
     so the merged trajectory continues bit-identically (degrading to
     inline if the pool no longer comes up changes nothing
     observable). *)
  run_impl ~technology ~constraints ~lint ~budget:(Some budget) ~hooks ~trace
    ~guard ~certify:header.J.h_certify ~journal:(Some path) ~journal_fault:None
    ~provenance ~domains:header.J.h_domains ~force_domains
    ~resume:
      (Some
         {
           rp_stage;
           rp_last = last;
           rp_designs = designs;
           rp_prefix = prefix;
         })
    (D.copy (List.assoc Capture designs))

(* --- Replay ------------------------------------------------------------ *)

type divergence = {
  div_record : int;  (** record index in the journal *)
  div_stage : string;
  div_label : string option;  (** rule/strategy of the diverging delta *)
  div_kind : string;  (** ["redo"], ["state"], ["guard"], ["checkpoint"] or ["final"] *)
  div_detail : string;
}

type replay_report = {
  rep_path : string;
  rep_records : int;
  rep_truncated_bytes : int;
  rep_deltas : int;  (** recorded rule applications re-executed *)
  rep_checks : int;  (** full-guard equivalence checks performed *)
  rep_finished : bool;
  rep_divergences : divergence list;
}

let replay path =
  let rc, header, technology = recover_run path in
  let target = target_of technology in
  let lib = Milo_library.Generic.get () in
  let generic = [ lib ] in
  let mapped = [ target.Table_map.tech; lib ] in
  let divergences = ref [] in
  let deltas = ref 0 and checks = ref 0 in
  let diverge idx stage label kind detail =
    divergences :=
      {
        div_record = idx;
        div_stage = stage;
        div_label = label;
        div_kind = kind;
        div_detail = detail;
      }
      :: !divergences
  in
  (* In-place stages replay onto the tracked design; design-producing
     stages (compile, techmap) adopt their committed snapshot, since
     their deltas describe the construction of a different design. *)
  let in_place stage = stage = "micro" || stage = "optimize" in
  let techs_of stage = if stage = "optimize" then mapped else generic in
  (* Every recorded application is re-simulated under the full guard
     parameters, certificates and sampling ignored — replay is the
     offline microscope for a divergence the cheap in-run checks let
     through. *)
  let guard_divergence stage refd cand =
    incr checks;
    let techs = techs_of stage in
    let env = Milo_sim.Simulator.env_of_techs techs in
    match
      Guard.check ~params:Guard.full_params ~is_seq:(seq_classifier techs) env
        refd env cand
    with
    | None -> None
    | Some d -> Some (Guard.describe d)
  in
  let cur = ref None in
  List.iteri
    (fun idx record ->
      match record with
      | J.Header _ | J.Stage _ -> ()
      | J.Delta { d_stage; d_label; d_hash; d_entries; _ } -> (
          match !cur with
          | Some d when in_place d_stage -> (
              incr deltas;
              let pre = D.copy d in
              match D.redo d d_entries with
              | () -> (
                  (match d_hash with
                  | Some h when J.design_hash d <> h ->
                      diverge idx d_stage d_label "state"
                        "design hash after redo differs from the recorded one"
                  | Some _ | None -> ());
                  match guard_divergence d_stage pre d with
                  | Some desc -> diverge idx d_stage d_label "guard" desc
                  | None -> ())
              | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
              | exception e ->
                  diverge idx d_stage d_label "redo" (describe_error e);
                  cur := Some pre)
          | Some _ | None -> ())
      | J.Checkpoint ck ->
          (match !cur with
          | Some d when in_place ck.J.ck_stage ->
              if not (Milo_netlist.Hashcons.equal_structure d ck.J.ck_design)
              then
                diverge idx ck.J.ck_stage None "checkpoint"
                  "replayed design differs from the committed snapshot"
          | Some _ | None -> ());
          cur := Some (D.copy ck.J.ck_design)
      | J.Finish f ->
          if f.f_outcome = "complete" then (
            match !cur with
            | Some d ->
                let s =
                  stats_of ~input_arrivals:header.J.h_arrivals target d
                in
                let near a b =
                  a = b || abs_float (a -. b) <= 1e-9 *. (1.0 +. abs_float b)
                in
                if
                  not
                    (near s.delay f.f_delay && near s.area f.f_area
                   && near s.power f.f_power && s.gates = f.f_gates
                   && s.comps = f.f_comps)
                then
                  diverge idx "finish" None "final"
                    (Printf.sprintf
                       "recomputed %.3fns/%.1f/%.1fmW/%d gates/%d comps vs \
                        recorded %.3fns/%.1f/%.1fmW/%d gates/%d comps"
                       s.delay s.area s.power s.gates s.comps f.f_delay
                       f.f_area f.f_power f.f_gates f.f_comps)
            | None -> ()))
    rc.J.r_records;
  {
    rep_path = path;
    rep_records = List.length rc.J.r_records;
    rep_truncated_bytes = rc.J.r_truncated_bytes;
    rep_deltas = !deltas;
    rep_checks = !checks;
    rep_finished = J.finished rc;
    rep_divergences = List.rev !divergences;
  }

(* --- Human baseline --------------------------------------------------- *)

(* What a careful but unaided engineer enters at the technology level:
   the compiled design mapped macro for macro, no optimization.
   Conservative choices: ripple carry everywhere, standard power. *)
let human_baseline ?(technology = Ecl) design =
  let db = Database.create () in
  let lib = Milo_library.Generic.get () in
  let target = target_of technology in
  let expanded = Compile.expand_design db lib design in
  let flat = Database.flatten db expanded in
  let mapped = Table_map.map_design target flat in
  (mapped, db)

let baseline_stats ?(technology = Ecl) ?(input_arrivals = []) design =
  let target = target_of technology in
  let mapped, _ = human_baseline ~technology design in
  stats_of ~input_arrivals target mapped
