(* The recognize-act engine.

   Three control disciplines from the paper's survey, all over the same
   rule representation:

   - [ops_run]: strictly rule-based control with OPS-style conflict
     resolution (refraction, recency, specificity) — the R1 / Logic
     Consultant discipline.  No measurement, no backtracking.
     [ops_run_incremental] runs the same cycle over a conflict set kept
     across firings, as a greedy pass keeps its own.
   - [greedy_pass]: measure-the-gain control — apply a candidate,
     run cleanup rules, measure the cost function, undo, and commit the
     best candidate (Logic Consultant's gain evaluation with its
     one-rule cleanup lookahead).  A local rule's sites are re-matched
     only where a commit changed the design, and under a per-component
     cost a candidate's evaluation is not redone until a commit changes
     what it read (the Rete discipline of Section 2.2.1).
   - deeper lookahead lives in [Search] (SOCRATES).

   The run's state — quarantine, rule guard, certificates — lives in
   the [Rule.session] its contexts carry, never in this module. *)

module D = Milo_netlist.Design
module Trace = Milo_trace.Trace
module Pool = Milo_parallel.Pool
module Exec = Milo_parallel.Exec

type measure = Milo_measure.Measure.totals = {
  delay : float;
  area : float;
  power : float;
}

(* Cost function over measurements; lower is better. *)
type objective = measure -> float

let weighted ?(w_delay = 1.0) ?(w_area = 1.0) ?(w_power = 0.2) () m =
  (w_delay *. m.delay) +. (w_area *. m.area) +. (w_power *. m.power)

let measure_fn ctx ~input_arrivals () =
  let env name = Milo_library.Technology.find ctx.Rule.tech name in
  let sta = Milo_timing.Sta.analyze ~input_arrivals env ctx.Rule.design in
  {
    delay = Milo_timing.Sta.worst_delay sta;
    area = Milo_estimate.Estimate.area env ctx.Rule.design;
    power = Milo_estimate.Estimate.power env ctx.Rule.design;
  }

(* --- Debug linting ---------------------------------------------------- *)

(* When enabled, the structural lint invariants (connectivity
   consistency, single drivers, valid references, no combinational
   loops) are re-checked after every rule application, so an unsound
   rewrite is caught at the offending rule instead of three flow stages
   later.  Costs a full design scan per application — debugging only. *)

exception Lint_violation of string * string

let () =
  Printexc.register_printer (function
    | Lint_violation (rule, report) ->
        Some (Printf.sprintf "Lint_violation after rule %s:\n%s" rule report)
    | _ -> None)

let set_debug_lint (s : Rule.session) v = s.Rule.debug_lint <- v

let lint_after ctx name =
  if ctx.Rule.session.Rule.debug_lint then begin
    let is_sequential kind =
      match kind with
      | Milo_netlist.Types.Instance _ -> true
      | Milo_netlist.Types.Macro m -> (
          match Milo_library.Technology.find_opt ctx.Rule.tech m with
          | Some mac -> Milo_library.Macro.is_sequential mac
          | None -> false)
      | k -> Milo_netlist.Types.is_sequential_kind k
    in
    let diags =
      Milo_lint.Lint.run ~resolve:ctx.Rule.resolve ~is_sequential
        ~rules:Milo_lint.Lint.structural_rules ctx.Rule.design
    in
    match Milo_lint.Lint.errors diags with
    | [] -> ()
    | errs ->
        raise
          (Lint_violation
             ( name,
               String.concat "\n"
                 (List.map Milo_lint.Diagnostic.to_string errs) ))
  end

(* --- Rule quarantine -------------------------------------------------- *)

(* Transactional rule application for the measured (greedy / lookahead)
   disciplines: a rule whose [apply] raises — or whose result fails the
   debug-lint invariants — is rolled back through its own change log and
   quarantined for the rest of the run instead of aborting the pass.
   The strictly rule-based OPS disciplines keep the raising behaviour:
   they are the debugging surface where a loud failure is wanted. *)

(* Why a rule was quarantined: its [apply]/[find] raised, or the
   semantic guard caught it changing the function of its site (a
   miscompile that was reverted).  The distinction matters downstream —
   a raising rule is a crash bug, a miscompiling one is a correctness
   bug that would have shipped silently. *)
type reason = Rule.reason = Raised | Miscompiled

let reason_name = function Raised -> "raised" | Miscompiled -> "miscompiled"

(* The quarantine lives in the run's session: per rule, the failure
   count (how noisy the rule was), the first trapped failure message
   and why (why it first went wrong).  A worker fork reads its
   parent's table and keeps its own failures in [trapped]; the
   coordinator imports them in task (= submission) order after the
   fan-out, so first-failure messages are deterministic regardless of
   which domain trapped what when. *)
let is_quarantined (s : Rule.session) name =
  Hashtbl.mem s.Rule.quarantine name
  ||
  (* A failure trapped earlier in this worker task quarantines the rule
     for the task's remaining sites. *)
  match s.Rule.trapped with
  | Some t -> List.exists (fun (rule, _, _) -> rule = name) !t
  | None -> false

(* Full quarantine image, for journal checkpoints: a resumed run
   restores it so rules trapped before the crash stay trapped. *)
let quarantine_dump (s : Rule.session) =
  Hashtbl.fold
    (fun name (n, msg, reason) acc -> (name, n, msg, reason) :: acc)
    s.Rule.quarantine []
  |> List.sort compare

let quarantine_restore (s : Rule.session) dump =
  Hashtbl.reset s.Rule.quarantine;
  List.iter
    (fun (name, n, msg, reason) ->
      Hashtbl.replace s.Rule.quarantine name (n, msg, reason))
    dump

let quarantined s = List.map (fun (name, n, _, _) -> (name, n)) (quarantine_dump s)

let quarantined_errors s =
  List.map (fun (name, _, msg, _) -> (name, msg)) (quarantine_dump s)

let quarantined_reasons s =
  List.map (fun (name, _, _, r) -> (name, r)) (quarantine_dump s)

let note_failure_named (s : Rule.session) ~reason name msg =
  match s.Rule.trapped with
  | Some t -> t := (name, msg, reason) :: !t
  | None -> (
      match Hashtbl.find_opt s.Rule.quarantine name with
      | Some (n, m, rs) -> Hashtbl.replace s.Rule.quarantine name (n + 1, m, rs)
      | None -> Hashtbl.replace s.Rule.quarantine name (1, msg, reason))

let note_failure_msg ctx ~reason (r : Rule.t) msg =
  note_failure_named ctx.Rule.session ~reason r.Rule.rule_name msg

let note_failure ctx (r : Rule.t) exn =
  note_failure_msg ctx ~reason:Raised r (Printexc.to_string exn)

(* The one fan-out protocol.  Each task runs as an oracle worker on its
   own fork of [ctx], made inside the task so on the worker's domain,
   with tracing suppressed there, so it behaves identically inline or
   on a pool domain.  (Its fork has no commit hook, so nothing it
   commits is recorded.)  Then, in task order, the coordinator imports
   each task's trapped failures into the session's quarantine, or
   quarantines the key of a faulting task — so first-failure messages
   are the same whichever domain trapped what when. *)
let fan_out ~exec ctx tasks =
  let session = ctx.Rule.session in
  let run f () =
    let wctx = Rule.fork_context ctx in
    let v = Trace.without (fun () -> f wctx) in
    ( v,
      match wctx.Rule.session.Rule.trapped with
      | Some t -> List.rev !t
      | None -> [] )
  in
  let keys = Array.of_list (List.map fst tasks) in
  Array.mapi
    (fun i -> function
      | Pool.Done (v, fails) ->
          List.iter
            (fun (rule, msg, reason) -> note_failure_named session ~reason rule msg)
            fails;
          Some v
      | Pool.Task_failed fault ->
          Option.iter
            (fun key ->
              note_failure_named session ~reason:Raised key
                ("parallel task: " ^ Pool.fault_message fault))
            keys.(i);
          None)
    (Exec.map exec (List.map (fun (_, f) -> run f) tasks))

(* --- Semantic rule guard ----------------------------------------------- *)

(* Cone-local equivalence checking of individual rule applications
   (the transactional tier of the semantic guard).  Before an apply,
   the functions of the site's output nets are snapshotted as truth
   vectors over their fan-in cone leaves; after the apply the same
   nets are re-evaluated over the same leaf assignments.  Any
   difference means the rule changed observable behaviour: the edits
   are rolled back through the sub-log and the rule is quarantined
   with reason [Miscompiled].

   The check is conservative: a net whose new function can no longer
   be expressed over the old leaves (the rewrite restructured the
   region, a leaf vanished, a non-expandable driver appeared) is
   skipped, never reported — false positives would quarantine sound
   rules.  Stage guards in the flow backstop whatever is skipped. *)

module Guard = Milo_guard.Guard

(* The guard state lives in the run's session and is only ever armed on
   the coordinator's session: worker forks never guard, so its mutable
   sampling position is single-domain state and needs no locking. *)
let set_rule_guard (s : Rule.session) ?budget ?stats policy =
  s.Rule.rule_guard <-
    (match policy with
    | Guard.Off -> None
    | Guard.Sampled | Guard.Full ->
        Some
          {
            Rule.rg_policy = policy;
            rg_budget = budget;
            rg_stats =
              (match stats with Some st -> st | None -> Guard.fresh_stats ());
            rg_seen = Hashtbl.create 16;
            rg_tick = 0;
            rg_tv = Hashtbl.create 256;
          })

let rule_guard_stats (s : Rule.session) =
  Option.map (fun g -> g.Rule.rg_stats) s.Rule.rule_guard

(* Journal-resume support: the [Sampled] tier's position (tick counter
   and first-application set) is part of the run's deterministic state
   — a resumed run must re-enter the sampling sequence exactly where
   the interrupted one left off, or its guard counters diverge from
   the uninterrupted run's. *)
let guard_sample_state (s : Rule.session) =
  Option.map
    (fun (g : Rule.rule_guard) ->
      ( g.rg_tick,
        Hashtbl.fold (fun n () acc -> n :: acc) g.rg_seen []
        |> List.sort compare ))
    s.Rule.rule_guard

let restore_guard_sample_state (s : Rule.session) tick seen =
  match s.Rule.rule_guard with
  | None -> ()
  | Some g ->
      g.rg_tick <- tick;
      Hashtbl.reset g.rg_seen;
      List.iter (fun n -> Hashtbl.replace g.rg_seen n ()) seen

(* A try made in place on the coordinator and then refused (the time
   optimizer's) runs under the guard but leaves it as it found it, as
   an unguarded try on a fork would have: the sampling position and
   the check, skip and certified counts are rewound.  A miscompile the
   try caught stays counted, as the quarantine it caused stays. *)
type guard_mark = (int * string list * int * int * int) option

let guard_mark (s : Rule.session) =
  Option.map
    (fun (g : Rule.rule_guard) ->
      let st = g.rg_stats in
      ( g.rg_tick,
        Hashtbl.fold (fun n () acc -> n :: acc) g.rg_seen [],
        st.Guard.rule_checks,
        st.Guard.rule_skipped,
        st.Guard.rule_certified ))
    s.Rule.rule_guard

let guard_rewind (s : Rule.session) (mark : guard_mark) =
  match (s.Rule.rule_guard, mark) with
  | Some g, Some (tick, seen, checks, skipped, certified) ->
      restore_guard_sample_state s tick seen;
      g.rg_stats.Guard.rule_checks <- checks;
      g.rg_stats.Guard.rule_skipped <- skipped;
      g.rg_stats.Guard.rule_certified <- certified
  | (Some _ | None), _ -> ()

(* --- Certified rules --------------------------------------------------- *)

(* Rules holding a static Certified certificate (proved sound offline
   by [Milo_absint.Certify] over exhaustive cone enumeration).  Their
   applications skip the dynamic cone re-simulation: the per-apply
   Full-guard cost collapses to the flow's stage-boundary checks.  The
   engine only stores names in the session — certification itself
   lives above this layer.  Quarantine still dominates: a certified
   rule that raises is quarantined like any other. *)
let set_certified (s : Rule.session) names = s.Rule.certified <- names

(* Sampling interval for the [Sampled] tier: the first application of
   each rule is always checked (a systematically wrong rule is caught
   immediately), then every Nth opportunity across all rules. *)
let sample_interval = 16

let should_check (g : Rule.rule_guard) (r : Rule.t) =
  match g.rg_policy with
  | Guard.Off -> false
  | Guard.Full -> true
  | Guard.Sampled ->
      if
        match g.rg_budget with
        | Some b -> Budget.exhausted b
        | None -> false
      then false
      else begin
        g.rg_tick <- g.rg_tick + 1;
        if Hashtbl.mem g.rg_seen r.Rule.rule_name then
          g.rg_tick mod sample_interval = 0
        else begin
          Hashtbl.replace g.rg_seen r.Rule.rule_name ();
          true
        end
      end

let guard_max_leaves = 8

(* Truth vectors are a function of the cone's structure alone, so
   structurally identical cones — ubiquitous in mapped datapaths —
   share one packed sweep through a digest-keyed cache.  Keys include
   the library name: cone digests intern macro *names*, whose
   behavior is per-technology.  The cache belongs to the armed guard,
   so it lives and dies with the run's session. *)
let tv_cache_bound = 4096

let cone_truth_vector (g : Rule.rule_guard) ctx cone vectors =
  let key =
    Milo_library.Technology.name ctx.Rule.tech ^ ":" ^ Cone.digest ctx cone
  in
  match Hashtbl.find_opt g.rg_tv key with
  | Some tv -> tv
  | None ->
      let tv = Cone.sweep ctx vectors cone.Cone.out_net in
      if Hashtbl.length g.rg_tv >= tv_cache_bound then Hashtbl.reset g.rg_tv;
      Hashtbl.replace g.rg_tv key tv;
      tv

(* Exhaustive truth vectors of the verifiable site outputs over their
   cone leaves.  Cones with no components (the driver is not an
   expandable combinational macro — e.g. micro-level kinds) are
   unverifiable here and left to the stage guard. *)
let snapshot_cones g ctx nets =
  List.filter_map
    (fun nid ->
      match Cone.extract ctx ~max_leaves:guard_max_leaves nid with
      | Some cone when cone.Cone.comps <> [] -> (
          let vectors = Cone.exhaustive cone.Cone.leaves in
          match cone_truth_vector g ctx cone vectors with
          | tv -> Some (nid, vectors, tv)
          | exception Cone.Unverifiable -> None)
      | Some _ | None -> None)
    nets

(* Re-check the snapshot against the post-apply design.  Returns a
   human-readable description of the first divergence, or [None] when
   every verifiable net kept its function; a net that is gone or no
   longer cone-local is skipped. *)
let check_snapshot ctx snaps =
  let name nid =
    match D.net_opt ctx.Rule.design nid with
    | Some n -> n.D.nname
    | None -> string_of_int nid
  in
  List.find_map
    (fun (nid, vectors, tv) ->
      if D.net_opt ctx.Rule.design nid = None then None
      else
        match Cone.recheck ctx vectors tv nid with
        | None | (exception Cone.Unverifiable) -> None
        | Some assignment ->
            Some
              (Printf.sprintf "net %s changed function under {%s}" (name nid)
                 (String.concat ", "
                    (List.map
                       (fun (l, v) ->
                         Printf.sprintf "%s=%d" (name l) (Bool.to_int v))
                       assignment))))
    snaps

(* Snapshot decision for one application: [None] when no check should
   run (guard off, sampled out, or nothing verifiable at the site).
   The verdict is left in the session's [last_verdict] for the
   commit's attribution, read right after the winning commit-time
   apply — before cleanups run their own applies and overwrite it.

   Oracle workers never guard (a fork's session has no guard armed):
   their applications are scratch evaluations on forked snapshots
   whose results are discarded; only the coordinator's authoritative
   re-application of the merged winner is guarded (and ticks the
   sampling position), which is what keeps guard stats bit-identical
   across domain counts.  A try made in place on the coordinator (the
   time optimizer's) is guarded, and rewound ([guard_rewind]) when it
   is refused. *)
let guard_snapshot ctx r site =
  let s = ctx.Rule.session in
  let verdict v = s.Rule.last_verdict <- v in
  match s.Rule.rule_guard with
  | None ->
      verdict D.Unguarded;
      None
  | Some g ->
      let st = g.rg_stats in
      if List.mem r.Rule.rule_name s.Rule.certified then begin
        st.Guard.rule_certified <- st.Guard.rule_certified + 1;
        verdict D.Certified;
        None
      end
      else if not (should_check g r) then begin
        st.Guard.rule_skipped <- st.Guard.rule_skipped + 1;
        verdict D.Skipped;
        None
      end
      else begin
        match snapshot_cones g ctx (Cone.site_outputs ctx site) with
        | [] ->
            st.Guard.rule_skipped <- st.Guard.rule_skipped + 1;
            verdict D.Skipped;
            None
        | snaps ->
            st.Guard.rule_checks <- st.Guard.rule_checks + 1;
            verdict D.Checked;
            Some (st, snaps)
      end

(* Match sites, treating a raising [find] as "no sites" (and
   quarantining the rule).  A quarantined rule matches nothing. *)
let guarded_find ctx (r : Rule.t) =
  if is_quarantined ctx.Rule.session r.Rule.rule_name then []
  else
    match r.Rule.find ctx with
    | sites -> sites
    | exception ((Out_of_memory | Stack_overflow | Pool.Cancelled) as e) ->
        raise e
    | exception e ->
        note_failure ctx r e;
        []

(* Apply into a private sub-log so a failure rolls back exactly this
   rule's edits; on success the sub-log is spliced (newest first) into
   the caller's log so the caller's undo/commit semantics are intact.

   When the rule guard is armed, a successful apply is additionally
   re-simulated over the touched cone: a semantic divergence is
   treated exactly like a raising apply — rolled back and quarantined
   — except the reason recorded is [Miscompiled]. *)
let guarded_apply ctx (r : Rule.t) site log =
  (* Cooperative cancellation point: inside a supervised parallel task
     this heartbeats and raises [Pool.Cancelled] past the deadline —
     before any edit, so the task's scratch snapshot is abandoned
     cleanly.  A no-op on the authoritative path. *)
  Pool.poll ();
  if is_quarantined ctx.Rule.session r.Rule.rule_name then false
  else
    let snap = guard_snapshot ctx r site in
    let local = D.new_log () in
    match
      let ok = r.Rule.apply ctx site local in
      if ok then lint_after ctx r.Rule.rule_name;
      ok
    with
    | ok -> (
        match
          match (ok, snap) with
          | true, Some (_, snaps) -> check_snapshot ctx snaps
          | (true | false), _ -> None
        with
        | None ->
            log := !local @ !log;
            ok
        | Some detail ->
            D.undo ctx.Rule.design local;
            (match snap with
            | Some (st, _) ->
                st.Guard.rule_mismatches <- st.Guard.rule_mismatches + 1
            | None -> ());
            note_failure_msg ctx ~reason:Miscompiled r ("miscompile: " ^ detail);
            false)
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception Pool.Cancelled ->
        (* Not a rule failure: the task's deadline passed mid-apply.
           Undo this rule's edits and let the supervisor classify the
           task; the snapshot is discarded anyway. *)
        D.undo ctx.Rule.design local;
        raise Pool.Cancelled
    | exception e ->
        D.undo ctx.Rule.design local;
        note_failure ctx r e;
        false

(* Component ids within [n] hops of the seed components, a hop being a
   shared net. *)
let neighbourhood ctx seeds n =
  let design = ctx.Rule.design in
  let visited = Hashtbl.create 32 in
  let rec expand frontier depth =
    if depth > n then ()
    else begin
      let next = ref [] in
      List.iter
        (fun cid ->
          if not (Hashtbl.mem visited cid) then begin
            Hashtbl.replace visited cid ();
            match D.comp_opt design cid with
            | None -> ()
            | Some c ->
                Hashtbl.iter
                  (fun _pin nid ->
                    match D.net_opt design nid with
                    | None -> ()
                    | Some net ->
                        List.iter
                          (fun (cid', _) ->
                            if not (Hashtbl.mem visited cid') then
                              next := cid' :: !next)
                          net.D.npins)
                  c.D.conns
          end)
        frontier;
      expand !next (depth + 1)
    end
  in
  expand seeds 0;
  visited

(* The extent of some edits: the components whose radius-1 view (kind,
   connections, and for each of its nets the pins, the port binding
   and the kinds on it) the edits can have changed, and the nets they
   touch.  Its components are every component the entries add, remove,
   reconnect or re-kind, every component on a touched net, and every
   component on a net of a re-kinded component — the last clause
   because a kind is part of its neighbours' views.  Nets are read on
   [design] as it is now. *)
let extent design entries =
  let comps = Hashtbl.create 16 and nets = Hashtbl.create 8 in
  let rekinded = ref [] in
  let comp cid = Hashtbl.replace comps cid () in
  let net nid = Hashtbl.replace nets nid () in
  List.iter
    (function
      | D.E_add_comp (cid, _, _) -> comp cid
      | D.E_set_kind (cid, _, _) ->
          comp cid;
          rekinded := cid :: !rekinded
      | D.E_connect (cid, _, prev, next) ->
          comp cid;
          Option.iter net prev;
          Option.iter net next
      | D.E_remove_comp (cid, _, _, conns) ->
          comp cid;
          List.iter (fun (_, nid) -> net nid) conns
      | D.E_add_net (nid, _) | D.E_remove_net (nid, _, _) -> net nid)
    entries;
  let on_net nid =
    match D.net_opt design nid with
    | Some n -> List.iter (fun (cid, _) -> comp cid) n.D.npins
    | None -> ()
  in
  Hashtbl.iter (fun nid () -> on_net nid) nets;
  List.iter
    (fun cid ->
      match D.comp_opt design cid with
      | Some c -> Hashtbl.iter (fun _ nid -> on_net nid) c.D.conns
      | None -> ())
    !rekinded;
  (comps, nets)

let keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl []

(* Run [f] with rule matching focused on [comps]. *)
let with_focus ctx comps f =
  let saved = !(ctx.Rule.focus) in
  ctx.Rule.focus := Some comps;
  Fun.protect ~finally:(fun () -> ctx.Rule.focus := saved) f

(* Apply every applicable cleanup rule until none fires (bounded).  The
   Logic Consultant examines its high-priority rules after each regular
   rule application.  The budget counts successful applications only —
   dead or non-applying sites cost nothing — and once exhausted no
   further site is scanned.

   With [near], the design was cleanup-quiet (no live cleanup matched
   anywhere) before the edits in [log], so every cleanup site is
   anchored in their extent: the components whose radius-1 view they
   changed, the only ones whose match can differ from the quiet
   state's under the cleanup locality contract (see
   [Rule.scan_comps]).  Each [find] scans only that, recomputed
   whenever the log has grown so cascades follow their own edits.
   Both modes fire the same sites in the same order.  Returns the
   budget left (0 when it ran out).  (A value, not a global: workers
   run this concurrently.) *)
let cleanups_to_fixpoint ~near ctx cleanups log =
  let budget = ref (4 * (1 + D.num_comps ctx.Rule.design)) in
  let focus = ref None in
  let find r =
    if not near then guarded_find ctx r
    else begin
      let comps =
        match !focus with
        | Some (seen, comps) when seen == !log -> comps
        | Some _ | None ->
            let comps = fst (extent ctx.Rule.design !log) in
            focus := Some (!log, comps);
            comps
      in
      with_focus ctx comps (fun () -> guarded_find ctx r)
    end
  in
  let rec pass () =
    let fired =
      List.exists
        (fun (r : Rule.t) ->
          !budget > 0
          && List.exists
               (fun site ->
                 !budget > 0
                 && Rule.site_alive ctx site
                 && guarded_apply ctx r site log
                 && (decr budget;
                     true))
               (find r))
        cleanups
    in
    if fired && !budget > 0 then pass ()
  in
  pass ();
  !budget

let run_cleanups ctx cleanups log =
  ignore (cleanups_to_fixpoint ~near:false ctx cleanups log)

let run_cleanups_near ctx cleanups log =
  ignore (cleanups_to_fixpoint ~near:true ctx cleanups log)

(* --- Measurer lock-step ------------------------------------------------ *)

(* When the context carries an incremental measurer, every measured
   apply/undo/commit must move it in lock-step with the design.  The
   protocol: after applying a log, [measure_step]; then either undo the
   design and [measure_drop], or commit and [measure_keep].  A failed
   advance (e.g. the candidate state is unmeasurable) yields
   [Measure_failed]: dropping it is free, keeping it forces a full
   resync since the committed edits were never folded in. *)

type mstep =
  | No_measurer
  | Advanced of Milo_measure.Measure.token
  | Measure_failed

let measure_step ctx log =
  match !(ctx.Rule.measurer) with
  | None -> No_measurer
  | Some m -> (
      match Milo_measure.Measure.advance m (D.entries log) with
      | tok -> Advanced tok
      | exception
          (( Out_of_memory | Stack_overflow
           | Milo_measure.Measure.Divergence _ ) as e) ->
          raise e
      | exception _ -> Measure_failed)

let measure_drop ctx step =
  match (step, !(ctx.Rule.measurer)) with
  | Advanced tok, Some m -> Milo_measure.Measure.retreat m tok
  | (No_measurer | Measure_failed | Advanced _), _ -> ()

let measure_keep ctx step =
  match (step, !(ctx.Rule.measurer)) with
  | Advanced tok, Some m -> Milo_measure.Measure.commit m tok
  | Measure_failed, Some m ->
      Milo_measure.Measure.resync m
  | (No_measurer | Measure_failed | Advanced _), _ -> ()

type application = {
  rule : Rule.t;
  site : Rule.site;
  gain : float;  (** cost decrease including cleanups *)
}

(* Snapshot the incremental measurer's totals as an attribution cost —
   only called when the commit is attributed. *)
let attribution_cost ctx =
  match !(ctx.Rule.measurer) with
  | None -> None
  | Some m ->
      let c = Milo_measure.Measure.current m in
      Some { Trace.delay = c.delay; area = c.area; power = c.power }

(* Compact site identity for a commit's attribution, computed before
   the apply rewrites the site: the matched description plus the
   hash-consed kind spec of every live site component.  Two structurally
   identical sites reached through different histories digest equal. *)
let site_digest ctx (site : Rule.site) =
  let b = Buffer.create 64 in
  Buffer.add_string b site.Rule.descr;
  List.iter
    (fun cid ->
      match D.comp_opt ctx.Rule.design cid with
      | Some c ->
          Buffer.add_char b '|';
          Buffer.add_string b (Milo_netlist.Hashcons.kind_spec c.D.kind)
      | None -> ())
    site.Rule.site_comps;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- Candidate evaluation ---------------------------------------------- *)

(* The greedy step scores candidates under one of two kinds of cost.  A
   [Measured] cost is a function of the whole design state, built per
   forked context: a candidate's gain is measured on its fork.  A
   [Per_comp] cost is the left fold, over the components in id order, of
   a weight of each component's kind ([Logic_optimizer.level_cost]):
   a candidate's gain follows from which components it removes, re-kinds
   and adds, so the coordinator can keep that effect across commits and
   replay the fold over each new state. *)
type cost =
  | Measured of (Rule.context -> unit -> float)
  | Per_comp of (Milo_netlist.Types.kind -> float)

(* A candidate's net effect on the components, after its cleanups: the
   existing components it removes ([None]) or re-kinds ([Some kind]), in
   id order, and the kinds of the components it adds, in creation
   order. *)
type effect = {
  changed : (int * Milo_netlist.Types.kind option) list;
  added : Milo_netlist.Types.kind list;
}

(* Read off the candidate state, before the undo. *)
let effect_of design entries =
  let added = Hashtbl.create 4 and changed = ref [] in
  List.iter
    (function
      | D.E_add_comp (cid, _, _) -> Hashtbl.replace added cid ()
      | D.E_remove_comp (cid, _, _, _) | D.E_set_kind (cid, _, _) ->
          if not (Hashtbl.mem added cid) then changed := cid :: !changed
      | D.E_connect _ | D.E_add_net _ | D.E_remove_net _ -> ())
    entries;
  let kind cid = Option.map (fun c -> c.D.kind) (D.comp_opt design cid) in
  {
    changed = List.map (fun cid -> (cid, kind cid)) (List.sort_uniq compare !changed);
    added =
      List.filter_map
        (fun cid -> kind cid)
        (List.sort compare (keys added));
  }

(* Apply rule + cleanups, look at the candidate state, undo.  [look log
   left] runs on the candidate state with the cleanup budget [left] and
   must undo [log] itself; a failed apply is undone here.  Returns the
   verdict and the wall time. *)
let trial ctx ~quiet ~cleanups (r : Rule.t) site look =
  Pool.poll ();
  let t0 = Unix.gettimeofday () in
  let log = D.new_log () in
  let verdict =
    if not (guarded_apply ctx r site log) then begin
      D.undo ctx.Rule.design log;
      Error "apply-failed"
    end
    else look log (cleanups_to_fixpoint ~near:quiet ctx cleanups log)
  in
  (verdict, Unix.gettimeofday () -. t0)

(* [Measured] evaluation: apply rule + cleanups, measure, undo.  A cost
   function that fails on the candidate state (an unmappable or
   unmeasurable intermediate) rejects the candidate rather than
   aborting the pass — the design is restored first.

   Evaluations run inside worker tasks, where tracing is suppressed, so
   the outcome and wall time come back as a value: [Ok gain], or
   [Error reason] for a rejected candidate.  The coordinator records
   them in task order ([record_eval]).

   [before] is the cost of the current state, supplied by the caller:
   every evaluation undoes itself exactly, so one baseline serves all
   the candidates scored from the same state.  [quiet] says no live
   cleanup matches anywhere in that state, which lets the cleanups scan
   only the candidate's neighbourhood. *)
type eval = { result : (float, string) result; dt : float }

let evaluate ctx ~before ~cost ~quiet ~cleanups (r : Rule.t) site =
  let result, dt =
    trial ctx ~quiet ~cleanups r site (fun log _left ->
        match measure_step ctx log with
        | Measure_failed ->
            (* The candidate state is unmeasurable incrementally (e.g.
               unmapped): reject it, nothing to retreat. *)
            D.undo ctx.Rule.design log;
            Error "unmeasurable"
        | step -> (
            match cost () with
            | after ->
                D.undo ctx.Rule.design log;
                measure_drop ctx step;
                Ok (before -. after)
            | exception ((Out_of_memory | Stack_overflow | Pool.Cancelled) as e)
              ->
                raise e
            | exception _ ->
                D.undo ctx.Rule.design log;
                measure_drop ctx step;
                Error "cost-failed"))
  in
  { result; dt }

(* One evaluation as a worker hands it back: a measured gain or a
   [Per_comp] effect (the coordinator turns it into a gain), its wall
   time, and for the candidate table what it read and how much cleanup
   budget it needed.  [reads] is the extent of its edits, computed
   after the undo, less the ids the candidate itself added, plus its
   site's components.  An added id no longer exists after the undo, and
   the undo hands it back, so the next commit may reuse it for
   something unrelated; what the added component or net connected to
   is in the extent already.  [floor]: the cleanup
   cascade stays inside its budget, 4 × (1 + components), exactly while
   [4 * D.num_comps design > floor]. *)
type verdict = Gain of float | Effect of effect

type evaluation = {
  verdict : (verdict, string) result;
  took : float;
  reads : int list * int list;
  floor : int;
}

(* [Per_comp] evaluation on a fork: apply rule + cleanups, read the
   effect, undo. *)
let evaluate_effect ctx ~quiet ~cleanups (r : Rule.t) (site : Rule.site) =
  let design = ctx.Rule.design in
  let n = D.num_comps design in
  let entries = ref [] and floor = ref min_int in
  let verdict, took =
    trial ctx ~quiet ~cleanups r site (fun log left ->
        entries := D.entries log;
        floor := (4 * n) - left;
        let e = effect_of design !entries in
        D.undo design log;
        Ok (Effect e))
  in
  let comps, nets = extent design !entries in
  List.iter
    (function
      | D.E_add_comp (cid, _, _) -> Hashtbl.remove comps cid
      | D.E_add_net (nid, _) -> Hashtbl.remove nets nid
      | D.E_remove_comp _ | D.E_connect _ | D.E_remove_net _ | D.E_set_kind _ -> ())
    !entries;
  List.iter (fun cid -> Hashtbl.replace comps cid ()) site.Rule.site_comps;
  { verdict; took; reads = (keys comps, keys nets); floor = !floor }

(* The current design's weights in id order, with [level_cost]'s
   running totals: [sums.(i)] is the fold's accumulator before
   component [i], [sums.(n)] the whole cost. *)
type base = { ids : int array; weights : float array; sums : float array }

let base_of weight design =
  let comps = Array.of_list (D.comps design) in
  let n = Array.length comps in
  let weights = Array.map (fun c -> weight c.D.kind) comps in
  let sums = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    sums.(i + 1) <- sums.(i) +. weights.(i)
  done;
  { ids = Array.map (fun c -> c.D.id) comps; weights; sums }

(* Gain of an effect: replay the fold over the candidate state — the
   totals up to the first component the effect changes, then the rest
   of the current components with the effect applied, then the added
   components, which have the highest ids, in creation order.  This is
   the float sequence a fold over the candidate state computes, so the
   gain is bit-identical to [before -. cost ()] on it.  Summing the
   effect's deltas instead would round differently and flip
   near-ties.  A weight that raises rejects the candidate; an effect
   naming a component the design no longer has is a kept evaluation the
   commits failed to forget, and raises. *)
let replay weight base e =
  let n = Array.length base.ids in
  let index cid =
    let rec go lo hi =
      if lo >= hi then invalid_arg "Engine.replay: stale candidate effect"
      else
        let mid = (lo + hi) / 2 in
        if base.ids.(mid) = cid then mid
        else if base.ids.(mid) < cid then go (mid + 1) hi
        else go lo mid
    in
    go 0 n
  in
  let changed = List.map (fun (cid, k) -> (index cid, k)) e.changed in
  let start = match changed with (i, _) :: _ -> i | [] -> n in
  let fold () =
    let acc = ref base.sums.(start) and pending = ref changed in
    for j = start to n - 1 do
      match !pending with
      | (i, k) :: rest when i = j ->
          pending := rest;
          Option.iter (fun k -> acc := !acc +. weight k) k
      | _ -> acc := !acc +. base.weights.(j)
    done;
    List.fold_left (fun acc k -> acc +. weight k) !acc e.added
  in
  match fold () with
  | after -> Ok (base.sums.(n) -. after)
  | exception ((Out_of_memory | Stack_overflow) as x) -> raise x
  | exception _ -> Error "cost-failed"

(* When a tracer is installed, each evaluation is timed into the
   per-rule attribution table and the eval-latency histogram; a
   rejected candidate counts as a refusal. *)
let record_eval (r : Rule.t) ev =
  if Trace.enabled () then begin
    let rule = r.Rule.rule_name and dt = ev.dt in
    Trace.sample "engine.eval_us" (dt *. 1e6);
    match ev.result with
    | Ok gain -> Trace.note_rule ~rule ~dt ~gain ~outcome:`Eval
    | Error _ -> Trace.note_rule ~rule ~dt ~gain:0.0 ~outcome:`Refused
  end

(* Authoritative commit of a winning candidate: re-apply on the real
   design (under the rule guard), run cleanups, keep the measurer step
   and commit with the application's attribution.  This is the only
   place the winner touches the coordinator's design, so every
   observable side effect (trace, ledger, guard stats, journal entries)
   flows from the same code regardless of domain count.  A shared
   analysis of the state the winner was applied to is advanced over
   the committed entries.  [near] says that state was cleanup-quiet:
   the cleanups then re-match only around the commit's own edits, as a
   candidate's evaluation does.  Returns the committed entries, or
   [None] when the commit was refused. *)
let commit_app ?budget ~near ctx ~cleanups (app : application) =
  let traced = Trace.enabled () in
  (* Attribution is built only when the commit is recorded. *)
  let attributed = D.has_commit_hook ctx.Rule.design in
  let t0 = if traced then Unix.gettimeofday () else 0.0 in
  let before = if attributed then attribution_cost ctx else None in
  let site = if attributed then Some (site_digest ctx app.site) else None in
  let generation = D.generation ctx.Rule.design in
  let log = D.new_log () in
  if guarded_apply ctx app.rule app.site log then begin
    let verdict = ctx.Rule.session.Rule.last_verdict in
    ignore (cleanups_to_fixpoint ~near ctx cleanups log);
    measure_keep ctx (measure_step ctx log);
    (* The measurer's totals are final here (cleanups measured, step
       kept), so [after] is exactly what the next kept application
       will see as [before] — the conservation invariant. *)
    let attr =
      if attributed then
        {
          D.at_site = site;
          at_verdict = Some verdict;
          at_before = before;
          at_after = attribution_cost ctx;
        }
      else D.no_attribution
    in
    let entries = D.entries log in
    D.commit ~label:app.rule.Rule.rule_name ~attr ~design:ctx.Rule.design log;
    Rule.advance_analysis ctx ~generation entries;
    (match budget with Some b -> Budget.step b | None -> ());
    if traced then begin
      Trace.note_rule ~rule:app.rule.Rule.rule_name
        ~dt:(Unix.gettimeofday () -. t0)
        ~gain:app.gain ~outcome:`Applied;
      Trace.count "engine.applies" 1
    end;
    Some entries
  end
  else begin
    (* The winning rule failed on commit (it was just quarantined);
       everything it recorded is already rolled back. *)
    D.undo ctx.Rule.design log;
    if traced then
      Trace.note_rule ~rule:app.rule.Rule.rule_name
        ~dt:(Unix.gettimeofday () -. t0)
        ~gain:0.0 ~outcome:`Rolled_back;
    None
  end

(* --- The conflict set ---------------------------------------------------- *)

(* The conflict set of a greedy pass or an incremental OPS run: each
   local rule's site list on one state (design, generation), kept
   across the steps (the Rete discipline of Section 2.2.1).  A kept
   site also carries its last [Per_comp] evaluation, valid while
   nothing it read has changed.  A [guarded] table (a greedy pass)
   finds through [guarded_find] and reads a quarantined rule as
   matching nothing; an OPS run's table finds through the raw [find],
   whose failures stay loud.  [quarantined] is the quarantine size the
   kept evaluations were made under: a newly quarantined rule can
   change any cleanup cascade, so they are forgotten. *)
type kept_site = { site : Rule.site; mutable eval : evaluation option }

type table = {
  guarded : bool;
  lists : (string, Rule.t * kept_site list) Hashtbl.t;
  mutable at : (D.t * int) option;
  mutable quarantined : int;
}

let conflict_set ~guarded =
  { guarded; lists = Hashtbl.create 8; at = None; quarantined = 0 }

let new_table () = conflict_set ~guarded:true
let bare site = { site; eval = None }

let find table ctx (r : Rule.t) =
  if table.guarded then guarded_find ctx r else r.Rule.find ctx

(* A rule's sites on the current state, as kept records: a local rule's
   list when the table describes this state, else a full find, kept;
   any other rule found in full, in records nothing keeps. *)
let candidates table ctx (r : Rule.t) =
  let design = ctx.Rule.design in
  if table.guarded && is_quarantined ctx.Rule.session r.Rule.rule_name then []
  else if not r.Rule.local then List.map bare (find table ctx r)
  else begin
    (match table.at with
    | Some (d, g) when d == design && g = D.generation design -> ()
    | Some _ | None ->
        Hashtbl.reset table.lists;
        table.at <- Some (design, D.generation design));
    match Hashtbl.find_opt table.lists r.Rule.rule_name with
    | Some (_, kept) -> kept
    | None ->
        let kept = List.map bare (find table ctx r) in
        Hashtbl.replace table.lists r.Rule.rule_name (r, kept);
        kept
  end

let sites table ctx r = List.map (fun k -> k.site) (candidates table ctx r)

let forget table =
  Hashtbl.iter (fun _ (_, kept) -> List.iter (fun k -> k.eval <- None) kept) table.lists

let kept_reads table =
  Hashtbl.fold
    (fun _ (_, kept) acc ->
      List.fold_left
        (fun acc k -> match k.eval with Some e -> e.reads :: acc | None -> acc)
        acc kept)
    table.lists []

(* Merge two site lists in anchor order; their anchors are disjoint. *)
let splice kept found =
  let rec go acc kept found =
    match (kept, found) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | k :: ks, f :: fs ->
        if f.site.Rule.anchor < k.site.Rule.anchor then go (f :: acc) kept fs
        else go (k :: acc) ks found
  in
  go [] kept found

(* After [entries] took the state at [generation] to the current one (a
   commit or a firing): their extent is computed once; each kept list
   drops its sites anchored in it and splices in what one find focused
   on it matches, and each surviving site forgets an evaluation whose
   reads meet it.  Under the locality contract no other anchor's match
   can have changed, so every list equals a full scan's, order
   included, and a kept evaluation would be repeated exactly.  (A site
   anchored in the extent loses nothing: its anchor is one of its
   components, which its evaluation read.)  Lists of another state are
   dropped. *)
let refresh table ctx ~generation entries =
  let design = ctx.Rule.design in
  match table.at with
  | Some (d, g) when d == design && g = generation ->
      let comps, nets = extent design entries in
      let stale e =
        let cs, ns = e.reads in
        List.exists (Hashtbl.mem comps) cs || List.exists (Hashtbl.mem nets) ns
      in
      with_focus ctx comps (fun () ->
          Hashtbl.filter_map_inplace
            (fun _ (r, kept) ->
              let outside =
                List.filter (fun k -> not (Hashtbl.mem comps k.site.Rule.anchor)) kept
              in
              List.iter
                (fun k ->
                  match k.eval with
                  | Some e when stale e -> k.eval <- None
                  | Some _ | None -> ())
                outside;
              Some (r, splice outside (List.map bare (find table ctx r))))
            table.lists);
      table.at <- Some (design, D.generation design)
  | Some _ | None ->
      Hashtbl.reset table.lists;
      table.at <- None

(* --- Greedy control ------------------------------------------------------ *)

let all_local cleanups = List.for_all (fun (c : Rule.t) -> c.Rule.local) cleanups

(* Where a candidate's evaluation came from: the table, or made this
   step. *)
type outcome = Kept of evaluation | Made of evaluation

(* Fork side: the evaluation of one of [r]'s sites.  A [Measured] cost
   is built over the fork and measured once as the baseline of all the
   sites. *)
let evaluator cost wctx ~quiet ~cleanups r =
  match cost with
  | Measured factory ->
      let cost = factory wctx in
      let before = cost () in
      fun site ->
        let ev = evaluate wctx ~before ~cost ~quiet ~cleanups r site in
        {
          verdict = Result.map (fun g -> Gain g) ev.result;
          took = ev.dt;
          reads = ([], []);
          floor = 0;
        }
  | Per_comp _ -> evaluate_effect wctx ~quiet ~cleanups r

(* Coordinator side: a verdict's gain.  An effect is replayed over the
   current design's weights, read once per step and only here. *)
let gain_of cost design =
  let replay_effect =
    match cost with
    | Per_comp weight -> (
        let base = lazy (base_of weight design) in
        fun e ->
          match Lazy.force base with
          | b -> replay weight b e
          | exception ((Out_of_memory | Stack_overflow) as x) -> raise x
          | exception _ -> Error "cost-failed")
    | Measured _ -> fun _ -> invalid_arg "Engine.gain_of: an effect under a measured cost"
  in
  function
  | Ok (Gain g) -> Ok g
  | Ok (Effect e) -> replay_effect e
  | Error reason -> Error reason

(* Score every candidate on the current state, in merge order: (rule
   index, site ordinal), each with its gain or rejection reason.  The
   fan-out unit is the rule: candidates are read on the coordinator
   ([candidates]: a local rule's kept list, or a find with find-failure
   quarantine), then each rule's sites that hold no kept evaluation
   are evaluated by one [fan_out] task on a forked snapshot of the
   design.  Grouping by rule — never by domain count — is what keeps
   the merge deterministic: a rule that fails mid-task skips its own
   remaining sites (from then on the task evaluates even the sites
   that hold one, as a task without a table would), and
   [greedy_step]'s merge picks the same winner whatever ran where.

   Workers are pure oracles: no trace, no provenance, no guard, no
   budget mutation.  The coordinator records the evaluations made,
   charges the budget one eval per evaluation made, and keeps them on
   their sites: every kept evaluation is forgotten when the state is
   not cleanup-quiet or the quarantine grew, and the fresh ones are
   kept for local rules (when every cleanup is local too) whose cleanup
   budget held.

   The coordinator reads once whether the design is cleanup-quiet off
   the same table (every cleanup's list is empty), and if so every
   evaluation re-matches cleanups only around its own edits.  Returns
   the scores and that answer. *)
let score ?budget table ~exec ~cost ctx ~cleanups rules =
  let groups =
    List.filter_map
      (fun (r : Rule.t) ->
        match candidates table ctx r with [] -> None | kept -> Some (r, kept))
      rules
  in
  let session = ctx.Rule.session and design = ctx.Rule.design in
  let quiet =
    groups <> [] && List.for_all (fun c -> candidates table ctx c = []) cleanups
  in
  let known = Hashtbl.length session.Rule.quarantine in
  if (not quiet) || known <> table.quarantined then begin
    forget table;
    table.quarantined <- known
  end;
  let n = D.num_comps design in
  let keeping =
    quiet
    && (match cost with Per_comp _ -> true | Measured _ -> false)
    && all_local cleanups
  in
  let keeps (r : Rule.t) = keeping && r.Rule.local in
  let held r k =
    match k.eval with
    | Some s when keeps r && 4 * n > s.floor -> Some s
    | Some _ | None -> None
  in
  (* Per rule: each site with its kept evaluation, if any, and how many
     sites hold none. *)
  let plans =
    List.map
      (fun (r, kept) ->
        let items = List.map (fun k -> (k, held r k)) kept in
        (r, items, List.length (List.filter (fun (_, s) -> Option.is_none s) items)))
      groups
  in
  let task ((r : Rule.t), items, _) =
    ( Some r.Rule.rule_name,
      fun wctx ->
        let fresh = evaluator cost wctx ~quiet ~cleanups r in
        let trapped () =
          match wctx.Rule.session.Rule.trapped with
          | Some t -> !t <> []
          | None -> false
        in
        List.map
          (fun (k, held) ->
            match held with
            | Some s when not (trapped ()) -> Kept s
            | Some _ | None -> Made (fresh k.site))
          items )
  in
  let outcomes =
    fan_out ~exec ctx
      (List.filter_map
         (fun ((_, _, misses) as plan) -> if misses > 0 then Some (task plan) else None)
         plans)
  in
  let gain = gain_of cost design in
  let made = ref 0 and fresh = ref [] and next = ref 0 in
  let scored =
    List.concat_map
      (fun ((r : Rule.t), items, misses) ->
        let outcome =
          if misses = 0 then Some (List.map (fun (_, s) -> Kept (Option.get s)) items)
          else begin
            let o = outcomes.(!next) in
            incr next;
            o
          end
        in
        match outcome with
        | Some results ->
            List.map2
              (fun (k, _) result ->
                match result with
                | Kept s -> (r, k.site, gain s.verdict)
                | Made s ->
                    let g = gain s.verdict in
                    incr made;
                    record_eval r { result = g; dt = s.took };
                    if keeps r && 4 * n > s.floor then fresh := (k, s) :: !fresh;
                    (r, k.site, g))
              items results
        | None ->
            (* The whole task is written off (and its rule quarantined):
               a raising rule, a deadline overrun or a stall are all
               contained, never escalated. *)
            made := !made + misses;
            [])
      plans
  in
  if Hashtbl.length session.Rule.quarantine <> known then forget table
  else List.iter (fun (k, s) -> k.eval <- Some s) !fresh;
  (match budget with
  | Some b ->
      for _ = 1 to !made do
        Budget.eval b
      done
  | None -> ());
  (scored, quiet)

let candidate_gains ?(table = new_table ()) ~exec ~cost ctx ~cleanups rules =
  fst (score table ~exec ~cost ctx ~cleanups rules)

type step = Committed of application | Refused | Quiescent

(* The least gain a step commits. *)
let min_gain = 1e-9

(* One greedy step: score the candidates, merge — (rule index, site
   ordinal) order, the earlier candidate wins ties — and re-apply the
   winner through [commit_app] if it improves the cost by more than
   [min_gain].  A commit refreshes the table on its entries.  When
   every cleanup is local, a commit from a cleanup-quiet state runs its
   cleanups near its own edits.  A refused commit that quarantined the
   winner's rule is [Refused], so a pass goes on without that rule. *)
let greedy_step ?budget ?(table = new_table ()) ~exec ~cost ctx ~cleanups rules =
  match budget with
  | Some b when Budget.exhausted b -> Quiescent
  | _ -> (
      let scored, quiet = score ?budget table ~exec ~cost ctx ~cleanups rules in
      let best =
        List.fold_left
          (fun best ((r : Rule.t), site, g) ->
            match (g, best) with
            | Error _, _ -> best
            | Ok gain, Some { gain = g; _ } when g >= gain -> best
            | Ok gain, _ -> Some { rule = r; site; gain })
          None scored
      in
      match best with
      | Some app when app.gain > min_gain -> (
          let generation = D.generation ctx.Rule.design in
          let near = quiet && all_local cleanups in
          match commit_app ?budget ~near ctx ~cleanups app with
          | Some entries ->
              refresh table ctx ~generation entries;
              Committed app
          | None ->
              if is_quarantined ctx.Rule.session app.rule.Rule.rule_name then
                Refused
              else Quiescent)
      | Some _ | None -> Quiescent)

let greedy_pass ?(max_steps = 1000) ?budget ?(exec = Exec.inline ()) ~cost ctx
    ~cleanups rules =
  let table = new_table () in
  let stop n =
    n >= max_steps
    || match budget with Some b -> Budget.exhausted b | None -> false
  in
  let rec go n acc =
    if stop n then List.rev acc
    else
      match greedy_step ?budget ~table ~exec ~cost ctx ~cleanups rules with
      | Committed app -> go (n + 1) (app :: acc)
      | Refused -> go (n + 1) acc
      | Quiescent -> List.rev acc
  in
  go 0 []

(* --- OPS-style strictly rule-based control --------------------------- *)

type ops_state = {
  fired : (string * int list, unit) Hashtbl.t;  (* refraction memory *)
  recency : (int, int) Hashtbl.t;  (* comp -> timestamp *)
  mutable clock : int;
}

let ops_create () =
  { fired = Hashtbl.create 256; recency = Hashtbl.create 256; clock = 0 }

let ops_recency st cid =
  Option.value ~default:0 (Hashtbl.find_opt st.recency cid)

let ops_touch st cids =
  st.clock <- st.clock + 1;
  List.iter (fun cid -> Hashtbl.replace st.recency cid st.clock) cids

(* One recognize-act cycle over the sites [matches] gives each rule:
   conflict set = every (rule, site) match not yet fired; resolution:
   refraction, then recency of the matched components, then
   specificity (site size), then rule order.  The winner fires through
   its raw [apply], and its edits are committed and fed to the
   session's shared analysis.  Returns [None] when the conflict set is
   empty, else whether the firing applied, the generation it fired
   from and the entries it committed. *)
let ops_fire ctx st rules ~matches =
  let conflict =
    List.concat_map
      (fun (r : Rule.t) ->
        List.filter_map
          (fun (site : Rule.site) ->
            let key = (r.Rule.rule_name, site.Rule.site_comps) in
            if Hashtbl.mem st.fired key then None else Some (r, site))
          (matches r))
      rules
  in
  (* Third tie-break: rule order — the earlier a rule appears in the
     supplied list, the higher it scores. *)
  let rule_index = Hashtbl.create 16 in
  List.iteri
    (fun i (r : Rule.t) ->
      if not (Hashtbl.mem rule_index r.Rule.rule_name) then
        Hashtbl.replace rule_index r.Rule.rule_name i)
    rules;
  let score (r, (site : Rule.site)) =
    let rec_max =
      List.fold_left (fun acc c -> max acc (ops_recency st c)) 0
        site.Rule.site_comps
    in
    ( rec_max,
      List.length site.Rule.site_comps,
      -(Option.value ~default:max_int
          (Hashtbl.find_opt rule_index r.Rule.rule_name)) )
  in
  match conflict with
  | [] -> None
  | first :: rest ->
      let r, site =
        List.fold_left
          (fun acc cand -> if score cand > score acc then cand else acc)
          first rest
      in
      let generation = D.generation ctx.Rule.design in
      let log = D.new_log () in
      let applied = r.Rule.apply ctx site log in
      let entries = D.entries log in
      D.commit ~label:r.Rule.rule_name ~design:ctx.Rule.design log;
      Rule.advance_analysis ctx ~generation entries;
      if applied then lint_after ctx r.Rule.rule_name;
      Hashtbl.replace st.fired (r.Rule.rule_name, site.Rule.site_comps) ();
      if applied then ops_touch st site.Rule.site_comps;
      Some (applied, generation, entries)

let ops_cycle ctx st rules =
  Option.is_some (ops_fire ctx st rules ~matches:(fun (r : Rule.t) -> r.Rule.find ctx))

(* The naive matcher: every cycle finds every rule over the whole
   design.  At most 2000 cycles; returns the cycle count. *)
let ops_run ctx rules =
  let st = ops_create () in
  let rec go n = if n < 2000 && ops_cycle ctx st rules then go (n + 1) else n in
  go 0

(* Incremental recognize-act, the Rete discipline of Section 2.2.1:
   "once a test has been performed on a tree node, it is not redone
   until a change in data occurs upon which the attribute is dependent".
   The same cycle as [ops_run] reads its conflict set from a table:
   each local rule's sites are kept across firings and re-matched only
   on each firing's extent, so every cycle sees what a full scan would,
   and [ops_run] fires exactly the same sites.  Any other rule is found
   in full every cycle.  At most 100000 cycles; returns the firings
   that applied. *)
let ops_run_incremental ctx rules =
  let st = ops_create () and table = conflict_set ~guarded:false in
  let rec go cycles applied =
    if cycles >= 100_000 then applied
    else
      match ops_fire ctx st rules ~matches:(sites table ctx) with
      | None -> applied
      | Some (ok, generation, entries) ->
          refresh table ctx ~generation entries;
          go (cycles + 1) (if ok then applied + 1 else applied)
  in
  go 0 0
