(* Fault-injection suite — the resilience layer's tier-1 gate.

   - a fault injected at each transforming stage (micro, compile,
     techmap, optimize), for every Figure 19 suite design, degrades the
     flow to a [Partial] outcome whose last good checkpoint is the
     preceding stage and lints clean — never an uncaught exception;
   - off-the-books netlist corruption is caught the same way;
   - a 0-step budget terminates the flow [Complete], with the mapped
     design produced and [budget_exhausted] set;
   - a rule raising mid-edit is rolled back through its own sub-log
     (design restored exactly) and quarantined for the rest of the
     pass;
   - torn writes: a journal truncated at every byte offset recovers to
     its longest valid record prefix without raising, and a streamed
     JSONL trace truncated anywhere in its final line keeps every
     complete line intact. *)

module D = Milo_netlist.Design
module Flow = Milo.Flow
module Lint = Milo_lint.Lint
module Engine = Milo_rules.Engine
module Budget = Milo_rules.Budget
module Suite = Milo_designs.Suite
module Faults = Milo_faults

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

(* Lint environment for checkpoint designs: generic plus the ECL target
   (the suite runs ECL flows), resolving compiled sub-designs through
   the partial outcome's database. *)
let lint_env db =
  let techs =
    [
      Milo_library.Generic.get ();
      (Flow.target_of Flow.Ecl).Milo_techmap.Table_map.tech;
    ]
  in
  (Milo_compilers.Database.resolver db techs, Flow.seq_classifier techs)

let assert_lint_clean what db design =
  let resolve, is_sequential = lint_env db in
  let diags = Lint.run ~resolve ~is_sequential design in
  match Lint.errors diags with
  | [] -> ()
  | errs ->
      fail "%s: last-good design has %d lint error(s)" what (List.length errs);
      List.iter
        (fun d -> Printf.printf "     %s\n" (Milo_lint.Diagnostic.to_string d))
        errs

let prev_stage = function
  | Flow.Micro -> Flow.Capture
  | Flow.Compile -> Flow.Micro
  | Flow.Techmap -> Flow.Compile
  | Flow.Optimize -> Flow.Techmap
  | Flow.Capture -> Flow.Capture

let check_partial what stage = function
  | Flow.Partial p ->
      if p.Flow.failed_stage <> stage then
        fail "%s: failed stage %s, expected %s" what
          (Flow.stage_name p.Flow.failed_stage)
          (Flow.stage_name stage);
      if p.Flow.last_good.Flow.ck_stage <> prev_stage stage then
        fail "%s: last good checkpoint %s, expected %s" what
          (Flow.stage_name p.Flow.last_good.Flow.ck_stage)
          (Flow.stage_name (prev_stage stage));
      if p.Flow.failure.Flow.err_message = "" then
        fail "%s: empty error message" what;
      assert_lint_clean what p.Flow.partial_database
        p.Flow.last_good.Flow.ck_design;
      Printf.printf "ok   %s -> partial after %s (%s)\n" what
        (Flow.stage_name p.Flow.last_good.Flow.ck_stage)
        p.Flow.failure.Flow.err_message
  | Flow.Complete _ -> fail "%s: expected Partial, flow completed" what

let inject_stage (case : Suite.case) stage =
  let what =
    Printf.sprintf "design %s, fault at %s" case.Suite.case_name
      (Flow.stage_name stage)
  in
  match
    Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
      ~lint:Lint.Strict
      ~hooks:(Faults.failing_hooks ~at:stage ())
      case.Suite.case_design
  with
  | outcome -> check_partial what stage outcome
  | exception e -> fail "%s: uncaught %s" what (Printexc.to_string e)

let inject_corruption (case : Suite.case) =
  let what = Printf.sprintf "design %s, corruption at micro" case.Suite.case_name in
  match
    Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
      ~lint:Lint.Strict
      ~hooks:(Faults.corrupting_hooks ~at:Flow.Micro ())
      case.Suite.case_design
  with
  | outcome -> check_partial what Flow.Micro outcome
  | exception e -> fail "%s: uncaught %s" what (Printexc.to_string e)

(* --- Budgets ----------------------------------------------------------- *)

let zero_budget (case : Suite.case) =
  let what = Printf.sprintf "design %s, 0-step budget" case.Suite.case_name in
  match
    Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
      ~budget:(Faults.exhausted_budget ())
      case.Suite.case_design
  with
  | Flow.Complete res ->
      let b = res.Flow.budget in
      if not b.Budget.budget_exhausted then
        fail "%s: budget_exhausted not set" what;
      if b.Budget.steps_used <> 0 then
        fail "%s: %d steps committed under a 0-step budget" what
          b.Budget.steps_used;
      if D.num_comps res.Flow.optimized = 0 then
        fail "%s: no mapped design produced" what;
      Printf.printf "ok   %s -> complete, unoptimized (%d comps)\n" what
        (D.num_comps res.Flow.optimized)
  | Flow.Partial p ->
      fail "%s: degraded at %s (%s)" what
        (Flow.stage_name p.Flow.failed_stage)
        p.Flow.failure.Flow.err_message
  | exception e -> fail "%s: uncaught %s" what (Printexc.to_string e)

(* --- Engine transactions ----------------------------------------------- *)

let ctx_for design =
  let lib = Milo_library.Generic.get () in
  let db = Milo_compilers.Database.create () in
  Milo_rules.Rule.make_context
    ~extra_resolve:(Milo_compilers.Database.resolver db [ lib ])
    lib
    (Milo_compilers.Gate_comp.generic_set lib)
    design

let comp_count (ctx : Milo_rules.Rule.context) () =
  float_of_int (D.num_comps ctx.Milo_rules.Rule.design)

let engine_rollback () =
  let d = Suite.accumulator () in
  let before = D.copy d in
  let ctx = ctx_for d in
  let apps =
    Engine.greedy_pass ~cost:(Engine.Measured comp_count) ctx ~cleanups:[]
      [ Faults.sabotage_rule () ]
  in
  let session = ctx.Milo_rules.Rule.session in
  if apps <> [] then fail "engine rollback: sabotage rule committed";
  if not (D.equal_structure before d) then
    fail "engine rollback: design not restored after mid-edit failure";
  if not (Engine.is_quarantined session "fault-sabotage") then
    fail "engine rollback: rule not quarantined";
  match Engine.quarantined session with
  | [ ("fault-sabotage", n) ] when n >= 1 ->
      Printf.printf "ok   engine rollback (quarantined after %d failure(s))\n" n
  | q -> fail "engine rollback: unexpected quarantine set (%d entries)"
           (List.length q)

let engine_raising () =
  let d = Suite.accumulator () in
  let before = D.copy d in
  let ctx = ctx_for d in
  let apps =
    Engine.greedy_pass ~cost:(Engine.Measured comp_count) ctx ~cleanups:[]
      [ Faults.raising_rule () ]
  in
  if apps <> [] then fail "engine raising: raising rule committed";
  if not (D.equal_structure before d) then
    fail "engine raising: design mutated by a rule that only raises";
  if not (Engine.is_quarantined ctx.Milo_rules.Rule.session "fault-raising")
  then fail "engine raising: rule not quarantined"
  else Printf.printf "ok   engine raising-rule quarantine\n"

(* A flow run has its own quarantine and reports it. *)
let quarantine_reporting () =
  let case = List.hd (Suite.all ()) in
  match
    Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
      case.Suite.case_design
  with
  | Flow.Complete res ->
      if res.Flow.quarantined <> [] then
        fail "quarantine report: healthy flow quarantined %d rule(s)"
          (List.length res.Flow.quarantined)
      else Printf.printf "ok   quarantine report empty on healthy flow\n"
  | Flow.Partial p ->
      fail "quarantine report: healthy flow degraded at %s"
        (Flow.stage_name p.Flow.failed_stage)
  | exception e ->
      fail "quarantine report: uncaught %s" (Printexc.to_string e)

(* --- Domain-pool faults ------------------------------------------------- *)

module Pool = Milo_parallel.Pool
module Exec = Milo_parallel.Exec

(* Every fault class a supervised task can exhibit — raise, deadline
   overrun, stall — comes back as its typed [Task_failed]; healthy
   tasks interleaved with them still settle [Done]; and after a stall
   writes a worker off, the replacement keeps the pool serving.  The
   whole batch must terminate (the suite would hang here if
   supervision leaked). *)
let pool_fault_classification () =
  match Pool.create ~stall_timeout:0.2 ~force:true ~domains:2 () with
  | None -> fail "pool faults: forced 2-domain pool did not construct"
  | Some p ->
      let deadline = Unix.gettimeofday () +. 0.4 in
      let outcomes =
        Pool.run p ~deadline
          [
            (fun () -> 7);
            Faults.raising_task ();
            Faults.looping_task ();
            Faults.stalling_task ~seconds:1.2 ();
          ]
      in
      (match outcomes.(0) with
      | Pool.Done 7 -> ()
      | _ -> fail "pool faults: healthy task did not settle Done");
      (match outcomes.(1) with
      | Pool.Task_failed (Pool.Raised { exn; _ }) ->
          let has_sub s sub =
            let n = String.length s and m = String.length sub in
            let rec go i =
              i + m <= n && (String.sub s i m = sub || go (i + 1))
            in
            go 0
          in
          if not (has_sub exn "Injected") then
            fail "pool faults: raised fault lost the exception text (%s)" exn
      | _ -> fail "pool faults: raising task not classified Raised");
      (match outcomes.(2) with
      | Pool.Task_failed Pool.Deadline -> ()
      | _ -> fail "pool faults: polling looper not cancelled at the deadline");
      (match outcomes.(3) with
      | Pool.Task_failed Pool.Stalled -> ()
      | _ -> fail "pool faults: non-polling task not abandoned as Stalled");
      (* The stall wrote one worker off; the replacement must leave the
         pool fully operational. *)
      let again = Pool.run p [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ] in
      Array.iteri
        (fun i o ->
          match o with
          | Pool.Done v when v = i + 1 -> ()
          | _ -> fail "pool faults: post-replacement task %d did not settle" i)
        again;
      Pool.shutdown p;
      if !failures = 0 then
        Printf.printf "ok   pool fault classification + worker replacement\n"

(* Inline supervision: the same classification without any pool — the
   [--domains 1] and degraded paths contain faults identically (stall
   detection excepted, which needs a watchdog domain). *)
let inline_fault_classification () =
  let deadline = Unix.gettimeofday () +. 0.2 in
  let outcomes =
    Pool.run_inline ~deadline
      [ (fun () -> 7); Faults.raising_task (); Faults.looping_task () ]
  in
  (match outcomes.(0) with
  | Pool.Done 7 -> ()
  | _ -> fail "inline faults: healthy task did not settle Done");
  (match outcomes.(1) with
  | Pool.Task_failed (Pool.Raised _) -> ()
  | _ -> fail "inline faults: raising task not classified Raised");
  (match outcomes.(2) with
  | Pool.Task_failed Pool.Deadline -> ()
  | _ -> fail "inline faults: polling looper not cancelled inline");
  if !failures = 0 then Printf.printf "ok   inline fault classification\n"

(* The engine's parallel greedy pass over injected faulty rules: each
   faulting task quarantines its rule — the pass completes, commits
   nothing from the faulty rule, and no exception escapes. *)
let engine_parallel_faults () =
  let run_with what exec rule expect_note =
    let d = Suite.accumulator () in
    let before = D.copy d in
    let ctx = ctx_for d in
    match
      Engine.greedy_pass ~exec ~cost:(Engine.Measured comp_count) ctx
        ~cleanups:[] [ rule ]
    with
    | apps ->
        if apps <> [] then fail "%s: faulty rule committed" what;
        if not (D.equal_structure before d) then
          fail "%s: design mutated by a contained fault" what;
        (match Engine.quarantined ctx.Milo_rules.Rule.session with
        | [ (name, _) ] ->
            if name <> expect_note then
              fail "%s: quarantined %s, expected %s" what name expect_note
        | q ->
            fail "%s: expected exactly one quarantined rule, got %d" what
              (List.length q));
        Printf.printf "ok   %s\n" what
    | exception e -> fail "%s: escaped exception %s" what (Printexc.to_string e)
  in
  (* Raising rule, inline plan: the engine-level quarantine fires inside
     the worker task and is imported deterministically. *)
  run_with "engine parallel raising (inline)"
    (Exec.inline ())
    (Faults.raising_rule ()) "fault-raising";
  (* Looping rule under a deadline, inline plan: cancelled at its first
     poll past the deadline, quarantined as a deadline fault. *)
  run_with "engine parallel deadline (inline)"
    (Exec.inline ~deadline:(Unix.gettimeofday () +. 0.2) ())
    (Faults.looping_rule ()) "fault-looping";
  (* The same two through a real (forced) pool. *)
  (match Pool.create ~stall_timeout:0.25 ~force:true ~domains:2 () with
  | None -> fail "engine parallel: forced pool did not construct"
  | Some p ->
      run_with "engine parallel raising (pooled)" (Exec.pooled p)
        (Faults.raising_rule ()) "fault-raising";
      run_with "engine parallel deadline (pooled)"
        (Exec.pooled ~deadline:(Unix.gettimeofday () +. 0.2) p)
        (Faults.looping_rule ()) "fault-looping";
      (* Stalling rule: only the pooled watchdog can contain it. *)
      run_with "engine parallel stall (pooled)" (Exec.pooled p)
        (Faults.stalling_rule ~seconds:1.2 ()) "fault-stalling";
      Pool.shutdown p)

(* Flow-level degradation: when the pool cannot be constructed the run
   completes sequentially and says so — the Degraded_to_sequential
   note in the result. *)
let flow_degraded_to_sequential () =
  let case = List.hd (Suite.all ()) in
  Pool.fail_spawn_for_testing := true;
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
       ~domains:4 ~force_domains:true case.Suite.case_design
   with
  | Flow.Complete res ->
      if not (List.mem "Degraded_to_sequential" res.Flow.notes) then
        fail "degradation: no Degraded_to_sequential note in the result"
  | Flow.Partial p ->
      fail "degradation: flow degraded at %s instead of running inline"
        (Flow.stage_name p.Flow.failed_stage)
  | exception e ->
      fail "degradation: uncaught %s" (Printexc.to_string e));
  Pool.fail_spawn_for_testing := false;
  if !failures = 0 then
    Printf.printf "ok   flow degrades to sequential with a note\n"

(* --- Torn writes -------------------------------------------------------- *)

module J = Milo_journal.Journal

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Truncate a finished journal at every byte offset and recover each
   image: recovery must never raise, the recovered records must be a
   prefix of the full record list, the count must grow monotonically
   with the cut point, and a cut inside the final record must recover
   exactly all records before it with the torn tail reported. *)
let torn_journal () =
  let case = List.hd (Suite.all ()) in
  let journal = Filename.temp_file "milo_torn_journal" ".mjl" in
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
       ~journal case.Suite.case_design
   with
  | Flow.Complete _ -> ()
  | Flow.Partial _ | (exception _) -> fail "torn journal: reference run failed");
  let bytes = read_file journal in
  let full = J.recover journal in
  let total = List.length full.J.r_records in
  if full.J.r_truncated_bytes <> 0 then
    fail "torn journal: clean journal reports a torn tail";
  let cut = Filename.temp_file "milo_torn_cut" ".mjl" in
  let prefix l1 l2 =
    List.length l1 <= List.length l2
    && List.for_all2 (fun a b -> a = b) l1
         (List.filteri (fun i _ -> i < List.length l1) l2)
  in
  let last_count = ref (-1) in
  for len = 0 to String.length bytes - 1 do
    write_file cut (String.sub bytes 0 len);
    match J.recover cut with
    | rc ->
        let n = List.length rc.J.r_records in
        if n < !last_count then
          fail "torn journal: cut at %d recovered %d records, cut before \
                recovered %d"
            len n !last_count;
        last_count := max !last_count n;
        if n >= total then
          fail "torn journal: cut at %d/%d recovered all %d records" len
            (String.length bytes) total;
        if not (prefix rc.J.r_records full.J.r_records) then
          fail "torn journal: cut at %d recovered a non-prefix" len;
        if rc.J.r_truncated_bytes < 0 || rc.J.r_truncated_bytes > len then
          fail "torn journal: cut at %d reports %d torn bytes" len
            rc.J.r_truncated_bytes
    | exception e ->
        fail "torn journal: recovery raised at cut %d: %s" len
          (Printexc.to_string e)
  done;
  Sys.remove cut;
  Sys.remove journal;
  Printf.printf "ok   torn journal (%d records, %d cut points)\n" total
    (String.length bytes)

(* Truncate a streamed JSONL trace at every byte offset of its final
   line: every complete line of the cut image must be byte-identical to
   the corresponding line of the full file — the torn tail only ever
   costs the line it landed in. *)
let torn_trace () =
  let case = List.hd (Suite.all ()) in
  let path = Filename.temp_file "milo_torn_trace" ".jsonl" in
  let oc = open_out_bin path in
  let t = Milo_trace.Trace.create () in
  Milo_trace.Trace.add_sink t (Milo_trace.Export.jsonl_sink oc);
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints ~trace:t
       case.Suite.case_design
   with
  | Flow.Complete _ -> ()
  | Flow.Partial _ | (exception _) -> fail "torn trace: reference run failed");
  close_out oc;
  let bytes = read_file path in
  let full_lines = String.split_on_char '\n' bytes in
  let complete_lines s =
    (* lines before the last newline; a trailing fragment is torn *)
    match List.rev (String.split_on_char '\n' s) with
    | _fragment :: rest -> List.rev rest
    | [] -> []
  in
  let full = complete_lines bytes in
  if List.length full < 4 then fail "torn trace: suspiciously short trace";
  List.iter
    (fun l ->
      if l = "" || l.[0] <> '{' || l.[String.length l - 1] <> '}' then
        fail "torn trace: malformed full line %S" l)
    full;
  let last_line_start =
    String.length bytes - String.length (List.nth full_lines (List.length full_lines - 2)) - 1
  in
  for len = last_line_start to String.length bytes - 1 do
    let kept = complete_lines (String.sub bytes 0 len) in
    if List.length kept <> List.length full - 1 then
      fail "torn trace: cut at %d kept %d lines, expected %d" len
        (List.length kept)
        (List.length full - 1);
    List.iteri
      (fun i l ->
        if l <> List.nth full i then
          fail "torn trace: cut at %d corrupted line %d" len i)
      kept
  done;
  Sys.remove path;
  Printf.printf "ok   torn trace (%d lines, %d cut points)\n"
    (List.length full)
    (String.length bytes - last_line_start)

let () =
  let cases = Suite.all () in
  let stages = [ Flow.Micro; Flow.Compile; Flow.Techmap; Flow.Optimize ] in
  List.iter (fun c -> List.iter (inject_stage c) stages) cases;
  List.iter inject_corruption cases;
  List.iter zero_budget cases;
  engine_rollback ();
  engine_raising ();
  quarantine_reporting ();
  pool_fault_classification ();
  inline_fault_classification ();
  engine_parallel_faults ();
  flow_degraded_to_sequential ();
  torn_journal ();
  torn_trace ();
  if !failures > 0 then begin
    Printf.printf "fault_suite: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "fault_suite: all clean"
