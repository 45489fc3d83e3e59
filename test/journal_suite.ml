(* Journal suite — durability tier-1 gate.

   - record round-trip: every record type written through the framing
     survives recovery bit-exactly, and a design snapshot restores
     id-exactly (same structure, same hash, same counters);
   - crash fuzz: for every Figure 19 suite design, a journaled flow
     killed after each journal record and resumed from the file yields
     the same final design, guard statistics, budget consumption and
     report cost as the uninterrupted run, and leaves the uninterrupted
     run's journal (wall-clock fields aside), which replays with zero
     divergences;
   - killed resume: a resumed run killed after any record leaves a
     journal the next resume continues to the uninterrupted run's
     result and records;
   - replay: a clean run's journal replays with zero divergences under
     the Full guard; a tampered trajectory is pinpointed;
   - early kills: a run killed at its first or second record closes
     its journal writer and shuts its domain pool;
   - resume refusal: a journal without a committed checkpoint raises
     [Flow.Journal_error] instead of fabricating state, and is left
     untouched;
   - legacy header: a journal whose header predates the always-written
     [domains] line, and still carries the retired [incremental] line,
     reads as one domain and resumes to the uninterrupted run's result;
   - legacy deltas: a journal whose deltas predate the attribution,
     budget and shape lines decodes with those fields absent, replays
     cleanly and resumes to the uninterrupted run's result;
   - legacy traced journal: a checked-in journal whose checkpoints
     still carry the retired [trace] line recovers every record and
     replays to its Finish record with zero divergences;
   - size: a journal's size does not depend on its budget clock: one
     run's records written with other elapsed times take the same
     bytes, and every elapsed time reads back exactly. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module J = Milo_journal.Journal
module Flow = Milo.Flow
module Guard = Milo_guard.Guard
module Budget = Milo_rules.Budget
module Suite = Milo_designs.Suite
module Faults = Milo_faults
module P = Milo_provenance.Provenance

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let temp_journal tag =
  Filename.temp_file ("milo_journal_" ^ tag ^ "_") ".mjl"

let cleanup path =
  if Sys.file_exists path then Sys.remove path;
  if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp")

(* --- Record round-trip -------------------------------------------------- *)

let sample_design () =
  let d = D.create "rt" in
  let a = D.add_port d "a" T.Input in
  let b = D.add_port d "b" T.Input in
  let y = D.add_port d "y" T.Output in
  let g = D.add_comp ~name:"weird \"name\"\n\ttab" d (T.Gate (T.And, 2)) in
  D.connect d g "A0" a;
  D.connect d g "A1" b;
  D.connect d g "Y" y;
  (* burn some ids so the counters are ahead of the live objects *)
  let scratch = D.add_comp d (T.Gate (T.Inv, 1)) in
  let n = D.new_net d in
  ignore n;
  D.remove_comp d scratch;
  d

let round_trip () =
  let path = temp_journal "roundtrip" in
  let d = sample_design () in
  let header =
    {
      J.h_design = "rt";
      h_hash = J.design_hash d;
      h_tech = "ecl";
      h_required = 5.5;
      h_arrivals = [ ("a", 0.5); ("b", 1.25) ];
      h_lint = "warn";
      h_guard = "sampled";
      h_certify = false;
      h_timeout = Some 12.5;
      h_max_steps = None;
      h_max_evals = Some 77;
      h_domains = 4;
    }
  in
  let records =
    [
      J.Stage "micro";
      J.Delta
        {
          d_stage = "micro";
          d_label = Some "some rule";
          d_hash = Some (J.design_hash d);
          d_entries =
            [
              D.E_add_comp (9, "c \"q\"", T.Gate (T.Nand, 3));
              D.E_connect (9, "I1", None, Some 2);
              D.E_connect (9, "I2", Some 2, None);
              D.E_add_net (12, "n12");
              D.E_remove_net (13, "gone", Some ("p", T.Output));
              D.E_set_kind (9, T.Gate (T.Nand, 3), T.Gate (T.Nor, 3));
              D.E_remove_comp (9, "c", T.Gate (T.Nor, 3), [ ("I1", 2) ]);
            ];
          d_attr =
            {
              D.at_site = Some "site \"digest\"";
              at_verdict = Some D.Checked;
              (* %.12g would not round-trip these; the journal's %h must *)
              at_before =
                Some
                  {
                    Milo_trace.Trace.delay = 0.1 +. 0.2;
                    area = 1.0 /. 3.0;
                    power = 17.2;
                  };
              at_after =
                Some
                  {
                    Milo_trace.Trace.delay = infinity;
                    area = 0.0;
                    power = -2.5e-300;
                  };
            };
          d_budget = Some (3, 41, 0.1 +. 0.2);
          d_shape = Some (11, 14);
        };
      J.Delta
        {
          d_stage = "optimize";
          d_label = None;
          d_hash = None;
          d_entries = [ D.E_add_net (14, "n14") ];
          d_attr = D.no_attribution;
          d_budget = None;
          d_shape = None;
        };
      J.Checkpoint
        {
          J.ck_stage = "micro";
          ck_steps = 3;
          ck_evals = 41;
          ck_elapsed = 0.125;
          ck_guard = [| 1; 0; 17; 2; 3; 4 |];
          ck_tick = 9;
          ck_seen = [ "r1"; "r2 with space" ];
          ck_quarantine = [ ("bad-rule", 2, "it raised: \"x\"", "raised") ];
          ck_micro = [ ("carry-select", "adder u1") ];
          ck_levels = [ ("sub", 4, 100.5, 90.25) ];
          ck_timing =
            Some
              {
                J.t_met = true;
                t_final = 4.75;
                t_steps = [ ("resize", "gate g3", 6.5, 4.75) ];
              };
          ck_design = d;
        };
      J.Finish
        {
          f_outcome = "complete";
          f_delay = 4.75;
          f_area = 90.25;
          f_power = 12.5;
          f_gates = 30;
          f_comps = 11;
        };
    ]
  in
  let w = J.create path in
  J.append w (J.Header header);
  List.iter
    (fun r -> match r with J.Checkpoint _ -> J.commit w r | r -> J.append w r)
    records;
  J.close w;
  let rc = J.recover path in
  if rc.J.r_truncated_bytes <> 0 then
    fail "round-trip: %d bytes reported torn on a clean journal"
      rc.J.r_truncated_bytes;
  (match rc.J.r_records with
  | J.Header h :: rest ->
      if h <> header then fail "round-trip: header changed";
      List.iter2
        (fun written recovered ->
          match (written, recovered) with
          | J.Checkpoint a, J.Checkpoint b ->
              if
                { a with J.ck_design = b.J.ck_design } <> b
                || not (D.equal_structure a.J.ck_design b.J.ck_design)
              then fail "round-trip: checkpoint changed";
              if J.design_hash a.J.ck_design <> J.design_hash b.J.ck_design
              then fail "round-trip: snapshot hash changed";
              if D.counters a.J.ck_design <> D.counters b.J.ck_design then
                fail "round-trip: snapshot counters changed"
          | a, b -> if a <> b then fail "round-trip: record changed")
        records rest
  | _ -> fail "round-trip: header not first");
  if not (J.finished rc) then fail "round-trip: Finish not detected";
  cleanup path;
  if !failures = 0 then Printf.printf "ok   record round-trip\n"

(* --- Crash fuzz --------------------------------------------------------- *)

let guard_counters (g : Guard.stats) =
  [
    g.Guard.stage_checks;
    g.Guard.stage_mismatches;
    g.Guard.rule_checks;
    g.Guard.rule_mismatches;
    g.Guard.rule_skipped;
    g.Guard.rule_certified;
  ]

let same_stats (a : Flow.stats) (b : Flow.stats) =
  a.Flow.delay = b.Flow.delay
  && a.Flow.area = b.Flow.area
  && a.Flow.power = b.Flow.power
  && a.Flow.gates = b.Flow.gates
  && a.Flow.comps = b.Flow.comps

let report_cost (r : Milo_optimizer.Logic_optimizer.report) =
  ( List.map
      (fun (e : Milo_optimizer.Logic_optimizer.report_entry) ->
        ( e.Milo_optimizer.Logic_optimizer.level_design,
          e.Milo_optimizer.Logic_optimizer.applications,
          e.Milo_optimizer.Logic_optimizer.area_before,
          e.Milo_optimizer.Logic_optimizer.area_after ))
      r.Milo_optimizer.Logic_optimizer.entries,
    match r.Milo_optimizer.Logic_optimizer.timing with
    | None -> None
    | Some t ->
        Some
          ( t.Milo_optimizer.Time_opt.met,
            t.Milo_optimizer.Time_opt.final_delay,
            List.length t.Milo_optimizer.Time_opt.steps ) )

let compare_results what (ref_res : Flow.result) (res : Flow.result) =
  if not (D.equal_structure ref_res.Flow.optimized res.Flow.optimized) then
    fail "%s: final design diverged" what;
  if not (same_stats ref_res.Flow.final res.Flow.final) then
    fail "%s: final stats diverged" what;
  if
    guard_counters ref_res.Flow.guard_stats
    <> guard_counters res.Flow.guard_stats
  then fail "%s: guard stats diverged" what;
  if ref_res.Flow.micro_applications <> res.Flow.micro_applications then
    fail "%s: micro applications diverged" what;
  if ref_res.Flow.quarantined <> res.Flow.quarantined then
    fail "%s: quarantine diverged" what;
  if report_cost ref_res.Flow.optimizer_report
     <> report_cost res.Flow.optimizer_report
  then fail "%s: optimizer report diverged" what;
  if
    ref_res.Flow.budget.Budget.steps_used <> res.Flow.budget.Budget.steps_used
    || ref_res.Flow.budget.Budget.evals_used
       <> res.Flow.budget.Budget.evals_used
  then
    fail "%s: budget consumption diverged (%d/%d vs %d/%d)" what
      ref_res.Flow.budget.Budget.steps_used
      ref_res.Flow.budget.Budget.evals_used res.Flow.budget.Budget.steps_used
      res.Flow.budget.Budget.evals_used

(* A record with its wall-clock fields zeroed and its snapshot set
   aside, so two runs' records compare with [=]. *)
let placeholder = D.create "snapshot"

let timeless = function
  | J.Delta d ->
      J.Delta
        { d with d_budget = Option.map (fun (s, e, _) -> (s, e, 0.0)) d.d_budget }
  | J.Checkpoint ck ->
      J.Checkpoint { ck with J.ck_elapsed = 0.0; ck_design = placeholder }
  | r -> r

(* The journal at [path] holds exactly the [expected] records, up to
   wall-clock fields, with structurally equal snapshots. *)
let same_records what expected path =
  let got = (J.recover path).J.r_records in
  if List.length got <> List.length expected then
    fail "%s: the journal holds %d records, the uninterrupted run's %d" what
      (List.length got) (List.length expected)
  else
    List.iteri
      (fun i (a, b) ->
        let same_snapshot =
          match (a, b) with
          | J.Checkpoint x, J.Checkpoint y ->
              D.equal_structure x.J.ck_design y.J.ck_design
          | _ -> true
        in
        if timeless a <> timeless b || not same_snapshot then
          fail "%s: record %d differs from the uninterrupted run's" what (i + 1))
      (List.combine expected got)

let replays_clean what path =
  match Flow.replay path with
  | rep ->
      List.iter
        (fun d ->
          fail "%s: replay diverges at record %d [%s/%s]: %s" what
            d.Flow.div_record d.Flow.div_stage d.Flow.div_kind
            d.Flow.div_detail)
        rep.Flow.rep_divergences
  | exception e -> fail "%s: replay raised %s" what (Printexc.to_string e)

(* --- Journal size -------------------------------------------------------- *)

let file_size path = In_channel.with_open_bin path In_channel.length

(* One run's records, written again with each budget clock replaced:
   all zero, and values whose %h form is long.  Each journal takes the
   original's bytes and reads back every elapsed time it was given. *)
let size_independent_of_time (case : Suite.case) =
  let path = temp_journal "size" and failed = !failures in
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
       ~journal:path case.Suite.case_design
   with
  | Flow.Complete _ -> ()
  | Flow.Partial _ -> fail "size: the journaled run degraded");
  let records = (J.recover path).J.r_records in
  let retimed f =
    List.map
      (function
        | J.Delta d ->
            J.Delta
              {
                d with
                d_budget = Option.map (fun (s, e, el) -> (s, e, f el)) d.d_budget;
              }
        | J.Checkpoint ck ->
            J.Checkpoint { ck with J.ck_elapsed = f ck.J.ck_elapsed }
        | r -> r)
      records
  in
  let clocks r =
    List.concat_map
      (function
        | J.Delta { d_budget = Some (_, _, el); _ } -> [ el ]
        | J.Checkpoint ck -> [ ck.J.ck_elapsed ]
        | _ -> [])
      r
  in
  let timed = List.length (clocks records) in
  if timed < 4 then fail "size: only %d records carry an elapsed time" timed;
  List.iter
    (fun (tag, f) ->
      let rs = retimed f in
      let p = temp_journal ("size_" ^ tag) in
      J.close (J.create ~prefix:rs p);
      if file_size p <> file_size path then
        fail "size: the journal with %s clocks takes %Ld bytes, the run's %Ld" tag
          (file_size p) (file_size path);
      let back = (J.recover p).J.r_records in
      if List.map timeless back <> List.map timeless rs then
        fail "size: the journal with %s clocks recovers other records" tag;
      if clocks back <> clocks rs then
        fail "size: the journal with %s clocks reads other elapsed times" tag;
      cleanup p)
    [
      ("zero", fun _ -> 0.0);
      ("long", fun el -> (el *. 3.7) +. (1.0 /. 3.0));
      ("large", fun el -> 1e6 +. el);
    ];
  cleanup path;
  if !failures = failed then
    Printf.printf "ok   journal size independent of %d elapsed times\n" timed

let crash_fuzz ?domains (case : Suite.case) =
  let name =
    match domains with
    | None -> case.Suite.case_name
    | Some n -> Printf.sprintf "%s@dom%d" case.Suite.case_name n
  in
  let path = temp_journal ("fuzz_" ^ name) in
  (* Reference: the uninterrupted journaled run. *)
  let reference =
    match
      Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
        ~guard:Guard.Sampled ~journal:path ?domains ~force_domains:true
        case.Suite.case_design
    with
    | Flow.Complete r -> r
    | Flow.Partial p ->
        fail "%s: reference run degraded at %s" name
          (Flow.stage_name p.Flow.failed_stage);
        raise Exit
    | exception e ->
        fail "%s: reference run raised %s" name (Printexc.to_string e);
        raise Exit
  in
  let records =
    let rc = J.recover path in
    if rc.J.r_truncated_bytes <> 0 then
      fail "%s: clean journal reports a torn tail" name;
    if not (J.finished rc) then fail "%s: clean journal lacks Finish" name;
    rc.J.r_records
  in
  let total = List.length records in
  let kills = ref 0 and failed = !failures in
  for n = 1 to total do
    let what = Printf.sprintf "%s killed after record %d" name n in
    match
      Faults.run_journaled_killed ~technology:Flow.Ecl
        ~constraints:case.Suite.constraints ~guard:Guard.Sampled ?domains
        ~force_domains:true ~journal:path n case.Suite.case_design
    with
    | Some (Flow.Complete r) ->
        (* The flow finished before writing n records — only possible
           when n exceeds the record count, i.e. never inside the
           loop's range except at the last record, where the kill fires
           after the file is already complete. *)
        compare_results what reference r
    | Some (Flow.Partial p) ->
        fail "%s: degraded at %s instead of crashing" what
          (Flow.stage_name p.Flow.failed_stage)
    | None -> (
        incr kills;
        (* The journal header carries the domain count, so resume
           re-enters under the same supervised-task semantics the
           killed run used. *)
        (match (domains, J.header (J.recover path)) with
        | Some n, Some h when h.J.h_domains <> n ->
            fail "%s: journal header lost the domain count" what
        | _ -> ());
        match Flow.resume ~force_domains:true path with
        | Flow.Complete r ->
            compare_results what reference r;
            (* The resumed run continued the journal: it now holds the
               uninterrupted run's records, and replays clean. *)
            same_records what records path;
            if n = total || case.Suite.case_name = "6" then
              replays_clean what path
        | Flow.Partial p ->
            fail "%s: resume degraded at %s (%s)" what
              (Flow.stage_name p.Flow.failed_stage)
              p.Flow.failure.Flow.err_message
        | exception Flow.Journal_error msg ->
            (* Killed before the first checkpoint committed: nothing to
               resume, and the error must say so. *)
            if n > 1 then fail "%s: resume refused: %s" what msg
        | exception e -> fail "%s: resume raised %s" what (Printexc.to_string e)
        )
  done;
  cleanup path;
  if !failures = failed then
    Printf.printf "ok   crash fuzz %-8s (%d records, %d kill points)\n" name
      total !kills

(* --- Killed resume -------------------------------------------------------- *)

(* A resumed run continues the journal, so a kill during the resume
   leaves a journal the next resume continues in turn.  Design 3's run
   is killed right after each of its checkpoint records; the resume is
   killed after each record it hands a provenance sink (the committed
   prefix first, then its own), by raising [Journal.Crash] as a kill
   does; then a clean resume must reach the uninterrupted run's final
   design, guard counters, budget and journal records, and no journal
   may be refused. *)
let killed_resume () =
  let case = Suite.design3 () in
  let path = temp_journal "rekill" in
  let reference =
    match
      Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
        ~guard:Guard.Sampled ~journal:path case.Suite.case_design
    with
    | Flow.Complete r -> r
    | Flow.Partial _ | (exception _) ->
        fail "killed resume: reference run failed";
        raise Exit
  in
  let records = (J.recover path).J.r_records in
  let total = List.length records in
  let checkpoints =
    List.concat
      (List.mapi
         (fun i r -> match r with J.Checkpoint _ -> [ i + 1 ] | _ -> [])
         records)
  in
  let cases = ref 0 and failed = !failures in
  List.iter
    (fun first ->
      for second = 1 to total do
        let what =
          Printf.sprintf "design 3 killed after record %d, its resume after %d"
            first second
        in
        incr cases;
        if
          Faults.run_journaled_killed ~technology:Flow.Ecl
            ~constraints:case.Suite.constraints ~guard:Guard.Sampled
            ~journal:path first case.Suite.case_design
          <> None
        then fail "%s: the first kill did not fire" what;
        let p = P.create () in
        let seen = ref 0 in
        P.add_sink p (fun _ ->
            incr seen;
            if !seen = second then raise (J.Crash second));
        (match Flow.resume ~provenance:p path with
        | _ -> fail "%s: the second kill did not fire" what
        | exception J.Crash _ -> ()
        | exception e ->
            fail "%s: the killed resume raised %s" what (Printexc.to_string e));
        match Flow.resume path with
        | Flow.Complete r ->
            compare_results what reference r;
            same_records what records path
        | Flow.Partial p ->
            fail "%s: resume degraded at %s" what
              (Flow.stage_name p.Flow.failed_stage)
        | exception Flow.Journal_error msg ->
            fail "%s: journal refused: %s" what msg
        | exception e -> fail "%s: resume raised %s" what (Printexc.to_string e)
      done)
    checkpoints;
  cleanup path;
  if !failures = failed then
    Printf.printf "ok   killed resume resumes (%d cases after checkpoints %s)\n"
      !cases
      (String.concat ", " (List.map string_of_int checkpoints))

(* --- Cleanup after an early kill ------------------------------------------ *)

(* A run killed at its first records (the Header, then the capture
   checkpoint) dies before any stage runs; it must still close its
   journal writer and shut its domain pool, as a later kill does.  The
   open descriptors and the threads of this process are counted around
   each killed run. *)
let entries dir = Array.length (Sys.readdir dir)

let early_kill_cleanup () =
  if not (Sys.file_exists "/proc/self/fd" && Sys.file_exists "/proc/self/task")
  then print_endline "skip early-kill cleanup (no /proc/self)"
  else begin
    let case = Suite.design3 () in
    let path = temp_journal "early" in
    let failed = !failures in
    let kill ?domains n =
      if
        Faults.run_journaled_killed ~technology:Flow.Ecl
          ~constraints:case.Suite.constraints ~guard:Guard.Sampled ?domains
          ~force_domains:true ~journal:path n case.Suite.case_design
        <> None
      then fail "early kill at record %d did not fire" n
    in
    List.iter
      (fun n ->
        let before = entries "/proc/self/fd" in
        kill n;
        let after = entries "/proc/self/fd" in
        if after <> before then
          fail "killed at record %d: %d open descriptors before the run, %d \
                after" n before after)
      [ 1; 2; 3 ];
    let before = entries "/proc/self/task" in
    kill ~domains:2 1;
    (* A joined domain's thread may take a moment to leave the task
       list. *)
    let rec settle tries =
      let now = entries "/proc/self/task" in
      if now = before || tries = 0 then now
      else (
        Unix.sleepf 0.05;
        settle (tries - 1))
    in
    let after = settle 40 in
    if after <> before then
      fail "2-domain run killed at record 1: %d threads before the run, %d \
            after" before after;
    cleanup path;
    if !failures = failed then
      print_endline
        "ok   early kills close the journal and shut the pool (records 1-3)"
  end

(* --- Replay ------------------------------------------------------------- *)

let replay_clean (case : Suite.case) =
  let name = case.Suite.case_name in
  let path = temp_journal ("replay_" ^ name) in
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
       ~guard:Guard.Sampled ~journal:path case.Suite.case_design
   with
  | Flow.Complete _ -> ()
  | Flow.Partial p ->
      fail "%s: replay reference degraded at %s" name
        (Flow.stage_name p.Flow.failed_stage)
  | exception e ->
      fail "%s: replay reference raised %s" name (Printexc.to_string e));
  (match Flow.replay path with
  | rep ->
      if rep.Flow.rep_divergences <> [] then begin
        fail "%s: clean replay found %d divergence(s)" name
          (List.length rep.Flow.rep_divergences);
        List.iter
          (fun d ->
            Printf.printf "     record %d [%s/%s]: %s\n" d.Flow.div_record
              d.Flow.div_stage d.Flow.div_kind d.Flow.div_detail)
          rep.Flow.rep_divergences
      end;
      if not rep.Flow.rep_finished then fail "%s: replay lost Finish" name;
      if rep.Flow.rep_truncated_bytes <> 0 then
        fail "%s: replay saw a torn tail on a clean journal" name;
      Printf.printf "ok   replay %-8s clean (%d deltas, %d checks)\n" name
        rep.Flow.rep_deltas rep.Flow.rep_checks
  | exception e -> fail "%s: replay raised %s" name (Printexc.to_string e));
  cleanup path

(* Tamper with a recorded trajectory: drop the last entry of the last
   non-empty delta.  The replayed design must then diverge — the
   post-delta hash no longer matches, and the next in-place checkpoint
   comparison fails. *)
let replay_tampered () =
  let case = List.hd (Suite.all ()) in
  let path = temp_journal "tamper" in
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
       ~journal:path case.Suite.case_design
   with
  | Flow.Complete _ -> ()
  | Flow.Partial _ | (exception _) -> fail "tamper: reference run failed");
  let rc = J.recover path in
  let last_delta =
    List.fold_left
      (fun (i, best) r ->
        match r with
        | J.Delta { d_entries = _ :: _; _ } -> (i + 1, Some i)
        | _ -> (i + 1, best))
      (0, None) rc.J.r_records
    |> snd
  in
  (match (last_delta, J.header rc) with
  | Some di, Some _ ->
      let w = J.create path in
      List.iteri
        (fun i r ->
          match r with
          | J.Delta dl when i = di ->
              J.append w
                (J.Delta
                   {
                     dl with
                     d_entries = List.rev (List.tl (List.rev dl.d_entries));
                   })
          | J.Checkpoint _ | J.Finish _ -> J.commit w r
          | r -> J.append w r)
        rc.J.r_records;
      J.close w;
      (match Flow.replay path with
      | rep ->
          if rep.Flow.rep_divergences = [] then
            fail "tamper: dropped entry not detected"
          else
            Printf.printf "ok   replay pinpoints tampering (%d divergence(s))\n"
              (List.length rep.Flow.rep_divergences)
      | exception e -> fail "tamper: replay raised %s" (Printexc.to_string e))
  | _ -> fail "tamper: reference journal had no non-empty delta");
  cleanup path

(* --- Legacy header -------------------------------------------------------- *)

(* CRC-32 (IEEE 802.3), bitwise: enough to re-frame one record by hand. *)
let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 <> 0 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

(* Re-frame every [rtype] record of the journal at [path] with its
   payload lines passed through [f], as older code would have written
   it.  Returns how many payload lines [f] dropped plus how many it
   added. *)
let reframe path rtype f =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Buffer.create (String.length text) and changed = ref 0 in
  let rec frames pos =
    if pos < String.length text then begin
      let nl = String.index_from text pos '\n' in
      let ty, len =
        Scanf.sscanf (String.sub text pos (nl - pos)) "MILOJ1 %s %d %_s"
          (fun ty len -> (ty, len))
      in
      let payload = String.sub text (nl + 1) len in
      (if ty = rtype then begin
         let lines = String.split_on_char '\n' payload in
         let lines' = f lines in
         let missing xs ys = List.filter (fun l -> not (List.mem l ys)) xs in
         changed :=
           !changed + List.length (missing lines lines')
           + List.length (missing lines' lines);
         let payload = String.concat "\n" lines' in
         Printf.bprintf b "MILOJ1 %s %d %08x\n%s\n" ty (String.length payload)
           (crc32 payload) payload
       end
       else Buffer.add_string b (String.sub text pos (nl + len + 2 - pos)));
      frames (nl + len + 2)
    end
  in
  frames 0;
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc;
  !changed

let has_prefix prefixes l =
  List.exists (fun p -> String.starts_with ~prefix:p l) prefixes

(* The header as every journal of a default run was written before the
   [domains] line became unconditional, while the flow still recorded
   whether measurement was incremental. *)
let legacy_header lines =
  List.concat_map
    (fun l ->
      if has_prefix [ "domains " ] l then []
      else if has_prefix [ "lint " ] l then [ l; "incremental 0" ]
      else [ l ])
    lines

let legacy_header_resumes () =
  let case = List.hd (Suite.all ()) in
  let path = temp_journal "legacy" in
  let run_to ?kill () =
    match kill with
    | None ->
        Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
          ~guard:Guard.Sampled ~journal:path case.Suite.case_design
    | Some n -> (
        match
          Faults.run_journaled_killed ~technology:Flow.Ecl
            ~constraints:case.Suite.constraints ~guard:Guard.Sampled
            ~journal:path n case.Suite.case_design
        with
        | Some o -> o
        | None -> raise Exit)
  in
  (match run_to () with
  | Flow.Complete reference -> (
      let total = List.length (J.recover path).J.r_records in
      match run_to ~kill:(total / 2) () with
      | _ -> fail "legacy: the kill did not fire"
      | exception Exit -> (
          if reframe path "header" legacy_header <> 2 then
            fail "legacy: header carried no domains line to drop";
          (match J.header (J.recover path) with
          | Some h when h.J.h_domains = 1 -> ()
          | Some h -> fail "legacy: header reads as %d domains" h.J.h_domains
          | None -> fail "legacy: rewritten header did not survive recovery");
          match Flow.resume path with
          | Flow.Complete r ->
              compare_results "legacy header resume" reference r;
              if !failures = 0 then
                Printf.printf
                  "ok   legacy header (no domains line, incremental 0) \
                   resumes\n"
          | Flow.Partial p ->
              fail "legacy: resume degraded at %s"
                (Flow.stage_name p.Flow.failed_stage)
          | exception e -> fail "legacy: resume raised %s" (Printexc.to_string e)))
  | Flow.Partial _ | (exception _) -> fail "legacy: reference run failed");
  cleanup path

(* A delta as written before attribution, budget and shape lines
   existed: it decodes with those fields absent, and its journal still
   replays and resumes. *)
let legacy_deltas () =
  let case = List.hd (Suite.all ()) in
  let path = temp_journal "legacy_delta" in
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
       ~guard:Guard.Sampled ~journal:path case.Suite.case_design
   with
  | Flow.Complete reference -> (
      let before = (J.recover path).J.r_records in
      let dropped =
        reframe path "delta"
          (List.filter
             (fun l ->
               not
                 (has_prefix
                    [
                      "site "; "verdict "; "before "; "after "; "budget ";
                      "shape ";
                    ]
                    l)))
      in
      if dropped = 0 then fail "legacy deltas: no new delta line to drop";
      let rc = J.recover path in
      if List.length rc.J.r_records <> List.length before then
        fail "legacy deltas: %d of %d records recovered"
          (List.length rc.J.r_records) (List.length before);
      List.iter2
        (fun old r ->
          match (old, r) with
          | J.Delta o, J.Delta n ->
              if
                n.d_attr <> D.no_attribution || n.d_budget <> None
                || n.d_shape <> None
              then fail "legacy deltas: a stripped field decoded as present";
              if
                (n.d_stage, n.d_label, n.d_hash, n.d_entries)
                <> (o.d_stage, o.d_label, o.d_hash, o.d_entries)
              then fail "legacy deltas: a delta changed"
          | _ -> ())
        before rc.J.r_records;
      (match Flow.replay path with
      | rep ->
          if rep.Flow.rep_divergences <> [] || not rep.Flow.rep_finished then
            fail "legacy deltas: replay found %d divergence(s)"
              (List.length rep.Flow.rep_divergences)
      | exception e ->
          fail "legacy deltas: replay raised %s" (Printexc.to_string e));
      match Flow.resume path with
      | Flow.Complete r ->
          compare_results "legacy deltas resume" reference r;
          if !failures = 0 then
            Printf.printf
              "ok   legacy deltas (%d lines dropped) replay and resume\n"
              dropped
      | Flow.Partial p ->
          fail "legacy deltas: resume degraded at %s"
            (Flow.stage_name p.Flow.failed_stage)
      | exception e ->
          fail "legacy deltas: resume raised %s" (Printexc.to_string e))
  | Flow.Partial _ | (exception _) ->
      fail "legacy deltas: reference run failed");
  cleanup path

(* A traced journal written before the tracer stopped recording its
   event count: four of its checkpoints carry a [trace N] line.  Every
   record must still recover, with nothing truncated, and the journal
   must replay to its Finish record without a divergence. *)
let legacy_traced_journal () =
  let what = "legacy traced journal" in
  let fixture = "golden/acc4_traced.mjl" in
  let bytes = In_channel.with_open_bin fixture In_channel.input_all in
  let lines = String.split_on_char '\n' bytes in
  let frames = List.length (List.filter (has_prefix [ "MILOJ1 " ]) lines) in
  let traced = List.length (List.filter (has_prefix [ "trace " ]) lines) in
  if traced = 0 then fail "%s: the fixture has no trace line to accept" what;
  let rc = J.recover fixture in
  if List.length rc.J.r_records <> frames then
    fail "%s: %d of %d records recovered" what (List.length rc.J.r_records)
      frames;
  if rc.J.r_truncated_bytes <> 0 then
    fail "%s: %d bytes truncated" what rc.J.r_truncated_bytes;
  (match Flow.replay fixture with
  | rep ->
      if not rep.Flow.rep_finished then
        fail "%s: replay did not reach the Finish record" what;
      if rep.Flow.rep_divergences <> [] then
        fail "%s: replay found %d divergence(s)" what
          (List.length rep.Flow.rep_divergences)
  | exception e -> fail "%s: replay raised %s" what (Printexc.to_string e));
  if !failures = 0 then
    Printf.printf
      "ok   legacy traced journal: %d records (%d with a trace line) \
       recover whole and replay clean\n"
      frames traced

(* --- Resume refusal ------------------------------------------------------ *)

let resume_refusal () =
  (* A header-only journal (killed before the capture checkpoint
     committed) has nothing to resume. *)
  let path = temp_journal "refusal" in
  let d = sample_design () in
  let w = J.create path in
  J.append w
    (J.Header
       {
         J.h_design = "rt";
         h_hash = J.design_hash d;
         h_tech = "ecl";
         h_required = infinity;
         h_arrivals = [];
         h_lint = "off";
         h_guard = "off";
         h_certify = true;
         h_timeout = None;
         h_max_steps = None;
         h_max_evals = None;
         h_domains = 1;
       });
  J.close w;
  let bytes () = In_channel.with_open_bin path In_channel.input_all in
  let before = bytes () in
  (match Flow.resume path with
  | _ -> fail "refusal: resumed a journal without a checkpoint"
  | exception Flow.Journal_error _ ->
      (* Refused before the writer exists, so the file is untouched. *)
      if bytes () <> before then fail "refusal: the refused journal changed"
      else Printf.printf "ok   resume refuses a checkpoint-free journal\n"
  | exception e -> fail "refusal: unexpected %s" (Printexc.to_string e));
  cleanup path;
  (* An empty file recovers to zero records and resume refuses it the
     same way — recovery itself never raises on content. *)
  let path = temp_journal "empty" in
  let oc = open_out path in
  close_out oc;
  (match J.recover path with
  | rc ->
      if rc.J.r_records <> [] then fail "refusal: records in an empty file"
  | exception e ->
      fail "refusal: recovery raised on an empty file: %s"
        (Printexc.to_string e));
  (match Flow.resume path with
  | _ -> fail "refusal: resumed an empty file"
  | exception Flow.Journal_error _ ->
      Printf.printf "ok   resume refuses an empty journal\n"
  | exception e -> fail "refusal: unexpected %s" (Printexc.to_string e));
  cleanup path

let () =
  round_trip ();
  let cases = Suite.all () in
  List.iter (fun c -> try crash_fuzz c with Exit -> ()) cases;
  (* Kill+resume under a real (forced) 4-domain pool: the resumed
     trajectory must continue bit-identically to the uninterrupted
     parallel run's.  One case keeps the quadratic fuzz affordable. *)
  (try crash_fuzz ~domains:4 (List.hd cases) with Exit -> ());
  (try killed_resume () with Exit -> ());
  early_kill_cleanup ();
  List.iter replay_clean cases;
  replay_tampered ();
  legacy_header_resumes ();
  legacy_deltas ();
  legacy_traced_journal ();
  resume_refusal ();
  size_independent_of_time (List.hd cases);
  if !failures > 0 then begin
    Printf.printf "journal_suite: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "journal_suite: all clean"
