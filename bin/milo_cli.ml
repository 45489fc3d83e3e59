(* The MILO command-line interface.

     milo compile  DESIGN.mil [-o OUT]        expand to generic macros
     milo map      DESIGN.mil -t ecl [-o OUT] compile + technology map
     milo optimize DESIGN.mil -t ecl --delay 6.5 [-o OUT]
                                              the full MILO flow
     milo run      DESIGN.mil ...             alias of optimize
     milo resume   JOURNAL [-o OUT]           continue an interrupted
                                              --journal run from its
                                              last committed checkpoint
     milo replay   JOURNAL [--json]           re-execute a journal's
                                              trajectory under the full
                                              guard (exit 7 on
                                              divergence)
     milo profile  DESIGN.mil [-t ecl] [--json]
                                              flow under a tracer ->
                                              span-tree profile
     milo explain  DESIGN.mil [-t ecl] [--json]
                                              flow under the provenance
                                              recorder -> cost
                                              attribution, conservation,
                                              critical-path blame
     milo trajectory record DESIGN.mil [-t ecl] [-o TRAJ] [--journal J]
     milo trajectory dump   JOURNAL [-o TRAJ]
                                              record a run's trajectory /
                                              reconstruct one offline
                                              from a journal
     milo verify   A.mil B.mil                equivalence check (exit 7
                                              when not equivalent)
     milo stats    DESIGN.mil -t ecl          baseline statistics
     milo lint     DESIGN.mil [--json] [--strict]
                                              run the DRC passes
     milo analyze  DESIGN.mil [-t ecl] [--json] [--certify]
                                              abstract-interpretation
                                              facts (+ rule certificates)
     milo symbol   "reg bits=4 fns=LOAD controls=RST"
                                              render a component symbol

   DESIGN.mil uses the textual netlist format (see lib/netlist/parser.ml
   or any file written by `milo compile`). *)

open Cmdliner
module Diag = Milo_lint.Diagnostic

(* The one JSON string quoter for every --json emitter.  (OCaml's [%S]
   is not JSON: it renders non-printable bytes as decimal [\ddd]
   escapes, which JSON parsers reject.) *)
let json_quote = Milo_trace.Export.quote

(* All front-end failures funnel through the diagnostic type so every
   command reports "file:line: error: message" uniformly. *)
let parse_fail ~file ?line fmt =
  Printf.ksprintf
    (fun msg ->
      let d = Diag.parse_error ~file ?line "%s" msg in
      prerr_endline (Diag.to_string d);
      exit 1)
    fmt

(* Runtime (post-parse) failures also render compiler-style
   "file: error: message" lines, with distinct exit codes so scripts can
   tell failure classes apart: 1 parse/lint, 3 unmappable design,
   4 invalid netlist edit, 5 bad argument (including an unusable
   journal), 6 degraded (partial) flow, 7 not equivalent (verify, and
   replay divergence), 8 interrupted (SIGINT/SIGTERM: the streamed
   trace is flushed and the journal is left at its last durable record,
   ready for `milo resume`). *)
let runtime_fail ~file ~code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline
        (Diag.to_string
           (Diag.make ~rule:"error" ~severity:Diag.Error
              ~loc:(Diag.File { file; line = None })
              "%s" msg));
      exit code)
    fmt

let protect ~file f =
  match f () with
  | v -> v
  | exception Milo_techmap.Table_map.Unmappable u ->
      runtime_fail ~file ~code:3 "unmappable: %s"
        (Milo_techmap.Table_map.unmappable_to_string u)
  | exception Milo_netlist.Design.Error e ->
      runtime_fail ~file ~code:4 "%s" (Milo_netlist.Design.error_to_string e)
  | exception Invalid_argument msg -> runtime_fail ~file ~code:5 "%s" msg
  | exception Milo.Flow.Journal_error msg ->
      runtime_fail ~file ~code:5 "journal: %s" msg
  | exception Sys_error msg -> runtime_fail ~file ~code:1 "%s" msg

(* SIGINT/SIGTERM land on exit code 8 after flushing whatever streams
   durability depends on.  The journal needs no help — every record is
   flushed as it lands and checkpoints commit via rename — so the
   handler's job is the streaming trace channel and a resume hint. *)
let interrupt_flushers : (unit -> unit) list ref = ref []

let install_interrupt_handlers ~journal () =
  let handler _ =
    List.iter (fun f -> try f () with _ -> ()) !interrupt_flushers;
    (match journal with
    | Some path ->
        Printf.eprintf
          "interrupted: journal %s is durable; `milo resume %s` continues \
           the run\n"
          path path
    | None -> prerr_endline "interrupted");
    exit 8
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler)

let read_design path =
  let vhdl =
    Filename.check_suffix path ".vhd" || Filename.check_suffix path ".vhdl"
  in
  if Filename.check_suffix path ".pla" then
    try Milo_pla.Pla.to_design ~name:(Filename.remove_extension (Filename.basename path))
          (Milo_pla.Pla.of_file path)
    with Milo_pla.Pla.Pla_error (line, msg) -> parse_fail ~file:path ~line "%s" msg
  else if Filename.check_suffix path ".eqn" then
    try Milo_pla.Equations.of_file path
    with Milo_pla.Equations.Equation_error (line, msg) ->
      parse_fail ~file:path ~line "%s" msg
  else if vhdl then
    try Milo_vhdl.Elaborate.design_of_file path with
    | Milo_vhdl.Parser.Parse_error (line, msg) ->
        parse_fail ~file:path ~line "%s" msg
    | Milo_vhdl.Lexer.Lex_error (line, msg) ->
        parse_fail ~file:path ~line "%s" msg
    | Milo_vhdl.Elaborate.Elaboration_error msg -> parse_fail ~file:path "%s" msg
  else
    try Milo_netlist.Parser.of_file path
    with Milo_netlist.Parser.Parse_error (line, msg) ->
      parse_fail ~file:path ~line "%s" msg

let write_design out design =
  match out with
  | None -> print_string (Milo_netlist.Writer.to_string design)
  | Some path ->
      let oc = open_out path in
      output_string oc (Milo_netlist.Writer.to_string design);
      close_out oc;
      Printf.printf "wrote %s (%s)\n" path (Milo_netlist.Writer.summary design)

let technology_of = function
  | "ecl" -> Milo.Flow.Ecl
  | "cmos" -> Milo.Flow.Cmos
  | other ->
      Printf.eprintf "unknown technology %s (ecl|cmos)\n" other;
      exit 1

(* --- arguments -------------------------------------------------------- *)

let design_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN.mil")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
         ~doc:"Write the resulting netlist to $(docv).")

let tech_arg =
  Arg.(value & opt string "ecl" & info [ "t"; "technology" ] ~docv:"TECH"
         ~doc:"Target technology library: ecl or cmos.")

let delay_arg =
  Arg.(value & opt (some float) None & info [ "delay" ] ~docv:"NS"
         ~doc:"Required worst-path delay in nanoseconds.")

let area_arg =
  Arg.(value & opt (some float) None & info [ "area" ] ~docv:"CELLS"
         ~doc:"Area limit in cells.  The final design is checked against \
               it and the result reported (met or NOT met); the \
               optimizer does not optimize toward it.")

let power_arg =
  Arg.(value & opt (some float) None & info [ "power" ] ~docv:"MW"
         ~doc:"Power limit in milliwatts.  The final design is checked \
               against it and the result reported (met or NOT met); the \
               optimizer does not optimize toward it.")

let timeout_arg =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Wall-clock budget for the optimization searches; on \
               exhaustion the flow stops cleanly with the best design \
               found so far.")

let max_steps_arg =
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N"
         ~doc:"Maximum committed rule applications across all \
               optimization passes.")

let check_measure_arg =
  Arg.(value & flag
         & info [ "check-measure" ]
             ~doc:"Differential oracle: cross-check every incremental \
                   measurement against a full recompute and abort on \
                   divergence (debugging; very slow).")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a flow trace to $(docv): spans, per-rule time \
               attribution and metrics.  JSONL streams spans as the \
               run progresses; the chrome format is written at the \
               end.")

let trace_format_arg =
  Arg.(value & opt string "json" & info [ "trace-format" ] ~docv:"FORMAT"
         ~doc:"Trace file format: json (one JSON object per line) or \
               chrome (a trace_event file loadable in Perfetto or \
               chrome://tracing).")

let guard_arg =
  Arg.(value & opt string "sampled" & info [ "guard" ] ~docv:"TIER"
         ~doc:"Semantic guard tier: off, sampled (default; checks stage \
               outputs and a sample of rule applications) or full \
               (equivalence-check every stage and every rule \
               application).  A caught stage miscompile degrades the \
               flow; a caught rule miscompile is reverted and the rule \
               quarantined.")

let domains_arg =
  let default = max 1 (Domain.recommended_domain_count () - 1) in
  Arg.(value & opt int default & info [ "domains" ] ~docv:"N"
         ~doc:"Worker domains for parallel candidate evaluation \
               (default: cores - 1, at least 1).  1 runs the \
               supervised tasks inline; results are bit-identical \
               across every $(docv).  On hosts where a pool cannot be \
               constructed the run degrades to inline execution and \
               notes it.")

let journal_arg =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
         ~doc:"Record a durable write-ahead journal of the run to \
               $(docv): the run header, every committed rule \
               application and a full design snapshot at every stage \
               checkpoint.  A run killed at any point leaves a journal \
               that $(b,milo resume) can continue and $(b,milo replay) \
               can re-execute.")

let guard_of ~file name =
  match Milo_guard.Guard.policy_of_string name with
  | Some p -> p
  | None ->
      runtime_fail ~file ~code:5 "unknown guard tier %s (off|sampled|full)"
        name

(* The flow settings every flow-running command takes from the same
   flags.  The term yields a resolver that the command calls once it
   has read its design, so a parse error still reports before a bad
   technology (exit 1) or guard tier (exit 5). *)
type settings = {
  technology : Milo.Flow.technology;
  constraints : Milo.Constraints.t;
  budget : Milo_rules.Budget.t option;
  guard : Milo_guard.Guard.policy;
}

let settings_term ?(limits = Term.const (None, None)) () =
  let resolve tech delay (max_area, max_power) timeout max_steps guard ~file =
    let technology = technology_of tech in
    let guard = guard_of ~file guard in
    let constraints =
      Milo.Constraints.make ?required_delay:delay ?max_area ?max_power ()
    in
    let budget =
      match (timeout, max_steps) with
      | None, None -> None
      | _ -> Some (Milo_rules.Budget.make ?timeout ?max_steps ())
    in
    { technology; constraints; budget; guard }
  in
  Term.(const resolve $ tech_arg $ delay_arg $ limits $ timeout_arg
        $ max_steps_arg $ guard_arg)

(* --- commands --------------------------------------------------------- *)

let compile_cmd =
  let run path out =
    protect ~file:path @@ fun () ->
    let design = read_design path in
    let db = Milo_compilers.Database.create () in
    let lib = Milo_library.Generic.get () in
    let expanded = Milo_compilers.Compile.expand_design db lib design in
    let flat = Milo_compilers.Database.flatten db expanded in
    write_design out flat;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Expand microarchitecture components to generic macros.")
    Term.(ret (const run $ design_arg $ out_arg))

let map_cmd =
  let run path tech out =
    protect ~file:path @@ fun () ->
    let design = read_design path in
    let mapped, _ =
      Milo.Flow.human_baseline ~technology:(technology_of tech) design
    in
    write_design out mapped;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Compile and map onto a technology library (no optimization).")
    Term.(ret (const run $ design_arg $ tech_arg $ out_arg))

(* One line per area or power limit given: the flow does not optimize
   toward these limits, so the report is where they are checked. *)
let report_limits (c : Milo.Constraints.t) (final : Milo.Flow.stats) =
  let report name unit value limit only =
    let met =
      Milo.Constraints.meets only ~delay:final.Milo.Flow.delay
        ~area:final.Milo.Flow.area ~power:final.Milo.Flow.power
    in
    Printf.printf "%s: %s (%.1f %s %.1f %s)\n" name
      (if met then "met" else "NOT met")
      value
      (if met then "<=" else ">")
      limit unit
  in
  let none = Milo.Constraints.none in
  Option.iter
    (fun l ->
      report "area" "cells" final.Milo.Flow.area l
        { none with Milo.Constraints.max_area = Some l })
    c.Milo.Constraints.max_area;
  Option.iter
    (fun l ->
      report "power" "mW" final.Milo.Flow.power l
        { none with Milo.Constraints.max_power = Some l })
    c.Milo.Constraints.max_power

let optimize_run path settings check_measure trace_file trace_format journal
    domains out =
  protect ~file:path @@ fun () ->
  install_interrupt_handlers ~journal ();
  let design = read_design path in
  let { technology; constraints; budget; guard } = settings ~file:path in
  Milo_measure.Measure.set_debug_check check_measure;
  (* A JSONL trace streams into the file as the run progresses (so a
     crashed run keeps its prefix); the chrome format needs the whole
     trace and is written when the flow returns. *)
  let trace_ch = ref None in
  let trace =
    match trace_file with
    | None -> None
    | Some file ->
        let t = Milo_trace.Trace.create () in
        (match trace_format with
        | "json" ->
            let oc = open_out file in
            trace_ch := Some oc;
            interrupt_flushers := (fun () -> flush oc) :: !interrupt_flushers;
            Milo_trace.Trace.add_sink t (Milo_trace.Export.jsonl_sink oc)
        | "chrome" -> ()
        | other ->
            runtime_fail ~file:path ~code:5
              "unknown trace format %s (json|chrome)" other);
        Some t
  in
  let finish_trace () =
    match (trace, trace_file) with
    | Some t, Some file ->
        (match trace_format with
        | "chrome" -> Milo_trace.Export.save_chrome file t
        | _ -> ( match !trace_ch with Some oc -> close_out oc | None -> ()));
        Printf.eprintf "trace: wrote %s (%s)\n" file trace_format
    | _ -> ()
  in
  let human = Milo.Flow.baseline_stats ~technology design in
  Printf.printf "baseline: delay %.2f ns, area %.1f cells, power %.1f mW\n"
    human.Milo.Flow.delay human.Milo.Flow.area human.Milo.Flow.power;
  match
    Milo.Flow.run ~technology ~constraints ?budget ?trace ~guard ?journal
      ~domains design
  with
  | Milo.Flow.Complete res ->
      finish_trace ();
      print_string (Milo.Report.summary res);
      report_limits constraints res.Milo.Flow.final;
      (match out with
      | Some _ -> write_design out res.Milo.Flow.optimized
      | None -> ());
      `Ok ()
  | Milo.Flow.Partial p ->
      (* Degraded run: report the failure, keep the last good design.
         The trace was flushed by the flow, so it is written too. *)
      finish_trace ();
      prerr_string (Milo.Report.partial_summary p);
      (match out with
      | Some _ -> write_design out p.Milo.Flow.last_good.Milo.Flow.ck_design
      | None -> ());
      exit 6

let optimize_term =
  let limits =
    Term.(const (fun area power -> (area, power)) $ area_arg $ power_arg)
  in
  Term.(ret (const optimize_run $ design_arg $ settings_term ~limits ()
             $ check_measure_arg $ trace_arg $ trace_format_arg $ journal_arg
             $ domains_arg $ out_arg))

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run the full MILO flow against the given constraints.")
    optimize_term

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Alias of optimize: run the full MILO flow.")
    optimize_term

let resume_cmd =
  let journal_pos =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"JOURNAL")
  in
  let run path out =
    protect ~file:path @@ fun () ->
    install_interrupt_handlers ~journal:(Some path) ();
    match Milo.Flow.resume path with
    | Milo.Flow.Complete res ->
        print_string (Milo.Report.summary res);
        (match out with
        | Some _ -> write_design out res.Milo.Flow.optimized
        | None -> ());
        `Ok ()
    | Milo.Flow.Partial p ->
        prerr_string (Milo.Report.partial_summary p);
        (match out with
        | Some _ -> write_design out p.Milo.Flow.last_good.Milo.Flow.ck_design
        | None -> ());
        exit 6
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Continue an interrupted journaled run: recover the \
             journal's longest valid prefix, restore the last committed \
             checkpoint (design snapshot, remaining budget, semantic \
             guard state) and re-run only the stages after it.  The \
             resumed run continues the journal: the records up to the \
             last committed checkpoint are kept and the resumed stages \
             append theirs, so it can itself be interrupted and resumed \
             again.  The result matches the uninterrupted run's \
             exactly.  A journal without a committed checkpoint has \
             nothing to resume (exit 5) — re-run the flow from the \
             input design.")
    Term.(ret (const run $ journal_pos $ out_arg))

let replay_cmd =
  let journal_pos =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"JOURNAL")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let quote = json_quote in
  let run path json =
    protect ~file:path @@ fun () ->
    let rep = Milo.Flow.replay path in
    let divergence_line (d : Milo.Flow.divergence) =
      Printf.sprintf "record %d [%s/%s]%s: %s" d.Milo.Flow.div_record
        d.Milo.Flow.div_stage d.Milo.Flow.div_kind
        (match d.Milo.Flow.div_label with
        | None -> ""
        | Some l -> " " ^ l)
        d.Milo.Flow.div_detail
    in
    if json then
      Printf.printf
        "{\"journal\": %s, \"records\": %d, \"truncated_bytes\": %d, \
         \"deltas\": %d, \"checks\": %d, \"finished\": %b, \
         \"divergences\": [%s]}\n"
        (quote path) rep.Milo.Flow.rep_records
        rep.Milo.Flow.rep_truncated_bytes rep.Milo.Flow.rep_deltas
        rep.Milo.Flow.rep_checks rep.Milo.Flow.rep_finished
        (String.concat ", "
           (List.map
              (fun (d : Milo.Flow.divergence) ->
                Printf.sprintf
                  "{\"record\": %d, \"stage\": %s, \"label\": %s, \
                   \"kind\": %s, \"detail\": %s}"
                  d.Milo.Flow.div_record (quote d.Milo.Flow.div_stage)
                  (match d.Milo.Flow.div_label with
                  | None -> "null"
                  | Some l -> quote l)
                  (quote d.Milo.Flow.div_kind) (quote d.Milo.Flow.div_detail))
              rep.Milo.Flow.rep_divergences))
    else begin
      Printf.printf
        "replay %s: %d records (%d bytes torn), %d rule applications \
         re-executed, %d equivalence checks, %s\n"
        path rep.Milo.Flow.rep_records rep.Milo.Flow.rep_truncated_bytes
        rep.Milo.Flow.rep_deltas rep.Milo.Flow.rep_checks
        (if rep.Milo.Flow.rep_finished then "run finished cleanly"
         else "run did not finish");
      List.iter
        (fun d -> print_endline ("  divergence: " ^ divergence_line d))
        rep.Milo.Flow.rep_divergences;
      if rep.Milo.Flow.rep_divergences = [] then
        print_endline "no divergences: the trajectory re-executes exactly"
    end;
    if rep.Milo.Flow.rep_divergences <> [] then exit 7 else `Ok ()
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Deterministically re-execute a journal's recorded \
             trajectory: adopt the design-producing snapshots, re-apply \
             every recorded rule application, and equivalence-check \
             each one with the semantic guard in full mode.  Exits 7 \
             when the trajectory diverges from the record.")
    Term.(ret (const run $ journal_pos $ json_arg))

(* Finite JSON number (JSON has no inf/nan; the quantities here are
   finite on any sane run, so clamping the escape hatch to 0 beats
   emitting an unparsable token). *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

(* The whole profile as one JSON object with keys in sorted order, so
   byte-level diffs of two profiles line up. *)
let profile_json path t =
  let module Profile = Milo_trace.Profile in
  let rec span_json (n : Profile.node) =
    Printf.sprintf "{\"children\": [%s], \"name\": %s, \"self\": %s, \"total\": %s}"
      (String.concat ", " (List.map span_json n.Profile.children))
      (json_quote n.Profile.span.Milo_trace.Trace.name)
      (json_num n.Profile.self) (json_num n.Profile.total)
  in
  let rule_json (name, (s : Milo_trace.Trace.rule_stat)) =
    Printf.sprintf
      "{\"applies\": %d, \"evals\": %d, \"gain\": %s, \"name\": %s, \
       \"refusals\": %d, \"rollbacks\": %d, \"time_s\": %s}"
      s.Milo_trace.Trace.applies s.Milo_trace.Trace.evals
      (json_num s.Milo_trace.Trace.gain) (json_quote name)
      s.Milo_trace.Trace.refusals s.Milo_trace.Trace.rollbacks
      (json_num s.Milo_trace.Trace.time_s)
  in
  let m = Milo_trace.Trace.metrics t in
  Printf.sprintf
    "{\"counters\": {%s}, \"design\": %s, \"gauges\": {%s}, \"rules\": [%s], \
     \"spans\": [%s]}"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s: %d" (json_quote k) v)
          (Milo_trace.Metrics.counters m)))
    (json_quote path)
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s: %s" (json_quote k) (json_num v))
          (Milo_trace.Metrics.gauges m)))
    (String.concat ", "
       (List.map rule_json (Milo_trace.Profile.hot_rules_by_time t)))
    (String.concat ", " (List.map span_json (Milo_trace.Profile.tree t)))

let profile_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the profile as JSON (span tree, per-rule \
                   attribution, metric registry) instead of text.")
  in
  let run path settings json =
    protect ~file:path @@ fun () ->
    let design = read_design path in
    let { technology; constraints; budget; guard } = settings ~file:path in
    let t = Milo_trace.Trace.create () in
    match
      Milo.Flow.run ~technology ~constraints ?budget ~trace:t ~guard design
    with
    | Milo.Flow.Complete res ->
        if json then print_endline (profile_json path t)
        else begin
          print_string (Milo_trace.Profile.render t);
          let g = res.Milo.Flow.guard_stats in
          if Milo_guard.Guard.stats_active g then
            Format.printf "semantic guard: %a@." Milo_guard.Guard.pp_stats g
        end;
        `Ok ()
    | Milo.Flow.Partial p ->
        (* The profile up to the failure is still printed — that is the
           point of profiling a run that went wrong. *)
        if json then print_endline (profile_json path t)
        else print_string (Milo_trace.Profile.render t);
        prerr_string (Milo.Report.partial_summary p);
        exit 6
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run the flow under a tracer and print the span-tree profile \
             with per-stage self-times and per-rule attribution.")
    Term.(ret (const run $ design_arg $ settings_term () $ json_arg))

let explain_cmd =
  let module P = Milo_provenance.Provenance in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the attribution report as JSON instead of text.")
  in
  let run path settings domains json =
    protect ~file:path @@ fun () ->
    let design = read_design path in
    let { technology; constraints; budget; guard } = settings ~file:path in
    let t = Milo_trace.Trace.create () in
    let p = P.create () in
    match
      Milo.Flow.run ~technology ~constraints ?budget ~trace:t ~guard
        ~provenance:p ~domains design
    with
    | Milo.Flow.Partial pp ->
        prerr_string (Milo.Report.partial_summary pp);
        exit 6
    | Milo.Flow.Complete res ->
        let optimized = res.Milo.Flow.optimized in
        let env name =
          Milo_library.Technology.find
            (Milo.Flow.target_of technology).Milo_techmap.Table_map.tech name
        in
        let blame =
          match
            Milo_timing.Sta.critical_path
              (Milo_timing.Sta.analyze env optimized)
          with
          | None -> None
          | Some path -> Some (path, P.blame p path)
        in
        let top = Milo_trace.Profile.hot_rules_by_gain_rate t in
        let label_of = function None -> "(unlabeled)" | Some l -> l in
        if json then begin
          let row_json (r : P.row) =
            Printf.sprintf
              "{\"applies\": %d, \"delay\": %s, \"area\": %s, \
               \"label\": %s, \"measured\": %d, \"power\": %s, \
               \"stage\": %s}"
              r.P.row_applies (json_num r.P.row_delay) (json_num r.P.row_area)
              (json_quote r.P.row_label) r.P.row_measured
              (json_num r.P.row_power) (json_quote r.P.row_stage)
          in
          let conservation_json (c : P.conservation) =
            Printf.sprintf
              "{\"breaks\": %d, \"commits\": %d, \"measured\": %d, \
               \"residual_area\": %s, \"residual_delay\": %s, \
               \"residual_power\": %s, \"stage\": %s}"
              c.P.co_breaks c.P.co_commits c.P.co_measured
              (json_num c.P.co_residual.Milo_trace.Trace.area)
              (json_num c.P.co_residual.Milo_trace.Trace.delay)
              (json_num c.P.co_residual.Milo_trace.Trace.power)
              (json_quote c.P.co_stage)
          in
          let hop_json ((h : Milo_timing.Sta.hop), tag) =
            Printf.sprintf
              "{\"comp\": %d, \"kind\": %s, \"label\": %s, \"stage\": %s, \
               \"step\": %s}"
              h.Milo_timing.Sta.comp
              (json_quote
                 (Milo_netlist.Hashcons.kind_spec
                    (Milo_netlist.Design.comp optimized
                       h.Milo_timing.Sta.comp)
                      .Milo_netlist.Design.kind))
              (match tag with
              | Some tg -> json_quote (label_of tg.P.tag_label)
              | None -> "null")
              (match tag with
              | Some tg -> json_quote tg.P.tag_stage
              | None -> "null")
              (match tag with
              | Some tg -> string_of_int tg.P.tag_step
              | None -> "null")
          in
          let rule_json (name, (s : Milo_trace.Trace.rule_stat)) =
            Printf.sprintf
              "{\"applies\": %d, \"gain\": %s, \"gain_per_ms\": %s, \
               \"name\": %s, \"time_s\": %s}"
              s.Milo_trace.Trace.applies (json_num s.Milo_trace.Trace.gain)
              (json_num
                 (if s.Milo_trace.Trace.time_s > 0.0 then
                    s.Milo_trace.Trace.gain
                    /. (s.Milo_trace.Trace.time_s *. 1000.0)
                  else 0.0))
              (json_quote name) (json_num s.Milo_trace.Trace.time_s)
          in
          Printf.printf
            "{\"attribution\": [%s], \"conservation\": [%s], \
             \"critical_path\": %s, \"design\": %s, \"top_gain_per_ms\": \
             [%s]}\n"
            (String.concat ", " (List.map row_json (P.ledger p)))
            (String.concat ", "
               (List.map conservation_json (P.conservation p)))
            (match blame with
            | None -> "null"
            | Some (path, hops) ->
                Printf.sprintf "{\"delay\": %s, \"hops\": [%s]}"
                  (json_num path.Milo_timing.Sta.path_delay)
                  (String.concat ", " (List.map hop_json hops)))
            (json_quote path)
            (String.concat ", " (List.map rule_json top))
        end
        else begin
          Printf.printf "explain %s (%s)\n" path
            (Milo.Flow.technology_name technology);
          Printf.printf "\nattribution (per stage/rule):\n";
          Printf.printf "  %-9s %-24s %7s %5s %9s %9s %9s\n" "stage" "rule"
            "applies" "meas" "d.delay" "d.area" "d.power";
          List.iter
            (fun (r : P.row) ->
              Printf.printf "  %-9s %-24s %7d %5d %+9.3f %+9.2f %+9.2f\n"
                r.P.row_stage r.P.row_label r.P.row_applies r.P.row_measured
                r.P.row_delay r.P.row_area r.P.row_power)
            (P.ledger p);
          Printf.printf "\nconservation (attributed deltas vs end-to-end):\n";
          List.iter
            (fun (c : P.conservation) ->
              Printf.printf
                "  %-9s %d commits, %d measured, %d breaks, residual \
                 %.2g/%.2g/%.2g  [%s]\n"
                c.P.co_stage c.P.co_commits c.P.co_measured c.P.co_breaks
                c.P.co_residual.Milo_trace.Trace.delay
                c.P.co_residual.Milo_trace.Trace.area
                c.P.co_residual.Milo_trace.Trace.power
                (if c.P.co_breaks = 0 then "ok" else "BROKEN"))
            (P.conservation p);
          (match blame with
          | None -> Printf.printf "\ncritical path: none (no timed hops)\n"
          | Some (path, hops) ->
              Printf.printf "\ncritical path (%.2f ns, endpoint %s):\n"
                path.Milo_timing.Sta.path_delay
                (match path.Milo_timing.Sta.path_endpoint with
                | Milo_timing.Sta.Ep_port p -> p
                | Milo_timing.Sta.Ep_seq_pin (c, pin) ->
                    Printf.sprintf "comp %d pin %s" c pin);
              List.iter
                (fun ((h : Milo_timing.Sta.hop), tag) ->
                  let c =
                    Milo_netlist.Design.comp optimized h.Milo_timing.Sta.comp
                  in
                  Printf.printf "  comp %-4d %-12s %s\n"
                    h.Milo_timing.Sta.comp
                    (Milo_netlist.Hashcons.kind_spec
                       c.Milo_netlist.Design.kind)
                    (match tag with
                    | Some tg ->
                        Printf.sprintf "<- %s step %d (%s)"
                          (label_of tg.P.tag_label) tg.P.tag_step
                          tg.P.tag_stage
                    | None -> "<- unattributed (survives mapping)"))
                hops);
          Printf.printf "\ntop rules by gain per millisecond:\n";
          if top = [] then Printf.printf "  (no kept rule applications)\n"
          else
            List.iteri
              (fun i (name, (s : Milo_trace.Trace.rule_stat)) ->
                if i < 5 then
                  Printf.printf "  %-24s %d applies, gain %.3f, %.3f/ms\n"
                    name s.Milo_trace.Trace.applies s.Milo_trace.Trace.gain
                    (if s.Milo_trace.Trace.time_s > 0.0 then
                       s.Milo_trace.Trace.gain
                       /. (s.Milo_trace.Trace.time_s *. 1000.0)
                     else 0.0))
              top
        end;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Run the flow under the provenance recorder and report where \
             the cost went: exact per-stage/per-rule delay/area/power \
             attribution (with its conservation check), critical-path \
             blame (which rule last touched each hop of the final \
             critical path), and the rules with the best cost \
             improvement per millisecond spent.")
    Term.(ret (const run $ design_arg $ settings_term () $ domains_arg
               $ json_arg))

let trajectory_cmd =
  let mode_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"MODE"
             ~doc:"$(b,record) runs the flow with the recorder and \
                   streams the trajectory; $(b,dump) reconstructs one \
                   offline from a journal.")
  in
  let path_pos =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"PATH"
             ~doc:"$(b,record): the input DESIGN.mil.  $(b,dump): the \
                   journal file.")
  in
  let traj_out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"TRAJ"
             ~doc:"Write the trajectory JSONL here (default stdout).")
  in
  let run mode path settings journal out =
    protect ~file:path @@ fun () ->
    let with_out f =
      match out with
      | None -> f stdout
      | Some file ->
          let oc = open_out file in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
    in
    match mode with
    | "dump" ->
        let lines =
          Milo_provenance.Trajectory.lines
            (Milo_provenance.Provenance.events
               (Milo_provenance.Trajectory.of_journal path))
        in
        with_out (fun oc ->
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              lines;
            flush oc);
        (match out with
        | Some file ->
            Printf.eprintf "trajectory: wrote %d events to %s\n"
              (List.length lines) file
        | None -> ());
        `Ok ()
    | "record" ->
        install_interrupt_handlers ~journal ();
        let design = read_design path in
        let { technology; constraints; budget; guard } = settings ~file:path in
        let p = Milo_provenance.Provenance.create () in
        with_out (fun oc ->
            (* Streamed, not saved at the end: a crashed run keeps its
               prefix, mirroring the journal discipline. *)
            Milo_provenance.Provenance.add_sink p
              (Milo_provenance.Trajectory.sink oc);
            interrupt_flushers := (fun () -> flush oc) :: !interrupt_flushers;
            match
              Milo.Flow.run ~technology ~constraints ?budget ~guard ?journal
                ~provenance:p design
            with
            | Milo.Flow.Complete _ ->
                flush oc;
                Printf.eprintf "trajectory: recorded %d events\n"
                  (List.length (Milo_provenance.Provenance.events p));
                `Ok ()
            | Milo.Flow.Partial pp ->
                flush oc;
                prerr_string (Milo.Report.partial_summary pp);
                exit 6)
    | other ->
        runtime_fail ~file:path ~code:5
          "unknown trajectory mode %s (record|dump)" other
  in
  Cmd.v
    (Cmd.info "trajectory"
       ~doc:"Record an optimization trajectory (the run's journal \
             records, one JSON object per record) or dump one \
             reconstructed offline from a journal — including a journal \
             continued by resume.  Both write the same records, so \
             $(b,record --journal J) and $(b,dump J) write the same \
             file.")
    Term.(ret (const run $ mode_arg $ path_pos $ settings_term ()
               $ journal_arg $ traj_out_arg))

let verify_cmd =
  let design_a =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A.mil")
  in
  let design_b =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B.mil")
  in
  let vectors_arg =
    Arg.(value & opt int 512 & info [ "vectors" ] ~docv:"N"
           ~doc:"Random input vectors when the design is too wide for \
                 the exhaustive sweep.")
  in
  let cycles_arg =
    Arg.(value & opt int 256 & info [ "cycles" ] ~docv:"N"
           ~doc:"Lock-step cycles per run for sequential designs.")
  in
  let seed_arg =
    Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"SEED"
           ~doc:"Random seed for vector generation.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdict as JSON.")
  in
  let quote = json_quote in
  let run a b vectors cycles seed json =
    protect ~file:a @@ fun () ->
    let d1 = read_design a and d2 = read_design b in
    let techs =
      [
        Milo_library.Generic.get ();
        (Milo.Flow.target_of Milo.Flow.Ecl).Milo_techmap.Table_map.tech;
        (Milo.Flow.target_of Milo.Flow.Cmos).Milo_techmap.Table_map.tech;
      ]
    in
    let env = Milo_sim.Simulator.env_of_techs techs in
    let params =
      { Milo_guard.Guard.full_params with vectors; cycles; seed }
    in
    match
      Milo_guard.Guard.check ~params ~is_seq:(Milo.Flow.seq_classifier techs)
        env d1 env d2
    with
    | None ->
        if json then
          Printf.printf "{\"equivalent\": true, \"a\": %s, \"b\": %s}\n"
            (quote a) (quote b)
        else Printf.printf "equivalent: %s == %s\n" a b;
        `Ok ()
    | Some div ->
        if json then
          Printf.printf
            "{\"equivalent\": false, \"a\": %s, \"b\": %s, \"ports\": [%s], \
             \"cycle\": %s, \"inputs\": {%s}, \"cone_inputs\": [%s], \
             \"cone_comps\": %d}\n"
            (quote a) (quote b)
            (String.concat ", "
               (List.map quote div.Milo_guard.Guard.div_ports))
            (match div.Milo_guard.Guard.div_cycle with
            | None -> "null"
            | Some c -> string_of_int c)
            (String.concat ", "
               (List.map
                  (fun (p, v) ->
                    Printf.sprintf "%s: %b" (quote p) v)
                  div.Milo_guard.Guard.div_inputs))
            (String.concat ", "
               (List.map quote div.Milo_guard.Guard.div_cone_inputs))
            div.Milo_guard.Guard.div_cone_comps
        else
          Printf.printf "NOT equivalent: %s\n"
            (Milo_guard.Guard.describe div);
        exit 7
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Simulation-based equivalence check of two designs on their \
             shared port interface: exhaustive for small input counts, \
             random-vector (and lock-step sequential) otherwise.  The \
             counterexample is delta-debugged to a minimal vector and \
             localized to the diverging output cone.  Exits 7 when the \
             designs are not equivalent; a port-interface mismatch is a \
             usage error (exit 5).")
    Term.(ret (const run $ design_a $ design_b $ vectors_arg $ cycles_arg
               $ seed_arg $ json_arg))

let stats_cmd =
  let run path tech =
    protect ~file:path @@ fun () ->
    let design = read_design path in
    let s = Milo.Flow.baseline_stats ~technology:(technology_of tech) design in
    Printf.printf
      "delay %.2f ns\narea %.1f cells\npower %.1f mW\ngates %d\ncomponents %d\n"
      s.Milo.Flow.delay s.Milo.Flow.area s.Milo.Flow.power s.Milo.Flow.gates
      s.Milo.Flow.comps;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Baseline (compile + map, unoptimized) statistics.")
    Term.(ret (const run $ design_arg $ tech_arg))

let lint_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let strict_arg =
    Arg.(value & flag
           & info [ "strict" ]
               ~doc:"Exit non-zero on warnings as well as errors.")
  in
  let rules_arg =
    Arg.(value & opt (some string) None
           & info [ "rules" ] ~docv:"R1,R2"
               ~doc:"Comma-separated subset of passes to run (default: all).")
  in
  let run path json strict rules =
    protect ~file:path @@ fun () ->
    let design = read_design path in
    let techs =
      [
        Milo_library.Generic.get ();
        (Milo.Flow.target_of Milo.Flow.Ecl).Milo_techmap.Table_map.tech;
        (Milo.Flow.target_of Milo.Flow.Cmos).Milo_techmap.Table_map.tech;
      ]
    in
    let db = Milo_compilers.Database.create () in
    let resolve = Milo_compilers.Database.resolver db techs in
    let is_sequential = Milo.Flow.seq_classifier techs in
    let rules = Option.map (String.split_on_char ',') rules in
    let diags =
      try Milo_lint.Lint.run ~resolve ~is_sequential ?rules design
      with Invalid_argument msg -> parse_fail ~file:path "%s" msg
    in
    let report =
      {
        Milo_lint.Lint.design_name = Milo_netlist.Design.name design;
        stage = None;
        diags;
      }
    in
    if json then print_string (Milo_lint.Lint.report_to_json report)
    else print_string (Milo_lint.Lint.report_to_string report);
    let blocking =
      if strict then List.exists (fun d -> d.Diag.severity <> Diag.Info) diags
      else Milo_lint.Lint.errors diags <> []
    in
    if blocking then exit 1 else `Ok ()
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the netlist DRC passes (drivers, loops, floating pins, \
             references) and report findings.")
    Term.(ret (const run $ design_arg $ json_arg $ strict_arg $ rules_arg))

let analyze_cmd =
  let json_arg =
    Arg.(value & flag
           & info [ "json" ]
               ~doc:"Emit the facts (and certificates) as one JSON object.")
  in
  let certify_arg =
    Arg.(value & flag
           & info [ "certify" ]
               ~doc:"Also statically certify the logic-level optimizer \
                     rules against the target technology and print the \
                     certificate table.")
  in
  let run path tech json certify =
    protect ~file:path @@ fun () ->
    let design = read_design path in
    let technology = technology_of tech in
    let target = Milo.Flow.target_of technology in
    (* Facts are computed over the mapped (baseline) design: that is
       the representation the optimizer rules — and their certificates —
       operate on. *)
    let mapped, db = Milo.Flow.human_baseline ~technology design in
    let techs =
      [ target.Milo_techmap.Table_map.tech; Milo_library.Generic.get () ]
    in
    let st =
      Milo_absint.Absint.analyze
        ~resolve:(Milo_compilers.Database.resolver db techs)
        (Milo_absint.Absint.env_of_techs techs)
        mapped
    in
    let name = Milo_netlist.Design.name design in
    let diags = Milo_absint.Lint_facts.all st in
    let certs =
      if certify then
        Milo_absint.Certify.certify_rules target
          Milo_critic.Critic.all_logic_level
      else []
    in
    if json then begin
      let report =
        { Milo_lint.Lint.design_name = name; stage = Some "analysis"; diags }
      in
      Printf.printf
        "{\"summary\": %s, \"report\": %s, \"certificates\": [%s]}\n"
        (Milo_absint.Absint.summary_to_json name
           (Milo_absint.Absint.summary st))
        (String.trim (Milo_lint.Lint.report_to_json report))
        (String.concat ", "
           (List.map Milo_absint.Certify.cert_to_json certs))
    end
    else begin
      Format.printf "%s: %a@." name Milo_absint.Absint.pp_summary
        (Milo_absint.Absint.summary st);
      List.iter (fun d -> print_endline ("  " ^ Diag.to_string d)) diags;
      if certify then begin
        print_endline "certificates:";
        List.iter
          (fun c ->
            Format.printf "  %a@." Milo_absint.Certify.pp_certificate c)
          certs
      end
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Abstract interpretation of the mapped design: proved-constant \
             nets, dead and unobservable logic, stuck and floating pins, \
             multi-driven nets.  With $(b,--certify), also prove each \
             logic-level optimizer rule equivalence-preserving over the \
             certification corpus and print the verdicts.")
    Term.(ret (const run $ design_arg $ tech_arg $ json_arg $ certify_arg))

let symbol_cmd =
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KINDSPEC")
  in
  let run spec =
    let text = Printf.sprintf "design sym\ncomp x %s\n" spec in
    match Milo_netlist.Parser.of_string text with
    | exception Milo_netlist.Parser.Parse_error (_, msg) ->
        Printf.eprintf "bad component spec: %s\n" msg;
        `Error (false, msg)
    | d ->
        let c = Milo_netlist.Design.find_comp d "x" in
        print_string
          (Milo_compilers.Symbol.render
             (Milo_compilers.Symbol.generate c.Milo_netlist.Design.kind));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "symbol"
       ~doc:"Render the schematic symbol for a component spec, e.g. \
             'reg bits=4 fns=LOAD controls=RST'.")
    Term.(ret (const run $ spec_arg))

let () =
  let doc = "MILO: a microarchitecture and logic optimizer" in
  let info = Cmd.info "milo" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd;
            map_cmd;
            optimize_cmd;
            run_cmd;
            resume_cmd;
            replay_cmd;
            profile_cmd;
            explain_cmd;
            trajectory_cmd;
            verify_cmd;
            stats_cmd;
            lint_cmd;
            analyze_cmd;
            symbol_cmd;
          ]))
