(* One trial of the flow benchmark, run in a fresh process: set up a
   workload, run each of its flows once through [Milo.Flow.run] with the
   settings [milo optimize] uses, verify every result, and report the
   trial's metrics as one JSON object.

   A traced trial also installs a tracer, brackets each flow stage with
   the benchmark's own spans (through [Flow.hooks]) and then times
   direct calls into single layers on the run's checkpoints, so per-layer
   numbers never perturb the untraced end-to-end timings. *)

module D = Milo_netlist.Design
module F = Milo.Flow
module Trace = Milo_trace.Trace
module Metrics = Milo_trace.Metrics
module Guard = Milo_guard.Guard
module Sim = Milo_sim.Simulator
module Certify = Milo_absint.Certify
module Database = Milo_compilers.Database
module P = Milo_provenance.Provenance

(* Evaluated at program start, before any set-up work. *)
let process_start = Unix.gettimeofday ()

type workload = Fig19 | Random_logic | Assured

let workloads = [ Fig19; Random_logic; Assured ]

let name = function
  | Fig19 -> "fig19"
  | Random_logic -> "random_logic"
  | Assured -> "assured"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* Only the generated workload takes a seed; the others are the paper's
   fixed designs. *)
let seeded = function Random_logic -> true | Fig19 | Assured -> false
let default_seed = 7
let random_logic_gates = [ 150; 300 ]

type job = {
  label : string;
  design : D.t;
  tech : F.technology;
  constraints : Milo.Constraints.t;
}

(* A design before its constraints are settled: [None] stands for half
   the human-baseline delay, which [resolve] computes after set-up,
   outside every timed region. *)
type spec = string * D.t * F.technology * Milo.Constraints.t option

let suite_specs tech cases : spec list =
  List.map
    (fun (c : Milo_designs.Suite.case) ->
      ( c.case_name ^ "/" ^ F.technology_name tech,
        c.case_design,
        tech,
        Some c.constraints ))
    cases

let generate ~seed w : spec list =
  match w with
  | Fig19 ->
      suite_specs F.Ecl (Milo_designs.Suite.all ())
      @ suite_specs F.Cmos (Milo_designs.Suite.all ())
  | Assured -> suite_specs F.Ecl (Milo_designs.Suite.all ())
  | Random_logic ->
      List.map
        (fun gates ->
          let d =
            Milo_designs.Workload.random_logic ~inputs:16 ~outputs:8 ~gates ~seed
              ()
          in
          (D.name d ^ "/ecl", d, F.Ecl, None))
        random_logic_gates

let resolve ((label, design, tech, constraints) : spec) =
  let constraints =
    match constraints with
    | Some c -> c
    | None ->
        let human = F.baseline_stats ~technology:tech design in
        Milo.Constraints.delay (0.5 *. human.F.delay)
  in
  { label; design; tech; constraints }

(* The flow settings of [milo optimize] on a two-core host: sampled
   guard with certification, incremental measurement and one domain
   (cores - 1, the supervised inline path).  [assured] adds the full
   guard, lint stage invariants, a journal and a provenance recorder. *)
let run_flow w ?trace ?hooks ?journal ?provenance job =
  let guard, lint =
    match w with
    | Assured -> (Guard.Full, Milo_lint.Lint.Warn)
    | Fig19 | Random_logic -> (Guard.Sampled, Milo_lint.Lint.Off)
  in
  F.run ~technology:job.tech ~constraints:job.constraints ~lint ~guard
    ~domains:1 ?trace ?hooks ?journal ?provenance job.design

type flow = {
  job : job;
  result : (F.result, string) result;
  journal : string option;
  provenance : P.t option;
}

(* Stage spans of the benchmark's own, opened from the flow's hooks.
   Each opens inside the flow's stage span and closes with it; the
   optimize span is cut at the optimize checkpoint so the tail of the
   run (analysis, statistics, journal finish) gets its own span.
   Capture has no hook before it: its time runs from the per-flow span's
   start to the micro span's start. *)
let stage_hooks =
  {
    F.before_stage =
      (fun s _ -> Trace.open_span ("bench.stage:" ^ F.stage_name s));
    on_checkpoint =
      (fun ck ->
        if ck.F.ck_stage = F.Optimize then begin
          Trace.close_span "bench.stage:optimize";
          Trace.open_span "bench.stage:finish"
        end);
  }

let run_pass w ~scratch ?tracer jobs =
  List.mapi
    (fun i job ->
      let journal =
        match w with
        | Assured ->
            Some (Filename.concat scratch (Printf.sprintf "flow%d.journal" i))
        | Fig19 | Random_logic -> None
      in
      let provenance =
        match w with Assured -> Some (P.create ()) | Fig19 | Random_logic -> None
      in
      let outcome () =
        match tracer with
        | None -> run_flow w ?journal ?provenance job
        | Some t ->
            (* The flow's closing flush also ends this span. *)
            Trace.with_tracer t (fun () ->
                Trace.with_span ("bench.flow:" ^ job.label) (fun () ->
                    run_flow w ~trace:t ~hooks:stage_hooks ?journal ?provenance
                      job))
      in
      let result =
        match outcome () with
        | F.Complete r -> Ok r
        | F.Partial p -> Error ("partial: " ^ p.F.failure.F.err_message)
        | exception e -> Error ("raised " ^ Printexc.to_string e)
      in
      { job; result; journal; provenance })
    jobs

let generic () = Milo_library.Generic.get ()

let mapped_techs tech =
  [ (F.target_of tech).Milo_techmap.Table_map.tech; generic () ]

(* The independent correctness gate: the optimized design against the
   input design, whose side is simulated through the micro-component
   semantics in the generic environment, so the reference is none of the
   flow's own checkpoints. *)
let gate ~check_seed job (r : F.result) =
  let mapped = mapped_techs job.tech in
  match
    Guard.check
      ~params:{ Guard.full_params with seed = check_seed }
      ~is_seq:(F.seq_classifier mapped)
      (Sim.env_of_techs [ generic () ])
      job.design (Sim.env_of_techs mapped) r.F.optimized
  with
  | None -> None
  | Some d -> Some ("not equivalent to its input: " ^ Guard.describe d)
  | exception e -> Some ("equivalence check raised " ^ Printexc.to_string e)

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l -> (
              match Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb) with
              | Some kb -> float_of_int kb /. 1024.0
              | None -> find ())
        in
        find ())
  with Sys_error _ -> nan

(* A fixed pure-OCaml loop, timed in wall and CPU seconds.  Reported
   next to the measurements so a slow host can be told apart from a
   slow program; never used to normalise anything. *)
let calibrate () =
  let w0 = Unix.gettimeofday () and c0 = Sys.time () in
  let acc = ref 0 and cells = ref [] in
  for i = 1 to 20_000_000 do
    acc := (!acc * 1103515245) + i land 0x3fffffff;
    if i land 63 = 0 then
      cells := i :: (if i land 65535 = 0 then [] else !cells)
  done;
  ignore (Sys.opaque_identity (!acc, !cells));
  (Unix.gettimeofday () -. w0, Sys.time () -. c0)

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let completed flows =
  List.filter_map
    (fun f -> match f.result with Ok r -> Some (f, r) | Error _ -> None)
    flows

let checkpoint (r : F.result) stage =
  (List.find (fun c -> c.F.ck_stage = stage) r.F.checkpoints).F.ck_design

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let isum f l = float_of_int (List.fold_left (fun a x -> a + f x) 0 l)

(* --- per-layer metrics of a traced pass ------------------------------- *)

let span_metrics t =
  let spans = Trace.spans t in
  let total name =
    sum Trace.span_dur (List.filter (fun s -> s.Trace.name = name) spans)
  in
  let rec capture acc = function
    | [] -> acc
    | (f : Trace.span) :: rest
      when String.starts_with ~prefix:"bench.flow:" f.Trace.name -> (
        match
          List.find_opt (fun s -> s.Trace.name = "bench.stage:micro") rest
        with
        | Some m -> capture (acc +. (m.Trace.start -. f.Trace.start)) rest
        | None -> capture acc rest)
    | _ :: rest -> capture acc rest
  in
  let stage s = ("flow.stage." ^ s ^ "_s", total ("bench.stage:" ^ s)) in
  (* self time: a span's duration minus the time its children cover *)
  let selfs = Hashtbl.create 16 in
  let rec walk (n : Milo_trace.Profile.node) =
    let key =
      let nm = n.span.Trace.name in
      if String.starts_with ~prefix:"level:" nm then "level:*" else nm
    in
    Hashtbl.replace selfs key
      (n.self +. Option.value ~default:0.0 (Hashtbl.find_opt selfs key));
    List.iter walk n.children
  in
  List.iter walk (Milo_trace.Profile.tree t);
  let self k = Option.value ~default:0.0 (Hashtbl.find_opt selfs k) in
  [
    ("flow.stage.capture_s", capture 0.0 spans);
    stage "micro";
    stage "compile";
    stage "techmap";
    stage "optimize";
    stage "finish";
    ("optimizer.level_s", self "level:*");
    ("optimizer.time_opt_s", self "time-opt");
    ("optimizer.area_opt_s", self "area-opt");
    ("optimizer.electric_s", self "electric");
  ]

let registry_metrics t =
  let m = Trace.metrics t in
  let hist k =
    match List.assoc_opt k (Metrics.histograms m) with
    | Some h -> h
    | None -> { Metrics.count = 0; sum = 0.0; buckets = [||] }
  in
  let gauge k =
    Option.value ~default:0.0 (List.assoc_opt k (Metrics.gauges m))
  in
  [
    ("engine.eval_us_mean", Metrics.mean (hist "engine.eval_us"));
    ("engine.evals_timed", float_of_int (hist "engine.eval_us").count);
    ("measure.env_hit_rate", gauge "measure.env_hit_rate");
    ("measure.cone_nets_mean", Metrics.mean (hist "measure.cone_nets"));
    ("sta.update_cone_mean", Metrics.mean (hist "sta.update.cone"));
  ]

let layer_reps = 3

(* Direct calls into single layers over the run's own checkpoints.
   [prepare] builds fresh inputs outside the timed region and returns
   the calls; each repetition is one span of the run's tracer, and the
   metric is the median repetition. *)
let time_layer t name prepare =
  Stats.median
    (List.init layer_reps (fun _ ->
         let calls = prepare () in
         Trace.with_tracer t (fun () ->
             Trace.with_span ("bench.layer:" ^ name) (fun () ->
                 let t0 = Unix.gettimeofday () in
                 List.iter (fun call -> call ()) calls;
                 Unix.gettimeofday () -. t0))))

let layer_metrics w t flows =
  let done_ = completed flows in
  let each per_flow () = List.map per_flow done_ in
  let stage_params =
    match w with
    | Assured -> Guard.full_params
    | Fig19 | Random_logic -> Guard.sampled_params
  in
  let flat_compile r =
    Database.flatten r.F.database (D.copy (checkpoint r F.Compile))
  in
  let sta_s =
    time_layer t "sta.analyze"
      (each (fun (f, (r : F.result)) ->
           let lib = (F.target_of f.job.tech).Milo_techmap.Table_map.tech in
           let arrivals = f.job.constraints.Milo.Constraints.input_arrivals in
           fun () ->
             ignore
               (Milo_timing.Sta.analyze ~input_arrivals:arrivals
                  (Milo_library.Technology.find lib)
                  r.F.optimized)))
  in
  let expand_s =
    time_layer t "compilers.expand"
      (each (fun (_, r) ->
           let micro = D.copy (checkpoint r F.Micro) in
           fun () ->
             ignore
               (Milo_compilers.Compile.expand_design (Database.create ())
                  (generic ()) micro)))
  in
  let map_s =
    time_layer t "techmap.map"
      (each (fun (f, r) ->
           let flat = flat_compile r and target = F.target_of f.job.tech in
           fun () -> ignore (Milo_techmap.Table_map.map_design target flat)))
  in
  (* the flow's three stage guards: compile, techmap and optimize, each
     against the previous checkpoint, with the run's parameters *)
  let stage_check_s =
    time_layer t "guard.stage_check"
      (each (fun (f, r) ->
           let mapped = mapped_techs f.job.tech in
           let env_g = Sim.env_of_techs [ generic () ]
           and env_m = Sim.env_of_techs mapped in
           let seq_g = F.seq_classifier [ generic () ]
           and seq_m = F.seq_classifier mapped in
           let micro = checkpoint r F.Micro and techmap = checkpoint r F.Techmap in
           let flat1 = flat_compile r and flat2 = flat_compile r in
           fun () ->
             let check is_seq env a b =
               ignore (Guard.check ~params:stage_params ~is_seq env a env b)
             in
             check seq_g env_g micro flat1;
             check seq_m env_m flat2 techmap;
             check seq_m env_m techmap r.F.optimized))
  in
  let absint_s =
    time_layer t "absint.fixpoint"
      (each (fun (f, (r : F.result)) ->
           let mapped = mapped_techs f.job.tech in
           fun () ->
             ignore
               (Milo_absint.Absint.analyze
                  ~resolve:(Database.resolver r.F.database mapped)
                  (Milo_absint.Absint.env_of_techs mapped)
                  r.F.optimized)))
  in
  let sim_passes = 64 in
  let sim_s =
    time_layer t "sim.packed"
      (each (fun (f, (r : F.result)) ->
           let sim = Sim.create (Sim.env_of_techs (mapped_techs f.job.tech)) r.F.optimized in
           let rng = Random.State.make [| 17 |] in
           let words =
             List.init sim_passes (fun _ ->
                 List.filter_map
                   (fun (p, dir, _) ->
                     if dir = Milo_netlist.Types.Input then
                       Some (p, Random.State.bits rng)
                     else None)
                   (D.ports r.F.optimized))
           in
           fun () -> List.iter (fun ws -> ignore (Sim.outputs_packed sim ws)) words))
  in
  let certs = ref [] in
  let prove_s =
    time_layer t "certify.prove" (fun () ->
        certs := [];
        List.map
          (fun tech () ->
            certs :=
              Certify.certify_rules ~cache:(Certify.create_cache ())
                (F.target_of tech) Milo_critic.Critic.all_logic_level
              @ !certs)
          (List.sort_uniq compare (List.map (fun f -> f.job.tech) flows)))
  in
  let proved =
    List.filter (fun c -> c.Certify.cert_verdict = Certify.Certified) !certs
  in
  [
    ("sta.analyze_s", sta_s);
    ("compilers.expand_s", expand_s);
    ("techmap.map_s", map_s);
    ("guard.stage_check_s", stage_check_s);
    ( "sim.packed_vps",
      float_of_int (sim_passes * Sim.lanes * List.length done_) /. sim_s );
    ("certify.prove_s", prove_s);
    ( "certify.proved_frac",
      float_of_int (List.length proved)
      /. float_of_int (max 1 (List.length !certs)) );
    ("absint.fixpoint_s", absint_s);
  ]

(* Exact counts every trial records: work done by the rule engine, the
   critic and the guard, the journal layer, and the size of the netlist
   after mapping and at the end. *)
let count_metrics flows replays =
  let done_ = List.map snd (completed flows) in
  let budget f = isum (fun (r : F.result) -> f r.F.budget) done_ in
  let evals = budget (fun b -> b.Milo_rules.Budget.evals_used) in
  let steps = budget (fun b -> b.Milo_rules.Budget.steps_used) in
  let guard f = isum (fun (r : F.result) -> f r.F.guard_stats) done_ in
  let reports = List.filter_map (fun (_, r) -> Result.to_option r) replays in
  [
    ("rules.evals", evals);
    ("rules.steps", steps);
    ("rules.steps_per_eval", if evals > 0.0 then steps /. evals else 0.0);
    ( "critic.micro_apps",
      isum (fun (r : F.result) -> List.length r.F.micro_applications) done_ );
    ("guard.stage_checks", guard (fun s -> s.Guard.stage_checks));
    ("guard.rule_checks", guard (fun s -> s.Guard.rule_checks));
    ("guard.rule_skipped", guard (fun s -> s.Guard.rule_skipped));
    ("guard.rule_certified", guard (fun s -> s.Guard.rule_certified));
    ( "journal.bytes",
      isum
        (fun f ->
          match f.journal with
          | Some p when Sys.file_exists p -> (Unix.stat p).Unix.st_size
          | _ -> 0)
        flows );
    ("journal.records", isum (fun r -> r.F.rep_records) reports);
    ( "provenance.events",
      isum
        (fun f ->
          match f.provenance with Some p -> List.length (P.events p) | None -> 0)
        flows );
    ("replay.deltas", isum (fun r -> r.F.rep_deltas) reports);
    ("replay.checks", isum (fun r -> r.F.rep_checks) reports);
    ( "netlist.mapped_comps",
      isum (fun r -> D.num_comps (checkpoint r F.Techmap)) done_ );
    ("netlist.final_comps", isum (fun (r : F.result) -> r.F.final.F.comps) done_);
    ("netlist.final_gates", isum (fun (r : F.result) -> r.F.final.F.gates) done_);
  ]

(* QoR against the human baseline of the same design, technology and
   input arrivals, as geometric means over the completed flows. *)
let qor_metrics flows =
  let done_ = completed flows in
  let ratios =
    List.map
      (fun (f, (r : F.result)) ->
        let human =
          F.baseline_stats ~technology:f.job.tech
            ~input_arrivals:f.job.constraints.Milo.Constraints.input_arrivals
            f.job.design
        in
        (r.F.final, human))
      done_
  in
  let ratio pick = geomean (List.map (fun (m, h) -> pick m /. pick h) ratios) in
  let met =
    List.filter
      (fun (f, (r : F.result)) ->
        match f.job.constraints.Milo.Constraints.required_delay with
        | Some req -> r.F.final.F.delay <= req +. 1e-9
        | None -> true)
      done_
  in
  [
    ("delay_ratio", ratio (fun s -> s.F.delay));
    ("area_ratio", ratio (fun s -> s.F.area));
    ("power_ratio", ratio (fun s -> s.F.power));
    ( "timing_met_frac",
      float_of_int (List.length met) /. float_of_int (max 1 (List.length flows)) );
  ]

(* The exact final statistics of each flow; compared across trials. *)
let qor_key f =
  match f.result with
  | Ok r ->
      let s = r.F.final in
      Printf.sprintf "%s %h %h %h %d %d" f.job.label s.F.delay s.F.area
        s.F.power s.F.gates s.F.comps
  | Error _ -> f.job.label ^ " failed"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Journals go under the working directory, never to a system temp
   directory, and are removed when the trial ends.  A killed trial's
   directory is cleared when its pid comes round again. *)
let with_scratch f =
  let parent = Filename.concat (Sys.getcwd ()) ".flowbench-tmp" in
  let dir = Filename.concat parent (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir parent 0o755 with Sys_error _ -> ());
  remove_tree dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      try Sys.rmdir parent with Sys_error _ -> ())
    (fun () -> f dir)

(* Run one trial and return its record.  [started] is when the process
   was spawned (default: program start); [specs] overrides the workload's
   designs; [check_seed] seeds the correctness gate's random vectors. *)
let run ?(started = process_start) ?specs ?trace_out ~seed ~check_seed ~traced
    w =
  with_scratch @@ fun scratch ->
  let specs = match specs with Some s -> s | None -> generate ~seed w in
  (* the certificate cache fill Flow.run would otherwise do on its first
     flow per technology *)
  List.iter
    (fun tech ->
      ignore
        (Certify.certify_rules (F.target_of tech)
           Milo_critic.Critic.all_logic_level))
    (List.sort_uniq compare (List.map (fun (_, _, tech, _) -> tech) specs));
  let setup_s = Unix.gettimeofday () -. started in
  let jobs = List.map resolve specs in
  let tracer = if traced then Some (Trace.create ()) else None in
  let c0 = Sys.time () and t0 = Unix.gettimeofday () in
  let flows = run_pass w ~scratch ?tracer jobs in
  let flow_s = Unix.gettimeofday () -. t0 and flow_cpu_s = Sys.time () -. c0 in
  let t1 = Unix.gettimeofday () in
  let replays =
    List.filter_map
      (fun f ->
        Option.map
          (fun path ->
            (f, try Ok (F.replay path) with e -> Error (Printexc.to_string e)))
          f.journal)
      flows
  in
  let replay_s = Unix.gettimeofday () -. t1 in
  let rss = peak_rss_mb () in
  let gate_pass () =
    let t = Unix.gettimeofday () in
    let verdicts =
      List.map
        (fun f ->
          match f.result with
          | Ok r -> gate ~check_seed f.job r
          | Error e -> Some e)
        flows
    in
    (verdicts, Unix.gettimeofday () -. t)
  in
  let gates, first_s = gate_pass () in
  (* verify_s is the time to re-verify the pass's results the way a
     user of the configuration would: [milo replay] of every journal on
     assured, [milo verify] of each output against its input elsewhere.
     Where it is the gate, the pass is repeated with the same vectors
     until 0.2 s are spent, so the time is steady even where one pass
     takes a few milliseconds. *)
  let rec gate_times acc spent =
    if spent >= 0.2 then acc
    else
      let _, s = gate_pass () in
      gate_times (s :: acc) (spent +. s)
  in
  let verify_s =
    match w with
    | Assured -> replay_s
    | Fig19 | Random_logic -> Stats.median (gate_times [ first_s ] first_s)
  in
  let failures =
    List.concat
      (List.map2
         (fun f gate_failure ->
           let replay_failure =
             match List.assq_opt f replays with
             | Some (Error e) -> Some ("replay raised " ^ e)
             | Some (Ok rep) when rep.F.rep_divergences <> [] ->
                 Some
                   (Printf.sprintf "replay diverged %d times"
                      (List.length rep.F.rep_divergences))
             | _ -> None
           in
           match (gate_failure, replay_failure) with
           | Some e, _ | None, Some e -> [ Json.Str (f.job.label ^ ": " ^ e) ]
           | None, None -> [])
         flows gates)
  in
  let traced_metrics =
    match tracer with
    | None -> []
    | Some t ->
        let from_pass = span_metrics t @ registry_metrics t in
        let layers = layer_metrics w t flows in
        Option.iter
          (fun dir ->
            Milo_trace.Export.save_chrome
              (Filename.concat dir (name w ^ ".json"))
              t)
          trace_out;
        from_pass @ layers
  in
  let calib_s, calib_cpu_s = calibrate () in
  let metrics =
    [
      ("setup_s", setup_s);
      ("flow_s", flow_s);
      ("verify_s", verify_s);
      ("peak_rss_mb", rss);
      ("flow_cpu_s", flow_cpu_s);
      ("host.calib_s", calib_s);
      ("host.calib_cpu_s", calib_cpu_s);
    ]
    @ qor_metrics flows
    @ count_metrics flows replays
    @ traced_metrics
  in
  Json.Obj
    [
      ("workload", Json.Str (name w));
      ("seed", if seeded w then Json.Num (float_of_int seed) else Json.Null);
      ("traced", Json.Bool traced);
      ("flows", Json.Num (float_of_int (List.length flows)));
      ("failures", Json.List failures);
      ("qor", Json.List (List.map (fun f -> Json.Str (qor_key f)) flows));
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) metrics));
    ]
