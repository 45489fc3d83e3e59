(* The flow benchmark: every workload through Milo.Flow.run, end to end
   and layer by layer.

     main.exe flow [--seed S] [--trials N] [--out FILE] [--trace-out DIR]
         N untraced trials per workload, interleaved round-robin, plus
         one traced trial per workload; prints every metric, writes the
         summary to FILE and one Chrome trace per workload to DIR.
     main.exe run --workload W --seed S --seconds T --trace 0|1
         trials of one workload for T seconds; the last line of output
         is one JSON object with the metrics BENCHMARK.json names.
     main.exe compare OLD.json NEW.json
         medians, spreads and a verdict per workload and end-to-end
         metric, with the bounds from BENCHMARK.json; exits 1 on a
         regression.
     main.exe smoke
         in-process harness check (runtest).
     main.exe flow-trial --workload W [...]
         one trial, in the process that prints it (spawned by the
         commands above).

   Every trial is a fresh process, as every CLI run is, so one trial's
   module-global caches never reach the next. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("flowbench: " ^ s); exit 2) fmt

(* --- BENCHMARK.json ---------------------------------------------------- *)

type metric = { m_name : string; m_unit : string; m_lower : bool; m_bound : float }

type spec = { end_to_end : metric list; per_layer : metric list; workload_names : string list }

let load_spec path =
  let j = try Json.read_file path with Sys_error e | Json.Parse_error e -> fail "%s" e in
  let metrics key =
    List.map
      (fun m ->
        {
          m_name = Json.to_str (Json.member_exn "name" m);
          m_unit = Json.to_str (Json.member_exn "unit" m);
          m_lower = Json.to_str (Json.member_exn "better" m) = "lower";
          m_bound =
            (match Json.member "bound" m with Some b -> Json.to_num b | None -> 0.0);
        })
      (Json.to_list (Json.member_exn key j))
  in
  {
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
    workload_names =
      List.map
        (fun w -> Json.to_str (Json.member_exn "name" w))
        (Json.to_list (Json.member_exn "workloads" j));
  }

(* --- trial records -------------------------------------------------------- *)

let metric_of name record =
  Json.to_num (Json.member_exn name (Json.member_exn "metrics" record))

let metric_names record = List.map fst (Json.to_obj (Json.member_exn "metrics" record))
let strings key record = List.map Json.to_str (Json.to_list (Json.member_exn key record))

let last_record s =
  List.find_opt
    (fun l -> String.starts_with ~prefix:"{" l)
    (List.rev (String.split_on_char '\n' s))

(* One trial in a fresh process.  Its stdout and stderr share a pipe;
   the record is the last line holding a JSON object, and the rest is
   shown only when the trial fails. *)
let spawn_trial ?(traced = false) ?trace_out ~seed ~check_seed w =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [
      Sys.executable_name; "flow-trial"; "--workload"; Trial.name w; "--seed";
      string_of_int seed; "--check-seed"; string_of_int check_seed;
    ]
    @ (if traced then [ "--traced" ] else [])
    @ (match trace_out with Some d -> [ "--trace-out"; d ] | None -> [])
  in
  (* the origin of the trial's setup_s, taken just before the spawn *)
  let args = args @ [ "--spawned-at"; Printf.sprintf "%.6f" (Unix.gettimeofday ()) ] in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr wr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let record =
    match (status, last_record out) with
    | Unix.WEXITED 0, Some l -> (
        try Ok (Json.parse l) with Json.Parse_error e -> Error ("unreadable record: " ^ e))
    | Unix.WEXITED n, _ -> Error (Printf.sprintf "trial exited %d" n)
    | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ -> Error (Printf.sprintf "trial killed by signal %d" n)
  in
  (match record with
  | Error e -> Printf.eprintf "flowbench: %s %s\n%s\n%!" (Trial.name w) e out
  | Ok _ -> ());
  record

(* --- summaries ------------------------------------------------------------ *)

(* Timings are summarised as median, quartiles and n over trials; the
   QoR metrics are deterministic and reported as one value. *)
let timing_metrics = [ "setup_s"; "flow_s"; "verify_s"; "peak_rss_mb" ]
let qor_metrics = [ "delay_ratio"; "area_ratio"; "power_ratio"; "timing_met_frac" ]
let host_metrics = [ "flow_cpu_s"; "host.calib_s"; "host.calib_cpu_s" ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_vps" then "1/s"
  else if ends "_us_mean" then "us"
  else if ends "_s" then "s"
  else if ends "_mb" then "MB"
  else if ends "_ratio" then "ratio"
  else if ends "_frac" || ends "_rate" || ends "_per_eval" then "fraction"
  else if ends ".bytes" then "bytes"
  else "count"

let stat_json name xs =
  let q1, q3 = Stats.quartiles xs in
  Json.Obj
    [
      ("unit", Json.Str (unit_of name));
      ("median", Json.Num (Stats.median xs));
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("n", Json.Num (float_of_int (List.length xs)));
    ]

let value_json name v = Json.Obj [ ("unit", Json.Str (unit_of name)); ("value", Json.Num v) ]

(* A workload's summary from its untraced trials and its traced trial.
   A flow fails when it ended Partial or raised, failed the equivalence
   gate or its replay, or when its QoR differs from the first trial's;
   a trial that produced no record fails all of its flows. *)
let summarize w ~seed ~flows_per_trial ?traced trials =
  let all = Option.to_list traced @ trials in
  let ok = List.filter_map Result.to_option trials in
  let reference =
    match List.filter_map Result.to_option all with r :: _ -> strings "qor" r | [] -> []
  in
  let failed_in = function
    | Error _ -> flows_per_trial
    | Ok r ->
        let differing =
          try List.length (List.filter (fun (a, b) -> a <> b) (List.combine reference (strings "qor" r)))
          with Invalid_argument _ -> flows_per_trial
        in
        max differing (List.length (strings "failures" r))
  in
  let failed = List.fold_left (fun a t -> a + failed_in t) 0 all in
  let attempted = flows_per_trial * List.length all in
  let failures = List.concat_map (function Ok r -> strings "failures" r | Error e -> [ e ]) all in
  let series name = List.map (metric_of name) ok in
  let first = match ok with r :: _ -> Some r | [] -> None in
  let end_to_end =
    List.map (fun n -> (n, stat_json n (series n))) timing_metrics
    @ List.filter_map
        (fun n -> Option.map (fun r -> (n, value_json n (metric_of n r))) first)
        qor_metrics
    @ [ ("failed_frac", value_json "failed_frac" (float_of_int failed /. float_of_int (max 1 attempted))) ]
  in
  let per_layer =
    match traced with
    | None | Some (Error _) -> []
    | Some (Ok t) ->
        let skip n = List.mem n timing_metrics || List.mem n qor_metrics || List.mem n host_metrics in
        List.filter_map
          (fun n -> if skip n then None else Some (n, value_json n (metric_of n t)))
          (metric_names t)
        @ [
            ( "trace.overhead_frac",
              value_json "trace.overhead_frac"
                ((metric_of "flow_s" t /. Stats.median (series "flow_s")) -. 1.0) );
          ]
  in
  Json.Obj
    [
      ("seed", if Trial.seeded w then Json.Num (float_of_int seed) else Json.Null);
      ("flows_per_trial", Json.Num (float_of_int flows_per_trial));
      ("trials", Json.Num (float_of_int (List.length trials)));
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("failures", Json.List (List.map (fun s -> Json.Str s) failures));
      ("end_to_end", Json.Obj end_to_end);
      ("host", Json.Obj (List.map (fun n -> (n, stat_json n (series n))) host_metrics));
      ("per_layer", Json.Obj per_layer);
    ]

let flows_per_trial ~seed w = List.length (Trial.generate ~seed w)

let print_summary w s =
  let int k = int_of_float (Json.to_num (Json.member_exn k s)) in
  Printf.printf "\n== %s  (%s; %d flows x %d trials, %d failed)\n" (Trial.name w)
    (match Json.member_exn "seed" s with
    | Json.Num n -> Printf.sprintf "seed %.0f" n
    | _ -> "fixed designs, no seed")
    (int "flows_per_trial") (int "trials") (int "failed");
  List.iter (fun f -> Printf.printf "   FAILED %s\n" (Json.to_str f)) (Json.to_list (Json.member_exn "failures" s));
  let row (name, v) =
    let get k = Json.member k v in
    let unit = Json.to_str (Json.member_exn "unit" v) in
    match (get "median", get "value") with
    | Some (Json.Num m), _ ->
        let n k = Json.to_num (Json.member_exn k v) in
        Printf.printf "   %-24s %14.6g %-8s [q1 %.6g, q3 %.6g, n %.0f]\n" name m unit (n "q1") (n "q3") (n "n")
    | _, Some (Json.Num x) -> Printf.printf "   %-24s %14.6g %s\n" name x unit
    | _ -> Printf.printf "   %-24s %14s %s\n" name "-" unit
  in
  List.iter
    (fun (section, title) ->
      Printf.printf "  %s\n" title;
      List.iter row (Json.to_obj (Json.member_exn section s)))
    [ ("end_to_end", "end to end"); ("host", "host (reported only)"); ("per_layer", "per layer (traced trial)") ]

(* --- flow ----------------------------------------------------------------- *)

let flow_cmd ~seed ~trials ~out ~trace_out =
  Option.iter (fun d -> try Sys.mkdir d 0o755 with Sys_error _ -> ()) trace_out;
  let check_seed = Milo_guard.Guard.full_params.Milo_guard.Guard.seed in
  let round ?traced () =
    List.map (fun w -> spawn_trial ?traced ?trace_out ~seed ~check_seed w) Trial.workloads
  in
  (* Round-robin, so a burst of host slowness is shared by all
     workloads; the traced round sits in the middle, so the tracing
     overhead is not confounded with a drift of the host over the run. *)
  let rec rounds i acc traced =
    if i = trials then (List.rev acc, traced)
    else begin
      Printf.eprintf "flowbench: round %d/%d\n%!" (i + 1) trials;
      let traced = if i = trials / 2 then round ~traced:true () else traced in
      rounds (i + 1) (round () :: acc) traced
    end
  in
  let untraced, traced = rounds 0 [] [] in
  let summaries =
    List.mapi
      (fun i w ->
        let mine = List.map (fun r -> List.nth r i) untraced in
        let traced = List.nth traced i in
        (w, summarize w ~seed ~flows_per_trial:(flows_per_trial ~seed w) ~traced mine))
      Trial.workloads
  in
  List.iter (fun (w, s) -> print_summary w s) summaries;
  let doc =
    Json.Obj
      [
        ("benchmark", Json.Str "milo flow benchmark");
        ("trials_per_workload", Json.Num (float_of_int trials));
        ("random_logic_seed", Json.Num (float_of_int seed));
        ("check_seed", Json.Num (float_of_int check_seed));
        ("host_cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("workloads", Json.Obj (List.map (fun (w, s) -> (Trial.name w, s)) summaries));
      ]
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc (Json.pretty doc ^ "\n"));
      Printf.printf "\nwrote %s\n" path)
    out;
  if List.exists (fun (_, s) -> Json.to_num (Json.member_exn "failed" s) > 0.0) summaries then exit 1

(* --- run: one measurement for a benchmark driver -------------------------- *)

(* Trials of one workload until [seconds] have passed: a new trial
   starts only if the mean trial so far says it ends in time.  With
   [traced], the traced trial runs after the first third of that time,
   between untraced ones.  The driver's seed seeds the correctness
   gate's vectors; the workload's designs stay fixed (random_logic at its
   default generator seed), because its QoR metrics may not move at all
   between runs. *)
let run_cmd ~spec ~w ~seed ~seconds ~traced =
  let t0 = Unix.gettimeofday () in
  let spent = ref 0.0 in
  let rec more ~until ~at_least acc =
    let n = List.length acc in
    let elapsed = Unix.gettimeofday () -. t0 in
    if n >= at_least && elapsed +. (!spent /. float_of_int n) > until then acc
    else begin
      let t = Unix.gettimeofday () in
      let r = spawn_trial ~seed:Trial.default_seed ~check_seed:seed w in
      spent := !spent +. (Unix.gettimeofday () -. t);
      more ~until ~at_least (r :: acc)
    end
  in
  let trials, traced_trial =
    if traced then
      let before = more ~until:(seconds /. 3.0) ~at_least:1 [] in
      let t = spawn_trial ~traced:true ~seed:Trial.default_seed ~check_seed:seed w in
      (more ~until:seconds ~at_least:(List.length before + 1) before, Some t)
    else (more ~until:seconds ~at_least:3 [], None)
  in
  let s =
    summarize w ~seed:Trial.default_seed
      ~flows_per_trial:(flows_per_trial ~seed:Trial.default_seed w)
      ?traced:traced_trial trials
  in
  print_summary w s;
  let section, wanted =
    if traced then ("per_layer", spec.per_layer) else ("end_to_end", spec.end_to_end)
  in
  let have = Json.to_obj (Json.member_exn section s) in
  let metrics =
    List.map
      (fun m ->
        let value =
          match List.assoc_opt m.m_name have with
          | Some v -> (
              match (Json.member "median" v, Json.member "value" v) with
              | Some x, _ | None, Some x -> x
              | None, None -> Json.Null)
          | None -> Json.Null
        in
        (m.m_name, Json.Obj [ ("value", value); ("unit", Json.Str m.m_unit) ]))
      wanted
  in
  let missing = List.exists (fun (_, v) -> Json.member_exn "value" v = Json.Null) metrics in
  let failed = Json.to_num (Json.member_exn "failed" s) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0.0 && not missing));
            ("attempted", Json.member_exn "attempted" s);
            ("failed", Json.Num failed);
            ("metrics", Json.Obj metrics);
          ]))

(* --- compare -------------------------------------------------------------- *)

type verdict = Better | Worse | Unchanged | Unresolved | Missing

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"
  | Missing -> "missing"

(* (median, spread as a share of the median); deterministic values have
   no spread *)
let center v =
  match (Json.member "median" v, Json.member "value" v) with
  | Some (Json.Num m), _ ->
      let q k = Json.to_num (Json.member_exn k v) in
      Some (m, if m = 0.0 then 0.0 else (q "q3" -. q "q1") /. Float.abs m)
  | _, Some (Json.Num x) -> Some (x, 0.0)
  | _ -> None

(* A change is worse or better only by more than the metric's bound, and
   unresolved when either side's spread is wider than the bound. *)
let judge m old_v new_v =
  match (center old_v, center new_v) with
  | Some (o, so), Some (n, sn) ->
      let rel =
        if n = o then 0.0
        else if o = 0.0 then Float.copy_sign infinity (n -. o)
        else (n -. o) /. Float.abs o
      in
      let worse_by = if m.m_lower then rel else -.rel in
      if Float.max so sn > m.m_bound then (Unresolved, o, n)
      else if worse_by > m.m_bound then (Worse, o, n)
      else if -.worse_by > m.m_bound then (Better, o, n)
      else (Unchanged, o, n)
  | _ -> (Missing, nan, nan)

(* failed_frac is not a driver metric (it is 0 on a sound run); compare
   checks it with a zero bound all the same. *)
let failed_frac_metric = { m_name = "failed_frac"; m_unit = "fraction"; m_lower = true; m_bound = 0.0 }

let compare_docs ?(print = true) spec old_doc new_doc =
  let workloads doc = Json.member_exn "workloads" doc in
  if print then
    Printf.printf "%-13s %-16s %14s %14s %9s %8s  %s\n" "workload" "metric" "old" "new" "change"
      "bound" "verdict";
  let verdicts =
    List.concat_map
      (fun wname ->
        List.map
          (fun m ->
            let get doc =
              Option.bind (Json.member wname (workloads doc)) (fun s ->
                  Option.bind (Json.member "end_to_end" s) (Json.member m.m_name))
            in
            let v, o, n =
              match (get old_doc, get new_doc) with
              | Some a, Some b -> judge m a b
              | _ -> (Missing, nan, nan)
            in
            if print then
              Printf.printf "%-13s %-16s %14.6g %14.6g %9s %8g  %s\n" wname m.m_name o n
                (if o = 0.0 then "-" else Printf.sprintf "%+.2f%%" (100.0 *. (n -. o) /. Float.abs o))
                m.m_bound (verdict_name v);
            v)
          (spec.end_to_end @ [ failed_frac_metric ]))
      spec.workload_names
  in
  List.for_all (fun v -> v <> Worse && v <> Missing) verdicts

(* --- smoke ---------------------------------------------------------------- *)

let check cond fmt = Printf.ksprintf (fun s -> if not cond then fail "smoke: %s" s) fmt

(* The compare rules on synthetic summaries: identical files pass, as
   does flow_s worse by half its bound; flow_s worse by twice its bound,
   a delay_ratio worse by 1e-6 and a failed flow are regressions. *)
let compare_selftest spec =
  let doc f =
    Json.Obj
      [
        ( "workloads",
          Json.Obj
            (List.map
               (fun w ->
                 ( w,
                   Json.Obj
                     [
                       ( "end_to_end",
                         Json.Obj
                           (List.map
                              (fun m ->
                                let v = f m.m_name (if m.m_name = "failed_frac" then 0.0 else 1.0) in
                                ( m.m_name,
                                  if List.mem m.m_name timing_metrics then
                                    Json.Obj
                                      [
                                        ("median", Json.Num v);
                                        ("q1", Json.Num v);
                                        ("q3", Json.Num v);
                                        ("n", Json.Num 8.0);
                                      ]
                                  else Json.Obj [ ("value", Json.Num v) ] ))
                              (spec.end_to_end @ [ failed_frac_metric ])) );
                     ] ))
               spec.workload_names) );
      ]
  in
  let same = doc (fun _ v -> v) in
  let bump name by = doc (fun n v -> if n = name then v +. by else v) in
  let flow_bound =
    (List.find (fun m -> m.m_name = "flow_s") spec.end_to_end).m_bound
  in
  check (compare_docs ~print:false spec same same) "identical summaries flagged as a regression";
  check
    (compare_docs ~print:false spec same (bump "flow_s" (flow_bound /. 2.0)))
    "flow_s worse by half its bound flagged";
  check
    (not (compare_docs ~print:false spec same (bump "flow_s" (2.0 *. flow_bound))))
    "flow_s worse by twice its bound not flagged";
  check
    (not (compare_docs ~print:false spec same (bump "delay_ratio" 1e-6)))
    "delay_ratio worse by 1e-6 not flagged";
  check
    (not (compare_docs ~print:false spec same (bump "failed_frac" 0.01)))
    "a failed flow not flagged"

(* One in-process pass over designs 3 and 5 (ECL), twice untraced and
   once traced, in both the CLI and the assured configuration. *)
let smoke spec =
  compare_selftest spec;
  let specs () =
    Trial.suite_specs Milo.Flow.Ecl [ Milo_designs.Suite.design3 (); Milo_designs.Suite.design5 () ]
  in
  let trial ?(traced = false) w =
    Ok (Trial.run ~specs:(specs ()) ~seed:Trial.default_seed ~check_seed:1 ~traced w)
  in
  List.iter
    (fun w ->
      let s =
        summarize w ~seed:Trial.default_seed ~flows_per_trial:2 ~traced:(trial ~traced:true w)
          [ trial w; trial w ]
      in
      let failures = List.map Json.to_str (Json.to_list (Json.member_exn "failures" s)) in
      check (failures = []) "%s: %s" (Trial.name w) (String.concat "; " failures);
      check (Json.to_num (Json.member_exn "failed" s) = 0.0) "%s: QoR differs between runs" (Trial.name w);
      List.iter
        (fun (section, metrics) ->
          let have = Json.to_obj (Json.member_exn section s) in
          List.iter
            (fun m ->
              check (List.mem_assoc m.m_name have) "%s: %s metric %s not emitted" (Trial.name w) section
                m.m_name;
              check
                (Json.to_str (Json.member_exn "unit" (List.assoc m.m_name have)) = m.m_unit)
                "%s: unit of %s differs from BENCHMARK.json" (Trial.name w) m.m_name)
            metrics)
        [ ("end_to_end", spec.end_to_end); ("per_layer", spec.per_layer) ])
    [ Trial.Fig19; Trial.Assured ];
  print_endline "flowbench smoke: ok"

(* --- command line --------------------------------------------------------- *)

(* [--key value] options and bare [--flag]s after the sub-command *)
let parse_args args =
  let rec go opts pos = function
    | [] -> (opts, List.rev pos)
    | k :: v :: rest when String.starts_with ~prefix:"--" k && not (String.starts_with ~prefix:"--" v) ->
        go ((k, v) :: opts) pos rest
    | k :: rest when String.starts_with ~prefix:"--" k -> go ((k, "") :: opts) pos rest
    | p :: rest -> go opts (p :: pos) rest
  in
  go [] [] args

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      let opts, pos = parse_args rest in
      let opt k = List.assoc_opt k opts in
      let num k conv default =
        match opt k with
        | None -> default
        | Some v -> ( match conv v with Some x -> x | None -> fail "bad value %S for %s" v k)
      in
      let workload () =
        match Option.bind (opt "--workload") Trial.of_name with
        | Some w -> w
        | None -> fail "--workload must be one of fig19, random_logic, assured"
      in
      let spec () = load_spec (Option.value ~default:"BENCHMARK.json" (opt "--spec")) in
      match cmd with
      | "flow-trial" ->
          let record =
            Trial.run ?started:(Option.bind (opt "--spawned-at") float_of_string_opt)
              ?trace_out:(opt "--trace-out")
              ~seed:(num "--seed" int_of_string_opt Trial.default_seed)
              ~check_seed:(num "--check-seed" int_of_string_opt 0)
              ~traced:(List.mem_assoc "--traced" opts) (workload ())
          in
          Format.pp_print_flush Format.err_formatter ();
          print_endline (Json.to_string record)
      | "flow" ->
          flow_cmd
            ~seed:(num "--seed" int_of_string_opt Trial.default_seed)
            ~trials:
              (num "--trials"
                 (fun s -> Option.bind (int_of_string_opt s) (fun n -> if n >= 1 then Some n else None))
                 8)
            ~out:(opt "--out") ~trace_out:(opt "--trace-out")
      | "run" ->
          let trace = num "--trace" int_of_string_opt 0 in
          run_cmd ~spec:(spec ()) ~w:(workload ())
            ~seed:(num "--seed" int_of_string_opt 1)
            ~seconds:(num "--seconds" float_of_string_opt 25.0)
            ~traced:(trace = 1)
      | "compare" -> (
          match pos with
          | [ a; b ] ->
              let read p = try Json.read_file p with Sys_error e | Json.Parse_error e -> fail "%s" e in
              if not (compare_docs (spec ()) (read a) (read b)) then exit 1
          | _ -> fail "usage: compare OLD.json NEW.json [--spec BENCHMARK.json]")
      | "smoke" -> smoke (spec ())
      | _ -> fail "unknown command %s" cmd)
  | _ -> fail "usage: main.exe flow|run|compare|smoke|flow-trial [options]"
