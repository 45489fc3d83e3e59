(* Lint driver: pass selection, severity accounting, reports, the
   stage-invariant entry point used by the flow, and [check], the
   historical structural validator. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

type level = Off | Warn | Strict

let level_name = function Off -> "off" | Warn -> "warn" | Strict -> "strict"

let level_of_string = function
  | "off" -> Some Off
  | "warn" -> Some Warn
  | "strict" -> Some Strict
  | _ -> None

(* The purely structural invariants a rewrite engine must preserve at
   every step.  Floating pins and undriven nets are legitimately
   transient mid-rewrite (e.g. [Rule.replace_macro] leaves unmapped pins
   open for a later connect), so they are excluded here. *)
let structural_rules =
  [
    "net-consistency"; "port-consistency"; "unknown-ref"; "unknown-pin";
    "multiple-drivers"; "comb-loop";
  ]

(* The rule set the structural validator [check] has always enforced. *)
let compat_rules =
  [
    "net-consistency"; "port-consistency"; "unknown-ref"; "unknown-pin";
    "multiple-drivers"; "floating-input"; "unconnected-clock";
  ]

let run ?resolve ?(is_sequential = T.is_sequential_kind) ?rules design =
  let passes =
    match rules with
    | None -> Passes.all
    | Some ids ->
        List.filter_map
          (fun id ->
            match Passes.find id with
            | Some p -> Some p
            | None -> invalid_arg (Printf.sprintf "Lint.run: unknown rule %s" id))
          ids
  in
  let ctx = { Passes.design; resolve; is_sequential } in
  List.concat_map (fun p -> p.Passes.pass_run ctx) passes
  |> List.sort Diagnostic.compare_diag

let severity_count sev diags =
  List.length (List.filter (fun d -> d.Diagnostic.severity = sev) diags)

let errors diags =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags

(* --- reports ---------------------------------------------------------- *)

type report = {
  design_name : string;
  stage : string option;
  diags : Diagnostic.t list;
}

let report_header r =
  match r.stage with
  | Some s -> Printf.sprintf "lint %s [%s]" r.design_name s
  | None -> Printf.sprintf "lint %s" r.design_name

let report_summary r =
  Printf.sprintf "%d error%s, %d warning%s, %d info"
    (severity_count Diagnostic.Error r.diags)
    (if severity_count Diagnostic.Error r.diags = 1 then "" else "s")
    (severity_count Diagnostic.Warning r.diags)
    (if severity_count Diagnostic.Warning r.diags = 1 then "" else "s")
    (severity_count Diagnostic.Info r.diags)

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b (report_header r);
  Buffer.add_string b (": " ^ report_summary r ^ "\n");
  List.iter
    (fun d -> Buffer.add_string b ("  " ^ Diagnostic.to_string d ^ "\n"))
    r.diags;
  Buffer.contents b

let report_to_json r =
  Printf.sprintf
    "{\"design\":%s,%s\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"diagnostics\":[%s]}"
    (Milo_trace.Export.quote r.design_name)
    (match r.stage with
    | Some s ->
        Printf.sprintf "\"stage\":\"%s\"," (Milo_trace.Export.json_escape s)
    | None -> "")
    (severity_count Diagnostic.Error r.diags)
    (severity_count Diagnostic.Warning r.diags)
    (severity_count Diagnostic.Info r.diags)
    (String.concat "," (List.map Diagnostic.to_json r.diags))

exception Lint_error of report

let () =
  Printexc.register_printer (function
    | Lint_error r -> Some ("Lint_error:\n" ^ report_to_string r)
    | _ -> None)

(* --- stage invariants ------------------------------------------------- *)

(* Lint one flow stage at the configured strictness.  [Off] does
   nothing; [Warn] reports errors and warnings on stderr and carries on;
   [Strict] additionally raises {!Lint_error} when any Error-severity
   finding exists.  Returns the diagnostics (always empty under [Off])
   so the flow can attach them to its result. *)
let check_stage ?resolve ?is_sequential ~level ~stage design =
  match level with
  | Off -> []
  | Warn | Strict ->
      let diags = run ?resolve ?is_sequential design in
      let r = { design_name = D.name design; stage = Some stage; diags } in
      if level = Strict && errors diags <> [] then raise (Lint_error r);
      let visible =
        List.filter
          (fun d -> d.Diagnostic.severity <> Diagnostic.Info)
          diags
      in
      if level = Warn && visible <> [] then
        prerr_string (report_to_string { r with diags = visible });
      diags

(* --- check -------------------------------------------------------------- *)

let check ?resolve design =
  match run ?resolve ~rules:compat_rules design with
  | [] -> Ok ()
  | diags -> Error (List.map Diagnostic.to_string diags)
