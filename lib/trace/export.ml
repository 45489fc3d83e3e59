let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ json_escape s ^ "\""

(* JSON has no inf/nan literals; clamp to representable extremes. *)
let num f =
  if Float.is_nan f then "0"
  else if f = infinity then "1e308"
  else if f = neg_infinity then "-1e308"
  else Printf.sprintf "%.9g" f

let value_json = function
  | Trace.Int i -> string_of_int i
  | Trace.Float f -> num f
  | Trace.Str s -> quote s
  | Trace.Bool b -> if b then "true" else "false"

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ v) fields) ^ "}"

let cost_fields prefix (c : Trace.cost) =
  [
    (prefix ^ "delay", num c.delay);
    (prefix ^ "area", num c.area);
    (prefix ^ "power", num c.power);
  ]

let kind_fields (k : Trace.event_kind) =
  match k with
  | Rule_applied { rule; site; gain } ->
      [ ("rule", quote rule); ("site", quote site); ("gain", num gain) ]
  | Rule_refused { rule; site; reason } ->
      [ ("rule", quote rule); ("site", quote site); ("reason", quote reason) ]
  | Rule_rolled_back { rule; site } -> [ ("rule", quote rule); ("site", quote site) ]
  | Rule_quarantined { rule; failures; message } ->
      [
        ("rule", quote rule);
        ("failures", string_of_int failures);
        ("message", quote message);
      ]
  | Rule_miscompiled { rule; site; detail } ->
      [ ("rule", quote rule); ("site", quote site); ("detail", quote detail) ]
  | Search_decision { rule; site; depth; gain } ->
      [
        ("rule", quote rule);
        ("site", quote site);
        ("depth", string_of_int depth);
        ("gain", num gain);
      ]
  | Strategy_step { strategy; detail; kept; delay_before; delay_after } ->
      [
        ("strategy", quote strategy);
        ("detail", quote detail);
        ("kept", (if kept then "true" else "false"));
        ("delay_before", num delay_before);
        ("delay_after", num delay_after);
      ]
  | Budget_exhausted { steps; evals; elapsed } ->
      [
        ("steps", string_of_int steps);
        ("evals", string_of_int evals);
        ("elapsed", num elapsed);
      ]
  | Checkpoint { stage; comps; nets } ->
      [
        ("stage", quote stage);
        ("comps", string_of_int comps);
        ("nets", string_of_int nets);
      ]
  | Measure_advance { cone_nets; cone_comps } ->
      [ ("cone_nets", string_of_int cone_nets); ("cone_comps", string_of_int cone_comps) ]
  | Measure_retreat -> []
  | Measure_resync { reason } -> [ ("reason", quote reason) ]
  | Note s -> [ ("text", quote s) ]

let span_line (s : Trace.span) =
  obj
    ([
       ("t", quote "span");
       ("id", string_of_int s.id);
       ("parent", (match s.parent with None -> "null" | Some p -> string_of_int p));
       ("name", quote s.name);
       ("start", num s.start);
       ("dur", num (Trace.span_dur s));
     ]
    @ match s.attrs with
      | [] -> []
      | attrs -> [ ("attrs", obj (List.map (fun (k, v) -> (k, value_json v)) attrs)) ])

let event_line (e : Trace.event) =
  obj
    ([
       ("t", quote "event");
       ("kind", quote (Trace.kind_label e.kind));
       ("seq", string_of_int e.seq);
       ("at", num e.at);
       ("stage", quote e.stage);
       ("span", (match e.in_span with None -> "null" | Some i -> string_of_int i));
     ]
    @ (match e.before with None -> [] | Some c -> cost_fields "before_" c)
    @ (match e.after with None -> [] | Some c -> cost_fields "after_" c)
    @ kind_fields e.kind)

let metric_lines tr =
  let m = Trace.metrics tr in
  List.map
    (fun (name, v) ->
      obj [ ("t", quote "counter"); ("name", quote name); ("value", string_of_int v) ])
    (Metrics.counters m)
  @ List.map
      (fun (name, v) ->
        obj [ ("t", quote "gauge"); ("name", quote name); ("value", num v) ])
      (Metrics.gauges m)
  @ List.map
      (fun (name, (h : Metrics.histogram)) ->
        obj
          [
            ("t", quote "hist");
            ("name", quote name);
            ("count", string_of_int h.count);
            ("sum", num h.sum);
            ( "buckets",
              "["
              ^ String.concat "," (Array.to_list (Array.map string_of_int h.buckets))
              ^ "]" );
          ])
      (Metrics.histograms m)

let jsonl_sink oc =
  let line s =
    output_string oc s;
    output_char oc '\n'
  in
  {
    Trace.sink_span = (fun s -> line (span_line s));
    sink_event = (fun e -> line (event_line e));
    sink_flush =
      (fun tr ->
        List.iter line (metric_lines tr);
        flush oc);
  }

(* --- Chrome trace_event ------------------------------------------- *)

let usec s = num (s *. 1e6)

let chrome_to_string tr =
  let b = Buffer.create 4096 in
  let first = ref true in
  let item s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n";
    Buffer.add_string b s
  in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iter
    (fun (s : Trace.span) ->
      item
        (obj
           [
             ("name", quote s.name);
             ("cat", quote "span");
             ("ph", quote "X");
             ("ts", usec s.start);
             ("dur", usec (Trace.span_dur s));
             ("pid", "1");
             ("tid", "1");
             ("args", obj (List.map (fun (k, v) -> (k, value_json v)) s.attrs));
           ]))
    (Trace.spans tr);
  List.iter
    (fun (e : Trace.event) ->
      item
        (obj
           [
             ("name", quote (Trace.kind_label e.kind));
             ("cat", quote "event");
             ("ph", quote "i");
             ("ts", usec e.at);
             ("s", quote "t");
             ("pid", "1");
             ("tid", "1");
             ( "args",
               obj
                 ([ ("seq", string_of_int e.seq); ("stage", quote e.stage) ]
                 @ (match e.before with None -> [] | Some c -> cost_fields "before_" c)
                 @ (match e.after with None -> [] | Some c -> cost_fields "after_" c)
                 @ kind_fields e.kind) );
           ]))
    (Trace.events tr);
  let m = Trace.metrics tr in
  List.iter
    (fun (name, v) ->
      item
        (obj
           [
             ("name", quote name);
             ("ph", quote "C");
             ("ts", usec (Trace.now tr));
             ("pid", "1");
             ("args", obj [ ("value", string_of_int v) ]);
           ]))
    (Metrics.counters m);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_chrome oc tr =
  output_string oc (chrome_to_string tr);
  flush oc

(* --- Atomic file export ------------------------------------------- *)

(* Whole-file exports commit with the tmp + fsync + rename discipline:
   readers only ever see the previous complete file or the new one,
   never a torn export.  The streaming [jsonl_sink] is the opposite
   trade — it survives crashes by leaving a valid line prefix. *)
let save_atomic path write_body =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let oc = Unix.out_channel_of_descr fd in
  (try
     write_body oc;
     flush oc;
     Unix.fsync fd
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Unix.rename tmp path

let save_chrome path tr = save_atomic path (fun oc -> write_chrome oc tr)
