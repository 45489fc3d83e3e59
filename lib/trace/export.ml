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

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ v) fields) ^ "}"

let span_line (s : Trace.span) =
  obj
    [
      ("t", quote "span");
      ("id", string_of_int s.id);
      ("parent", (match s.parent with None -> "null" | Some p -> string_of_int p));
      ("name", quote s.name);
      ("start", num s.start);
      ("dur", num (Trace.span_dur s));
    ]

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
           ]))
    (Trace.spans tr);
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
