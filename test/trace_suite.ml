(* Telemetry suite — tier-1 gate for lib/trace.

   - a traced complete flow yields a balanced span tree: one flow root,
     a span per stage, every span closed and nested inside its parent's
     interval;
   - the flow's own work has its spans where the time is spent:
     certification under the capture stage, one guard and one
     checkpoint span under each stage that has one, and none of them
     inside an optimizer pass's span;
   - the record stream of the same run agrees with the result and with
     the per-rule attribution table: the micro-stage Delta labels
     reproduce the critic's application list in order (on the
     accumulator and on designs 1-8), and no rule has more attributed
     commits than the table books applies;
   - the Chrome trace_event export round-trips through a from-scratch
     JSON parser with one "X" slice per span;
   - a fault injected mid-flow still flushes: the partial outcome's
     tracer has no open spans and the streamed JSONL file is valid
     line-by-line (the crash-safe-prefix contract). *)

module D = Milo_netlist.Design
module Flow = Milo.Flow
module Guard = Milo_guard.Guard
module J = Milo_journal.Journal
module P = Milo_provenance.Provenance
module Trace = Milo_trace.Trace
module Export = Milo_trace.Export
module Suite = Milo_designs.Suite
module Faults = Milo_faults

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let ok fmt = Printf.ksprintf (fun s -> Printf.printf "ok   %s\n" s) fmt

(* --- Minimal JSON parser ----------------------------------------------- *)

(* Just enough recursive descent to validate the exporters' output
   without a JSON dependency.  \u escapes outside ASCII are read
   lossily ('?'), which is fine for structural round-trip checks. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let bad msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else bad (Printf.sprintf "expected '%c'" c)
    in
    let lit w v =
      let k = String.length w in
      if !pos + k <= n && String.sub s !pos k = w then begin
        pos := !pos + k;
        v
      end
      else bad ("expected " ^ w)
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then bad "unterminated string";
        let c = s.[!pos] in
        incr pos;
        if c = '"' then ()
        else if c = '\\' then begin
          (if !pos >= n then bad "truncated escape");
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then bad "truncated \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some c when c < 128 -> Buffer.add_char b (Char.chr c)
              | Some _ -> Buffer.add_char b '?'
              | None -> bad "bad \\u escape");
              pos := !pos + 4
          | _ -> bad "bad escape");
          go ()
        end
        else begin
          Buffer.add_char b c;
          go ()
        end
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> bad "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (string_lit ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> bad "expected ',' or '}'"
            in
            members []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec elems acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  Arr (List.rev (v :: acc))
              | _ -> bad "expected ',' or ']'"
            in
            elems []
      | Some _ -> number ()
      | None -> bad "empty input"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then bad "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

(* --- A traced complete run --------------------------------------------- *)

(* The Figure 14 accumulator: small, and the micro critic fires on it
   (adder-register-to-counter), so the record-ordering check below has
   a non-empty application list to reproduce.  The sampled guard gives
   the run its certification and stage-guard work. *)
let run_traced () =
  let t = Trace.create () in
  let p = P.create () in
  match
    Flow.run ~technology:Flow.Ecl ~guard:Guard.Sampled ~trace:t ~provenance:p
      (Suite.accumulator ~bits:4 ())
  with
  | Flow.Complete res -> (t, p, res)
  | Flow.Partial p ->
      fail "traced accumulator flow degraded at %s: %s"
        (Flow.stage_name p.Flow.failed_stage)
        p.Flow.failure.Flow.err_message;
      Printf.printf "%d failure(s)\n" !failures;
      exit 1

(* --- 1. span nesting and balance --------------------------------------- *)

let check_spans t (res : Flow.result) =
  let spans = Trace.spans t in
  let what = "spans" in
  if spans = [] then fail "%s: traced flow produced no spans" what;
  List.iter
    (fun (s : Trace.span) ->
      if not (Trace.span_closed s) then
        fail "%s: span %s (id %d) left open after flush" what s.Trace.name
          s.Trace.id)
    spans;
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let eps = 1e-9 in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.parent with
      | None -> ()
      | Some pid -> (
          match Hashtbl.find_opt by_id pid with
          | None -> fail "%s: span %s has unknown parent %d" what s.Trace.name pid
          | Some p ->
              if s.Trace.start < p.Trace.start -. eps then
                fail "%s: span %s starts before its parent %s" what s.Trace.name
                  p.Trace.name;
              if s.Trace.stop > p.Trace.stop +. eps then
                fail "%s: span %s ends after its parent %s" what s.Trace.name
                  p.Trace.name))
    spans;
  (match List.filter (fun (s : Trace.span) -> s.Trace.parent = None) spans with
  | [ root ] ->
      let name = D.name res.Flow.optimized in
      ignore name;
      if not (String.length root.Trace.name > 5
              && String.sub root.Trace.name 0 5 = "flow:")
      then fail "%s: root span named %S, expected flow:<design>" what
        root.Trace.name
  | roots -> fail "%s: %d root spans, expected exactly 1" what (List.length roots));
  List.iter
    (fun stage ->
      let name = "stage:" ^ stage in
      if not (List.exists (fun (s : Trace.span) -> s.Trace.name = name) spans)
      then fail "%s: missing %s span" what name)
    [ "capture"; "micro"; "compile"; "techmap"; "optimize" ];
  if !failures = 0 then
    ok "%d spans: balanced, nested, one flow root, all 5 stages present"
      (List.length spans)

(* --- 2. the flow's own work spans ---------------------------------------- *)

(* Each piece of flow-level work sits directly under the span of the
   stage that does it, and never inside an optimizer pass's span, so
   the passes' self-times stay what they measure. *)
let check_work_spans t =
  let what = "work spans" in
  let spans = Trace.spans t in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let parent_name (s : Trace.span) =
    match s.Trace.parent with
    | Some pid -> (Hashtbl.find by_id pid).Trace.name
    | None -> ""
  in
  let rec in_pass (s : Trace.span) =
    match s.Trace.parent with
    | None -> None
    | Some pid ->
        let p = Hashtbl.find by_id pid in
        let n = p.Trace.name in
        if
          String.starts_with ~prefix:"level:" n
          || List.mem n [ "time-opt"; "area-opt"; "electric" ]
        then Some n
        else in_pass p
  in
  let expect name ~under ~count =
    let found =
      List.filter (fun (s : Trace.span) -> s.Trace.name = name) spans
    in
    if List.length found <> count then
      fail "%s: %d %s span(s), expected %d" what (List.length found) name count;
    List.iter
      (fun s ->
        if parent_name s <> under then
          fail "%s: %s sits under %S, expected %s" what name (parent_name s)
            under;
        match in_pass s with
        | Some p -> fail "%s: %s sits inside the %s span" what name p
        | None -> ())
      found
  in
  expect "certify" ~under:"stage:capture" ~count:1;
  expect "library" ~under:"stage:capture" ~count:1;
  List.iter
    (fun st -> expect ("guard:" ^ st) ~under:("stage:" ^ st) ~count:1)
    [ "compile"; "techmap"; "optimize" ];
  List.iter
    (fun st -> expect ("checkpoint:" ^ st) ~under:("stage:" ^ st) ~count:1)
    [ "capture"; "micro"; "compile"; "techmap"; "optimize" ];
  if !failures = 0 then
    ok "work spans: certify and library under capture, a guard and a \
        checkpoint span under each stage, none inside an optimizer pass"

(* --- 3. the record stream against the result and the attribution ------- *)

(* The micro-stage Delta labels reproduce the critic's application
   list, in order; and every attributed commit (one with a site digest)
   went through the engine's commit, which books an apply when traced —
   untracked designs (the techmap levels) book applies without
   records, so the table may hold more.  Returns the number of micro
   applications and of attributed commits. *)
let check_records what t p (res : Flow.result) =
  let records = P.events p in
  let labels =
    List.filter_map
      (function
        | J.Delta { d_stage = "micro"; d_label = Some l; _ } -> Some l
        | J.Header _ | J.Stage _ | J.Delta _ | J.Checkpoint _ | J.Finish _ ->
            None)
      records
  in
  let recorded = List.map fst res.Flow.micro_applications in
  if labels <> recorded then
    fail "%s: micro Delta labels [%s] <> recorded applications [%s]" what
      (String.concat "; " labels)
      (String.concat "; " recorded);
  let attributed = Hashtbl.create 16 in
  List.iter
    (function
      | J.Delta { d_label = Some l; d_attr = { D.at_site = Some _; _ }; _ } ->
          Hashtbl.replace attributed l
            (1 + Option.value ~default:0 (Hashtbl.find_opt attributed l))
      | J.Header _ | J.Stage _ | J.Delta _ | J.Checkpoint _ | J.Finish _ -> ())
    records;
  Hashtbl.iter
    (fun rule commits ->
      let applies =
        match List.assoc_opt rule (Trace.rule_stats t) with
        | Some s -> s.Trace.applies
        | None -> 0
      in
      if commits > applies then
        fail "%s: %d attributed commits of %s but the table books %d applies"
          what commits rule applies)
    attributed;
  (List.length recorded, Hashtbl.fold (fun _ n acc -> acc + n) attributed 0)

let check_acc4_records t p res =
  let micro, attributed = check_records "records" t p res in
  if micro = 0 then
    fail "records: accumulator flow applied no micro rules — ordering check \
          vacuous";
  if attributed = 0 then
    fail "records: no attributed commit — attribution check vacuous";
  if !failures = 0 then
    ok "%d records: micro Delta labels match %d applications, attribution \
        books all %d attributed commits"
      (List.length (P.events p)) micro attributed

(* The same checks on the suite designs, each traced and recorded. *)
let check_suite_records () =
  let micro, attributed =
    List.fold_left
      (fun (m, a) (c : Suite.case) ->
        let what = "records " ^ c.Suite.case_name in
        let t = Trace.create () and p = P.create () in
        match
          Flow.run ~technology:Flow.Ecl ~constraints:c.Suite.constraints
            ~trace:t ~provenance:p c.Suite.case_design
        with
        | Flow.Complete res ->
            let m', a' = check_records what t p res in
            (m + m', a + a')
        | Flow.Partial pr ->
            fail "%s: degraded at %s" what
              (Flow.stage_name pr.Flow.failed_stage);
            (m, a))
      (0, 0) (Suite.all ())
  in
  if micro = 0 then fail "records: designs 1-8 applied no micro rules";
  if !failures = 0 then
    ok "designs 1-8: micro Delta labels match the critic's %d applications, \
        attribution books all %d attributed commits"
      micro attributed

(* --- 4. Chrome export round-trip --------------------------------------- *)

let check_chrome t =
  let what = "chrome" in
  let doc =
    try Json.parse (Export.chrome_to_string t)
    with Json.Bad msg ->
      fail "%s: export does not parse: %s" what msg;
      Json.Null
  in
  match Json.member "traceEvents" doc with
  | Some (Json.Arr evs) ->
      if evs = [] then fail "%s: empty traceEvents" what;
      let slices = ref 0 in
      List.iter
        (fun ev ->
          (match Json.member "name" ev with
          | Some (Json.Str _) -> ()
          | _ -> fail "%s: trace event without a string name" what);
          (match Json.member "ts" ev with
          | Some (Json.Num ts) when ts >= 0.0 -> ()
          | _ -> fail "%s: trace event without a numeric ts" what);
          match Json.member "ph" ev with
          | Some (Json.Str "X") -> (
              incr slices;
              match Json.member "dur" ev with
              | Some (Json.Num d) when d >= 0.0 -> ()
              | _ -> fail "%s: X slice without a numeric dur" what)
          | Some (Json.Str _) -> ()
          | _ -> fail "%s: trace event without a ph" what)
        evs;
      let n_spans = List.length (Trace.spans t) in
      if !slices <> n_spans then
        fail "%s: %d X slices for %d spans" what !slices n_spans;
      if !failures = 0 then
        ok "chrome export: %d trace events parse, %d slices = %d spans"
          (List.length evs) !slices n_spans
  | _ -> fail "%s: no traceEvents array at top level" what

(* --- 5. fault-injected partial run still flushes ----------------------- *)

let check_faulted () =
  let what = "faulted" in
  let c = Suite.design3 () in
  let t = Trace.create () in
  let path = Filename.temp_file "milo_trace_suite" ".jsonl" in
  let oc = open_out path in
  Trace.add_sink t (Export.jsonl_sink oc);
  let hooks = Faults.failing_hooks ~at:Flow.Techmap () in
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:c.Suite.constraints ~hooks
       ~trace:t c.Suite.case_design
   with
  | Flow.Complete _ -> fail "%s: expected Partial, flow completed" what
  | Flow.Partial p -> (
      if p.Flow.failed_stage <> Flow.Techmap then
        fail "%s: failed at %s, expected techmap" what
          (Flow.stage_name p.Flow.failed_stage);
      match p.Flow.partial_trace with
      | None -> fail "%s: partial outcome lost the tracer" what
      | Some t' ->
          List.iter
            (fun (s : Trace.span) ->
              if not (Trace.span_closed s) then
                fail "%s: span %s still open after a faulted run" what
                  s.Trace.name)
            (Trace.spans t')));
  close_out oc;
  let ic = open_in path in
  let lines = ref 0 and spans = ref 0 and metrics = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       (try
          let v = Json.parse line in
          match Json.member "t" v with
          | Some (Json.Str "span") -> incr spans
          | Some (Json.Str ("counter" | "gauge" | "hist")) -> incr metrics
          | Some (Json.Str tag) ->
              fail "%s: jsonl line %d has unknown tag %S" what !lines tag
          | _ -> fail "%s: jsonl line %d has no \"t\" tag" what !lines
        with Json.Bad msg ->
          fail "%s: jsonl line %d does not parse: %s" what !lines msg)
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  if !lines = 0 then fail "%s: jsonl sink wrote nothing" what;
  if !spans = 0 then fail "%s: jsonl stream has no span lines" what;
  if !failures = 0 then
    ok "faulted run: partial trace balanced, %d jsonl lines all parse \
        (%d spans, %d metrics)"
      !lines !spans !metrics

(* --- Metrics registry edges --------------------------------------------- *)

(* The log2 histogram's documented bucket map at its boundary inputs:
   0.0 lands in bucket 0 (sub-1.0), 1.0 is the first value of bucket 1
   ([2^0, 2^1)), exact powers of two start their bucket, and a value
   beyond the last bucket's range is absorbed by the last bucket rather
   than dropped. *)
let check_metrics_edges () =
  let module M = Milo_trace.Metrics in
  let bucket_of h =
    let b = ref (-1) in
    Array.iteri (fun i n -> if n > 0 then b := i) h.M.buckets;
    !b
  in
  let one v =
    let m = M.create () in
    M.observe m "h" v;
    match List.assoc_opt "h" (M.histograms m) with
    | Some h ->
        if h.M.count <> 1 then fail "metrics: observe(%g) count %d" v h.M.count;
        bucket_of h
    | None ->
        fail "metrics: observe(%g) registered no histogram" v;
        -1
  in
  if one 0.0 <> 0 then fail "metrics: 0.0 not in bucket 0";
  if one 0.999 <> 0 then fail "metrics: 0.999 not in bucket 0";
  if one 1.0 <> 1 then fail "metrics: 1.0 not in bucket 1";
  if one 2.0 <> 2 then fail "metrics: 2.0 not in bucket 2";
  if one 3.9 <> 2 then fail "metrics: 3.9 not in bucket 2";
  let last = M.bucket_count - 1 in
  if one (float_of_int max_int) <> last then
    fail "metrics: max_int not absorbed by last bucket %d" last;
  if one infinity <> last then
    fail "metrics: infinity not absorbed by last bucket";
  (* Every bucket's lower bound must be consistent with where a value
     equal to that bound actually lands. *)
  for i = 1 to last do
    let lo = M.bucket_lo i in
    let b = one lo in
    if b <> i then fail "metrics: bucket_lo %d = %g lands in bucket %d" i lo b
  done;
  (* Gauges keep only the latest value; observations never merge. *)
  let m = M.create () in
  M.set_gauge m "g" 1.5;
  M.set_gauge m "g" (-2.5);
  (match M.gauges m with
  | [ ("g", v) ] ->
      if v <> -2.5 then fail "metrics: gauge kept %g, expected -2.5" v
  | l -> fail "metrics: expected 1 gauge, got %d" (List.length l));
  (* Counters accumulate, and a fresh name reads 0 without side effects. *)
  M.incr m "c" 2;
  M.incr m "c" 3;
  if M.counter m "c" <> 5 then fail "metrics: counter sum %d" (M.counter m "c");
  if M.counter m "absent" <> 0 then fail "metrics: absent counter non-zero";
  if List.mem_assoc "absent" (M.counters m) then
    fail "metrics: reading a counter created it";
  if !failures = 0 then ok "metrics registry edges (buckets, gauge, counter)"

(* --- Profile span-tree golden ------------------------------------------- *)

(* A hand-built trace with a known span nesting must produce exactly
   that tree from [Profile.tree], with self times summing to totals,
   and [Profile.render] must list the spans in tree order. *)
let check_profile_tree () =
  let module Profile = Milo_trace.Profile in
  let t = Trace.create () in
  Trace.with_tracer t (fun () ->
      Trace.open_span "root";
      Trace.open_span "child-a";
      Trace.open_span "leaf";
      Trace.close_span "leaf";
      Trace.close_span "child-a";
      Trace.open_span "child-b";
      Trace.close_span "child-b";
      Trace.close_span "root");
  let shape n =
    let open Profile in
    let rec go n =
      n.span.Trace.name
      ^
      match n.children with
      | [] -> ""
      | cs -> "(" ^ String.concat " " (List.map go cs) ^ ")"
    in
    go n
  in
  (match Profile.tree t with
  | [ root ] ->
      let s = shape root in
      if s <> "root(child-a(leaf) child-b)" then
        fail "profile: tree shape %s" s;
      (* Self-times partition the totals: each node's self is its total
         minus its direct children's, and nothing is negative. *)
      let rec walk (n : Profile.node) =
        let child_total =
          List.fold_left (fun a c -> a +. c.Profile.total) 0.0 n.children
        in
        if n.Profile.self < 0.0 then
          fail "profile: negative self time on %s" n.span.Trace.name;
        if abs_float (n.Profile.self -. (n.Profile.total -. child_total)) > 1e-9
        then fail "profile: self/total mismatch on %s" n.span.Trace.name;
        List.iter walk n.children
      in
      walk root
  | l -> fail "profile: expected 1 root, got %d" (List.length l));
  let rendered = Profile.render t in
  let order = [ "root"; "child-a"; "leaf"; "child-b" ] in
  let rec in_order pos = function
    | [] -> ()
    | name :: rest -> (
        match
          let n = String.length rendered and m = String.length name in
          let rec find i =
            if i + m > n then None
            else if String.sub rendered i m = name then Some i
            else find (i + 1)
          in
          find pos
        with
        | Some i -> in_order (i + String.length name) rest
        | None -> fail "profile: render misses span %S (in order)" name)
  in
  in_order 0 order;
  if !failures = 0 then ok "profile span tree golden (shape, self times, render)"

let () =
  let t, p, res = run_traced () in
  check_spans t res;
  check_work_spans t;
  check_acc4_records t p res;
  check_suite_records ();
  check_chrome t;
  check_faulted ();
  check_metrics_edges ();
  check_profile_tree ();
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end;
  Printf.printf "trace suite: all checks passed\n"
