type node = {
  span : Trace.span;
  children : node list;
  total : float;
  self : float;
}

let tree tr =
  let spans = Trace.spans tr in
  let kids = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      match s.parent with
      | None -> ()
      | Some p ->
          Hashtbl.replace kids p (s :: (Option.value ~default:[] (Hashtbl.find_opt kids p))))
    spans;
  let rec build (s : Trace.span) =
    let children =
      Hashtbl.find_opt kids s.id |> Option.value ~default:[] |> List.rev
      |> List.map build
    in
    let total = Trace.span_dur s in
    let child_total = List.fold_left (fun a n -> a +. n.total) 0.0 children in
    { span = s; children; total; self = Float.max 0.0 (total -. child_total) }
  in
  List.filter (fun (s : Trace.span) -> s.parent = None) spans |> List.map build

let hot_stages tr =
  let acc = Hashtbl.create 16 in
  let rec visit n =
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc n.span.Trace.name) in
    Hashtbl.replace acc n.span.Trace.name (prev +. n.self);
    List.iter visit n.children
  in
  List.iter visit (tree tr);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (_, a) (_, b) -> compare (b : float) a)

let hot_rules_by_time = Trace.rule_stats

let gain_per_ms (s : Trace.rule_stat) =
  if s.time_s <= 0.0 then 0.0 else s.gain /. (s.time_s *. 1e3)

let hot_rules_by_gain_rate tr =
  Trace.rule_stats tr
  |> List.filter (fun (_, (s : Trace.rule_stat)) -> s.applies > 0 && s.gain > 0.0)
  |> List.sort (fun (_, a) (_, b) -> compare (gain_per_ms b) (gain_per_ms a))

let ms s = Printf.sprintf "%.2f" (s *. 1e3)

let render tr =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "span tree (total ms / self ms)\n";
  let rec dump indent n =
    pf "%s%-*s %8s %8s\n" indent
      (max 1 (36 - String.length indent))
      n.span.Trace.name (ms n.total) (ms n.self);
    List.iter (dump (indent ^ "  ")) n.children
  in
  List.iter (dump "  ") (tree tr);
  let rules = Trace.rule_stats tr in
  if rules <> [] then begin
    pf "\nrule attribution (by time)\n";
    pf "  %-28s %6s %6s %6s %5s %9s %9s %8s\n" "rule" "evals" "apply" "refuse"
      "undo" "time(ms)" "gain" "gain/ms";
    List.iter
      (fun (name, (s : Trace.rule_stat)) ->
        pf "  %-28s %6d %6d %6d %5d %9s %9.3f %8.3f\n" name s.evals s.applies
          s.refusals s.rollbacks (ms s.time_s) s.gain (gain_per_ms s))
      rules
  end;
  let m = Trace.metrics tr in
  let hists = Metrics.histograms m in
  if hists <> [] then begin
    pf "\nhistograms (count / mean)\n";
    List.iter
      (fun (name, h) -> pf "  %-28s %6d %10.2f\n" name h.Metrics.count (Metrics.mean h))
      hists
  end;
  let gauges = Metrics.gauges m in
  if gauges <> [] then begin
    pf "\ngauges\n";
    List.iter (fun (name, v) -> pf "  %-28s %10.2f\n" name v) gauges
  end;
  Buffer.contents b

let take k l =
  let rec go k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: rest -> x :: go (k - 1) rest
  in
  go k l

let hot_summary ?(top = 5) tr =
  let stages =
    hot_stages tr |> List.filter (fun (_, t) -> t > 0.0) |> take top
  in
  let by_time = take top (hot_rules_by_time tr) in
  let by_rate = take top (hot_rules_by_gain_rate tr) in
  if stages = [] && by_time = [] then ""
  else begin
    let b = Buffer.create 256 in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    if stages <> [] then
      pf "hot stages:  %s\n"
        (String.concat ", "
           (List.map (fun (n, t) -> Printf.sprintf "%s %sms" n (ms t)) stages));
    if by_time <> [] then
      pf "hot rules:   %s\n"
        (String.concat ", "
           (List.map
              (fun (n, (s : Trace.rule_stat)) ->
                Printf.sprintf "%s %sms" n (ms s.time_s))
              by_time));
    if by_rate <> [] then
      pf "best gain/ms: %s\n"
        (String.concat ", "
           (List.map
              (fun (n, s) -> Printf.sprintf "%s %.3f" n (gain_per_ms s))
              by_rate));
    Buffer.contents b
  end
