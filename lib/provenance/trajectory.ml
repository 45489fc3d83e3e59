module P = Provenance
module J = Milo_journal.Journal
module D = Milo_netlist.Design
module E = Milo_trace.Export

let quote s = "\"" ^ E.json_escape s ^ "\""

(* Floats must survive save→load bit-exactly or the loaded stream
   would show telescoping breaks the live one did not have.  %.12g
   round-trips almost always and reads well; fall back to %.17g. *)
let num f =
  if Float.is_nan f then "0"
  else if f = infinity then "1e308"
  else if f = neg_infinity then "-1e308"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let obj fields =
  let fields = List.sort (fun (a, _) (b, _) -> compare a b) fields in
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ v) fields)
  ^ "}"

let cost_fields prefix (c : P.cost) =
  [
    (prefix ^ "delay", num c.Milo_trace.Trace.delay);
    (prefix ^ "area", num c.Milo_trace.Trace.area);
    (prefix ^ "power", num c.Milo_trace.Trace.power);
  ]

let line_of_event (ev : P.event) =
  match ev with
  | P.Run r ->
      obj
        [
          ("t", quote "run");
          ("design", quote r.run_design);
          ("tech", quote r.run_tech);
          ("hash", quote r.run_hash);
        ]
  | P.Stage s -> obj [ ("t", quote "stage"); ("stage", quote s) ]
  | P.Step s ->
      let opt fs = function Some v -> fs v | None -> [] in
      obj
        ([
           ("t", quote "step");
           ("step", string_of_int s.P.st_step);
           ("stage", quote s.P.st_stage);
           ("entries", string_of_int s.P.st_entries);
           ("hash", quote s.P.st_hash);
           ("comps", string_of_int s.P.st_comps);
           ("nets", string_of_int s.P.st_nets);
         ]
        @ opt (fun l -> [ ("label", quote l) ]) s.P.st_label
        @ opt (fun d -> [ ("site", quote d) ]) s.P.st_site
        @ opt
            (fun v -> [ ("verdict", quote (D.verdict_name v)) ])
            s.P.st_verdict
        @ opt (cost_fields "before_") s.P.st_before
        @ opt (cost_fields "after_") s.P.st_after
        @ opt
            (fun (steps, evals, elapsed) ->
              [
                ("budget_steps", string_of_int steps);
                ("budget_evals", string_of_int evals);
                ("budget_elapsed", num elapsed);
              ])
            s.P.st_budget)
  | P.Check c ->
      obj
        [
          ("t", quote "checkpoint");
          ("stage", quote c.ck_stage);
          ("hash", quote c.ck_hash);
          ("comps", string_of_int c.ck_comps);
          ("nets", string_of_int c.ck_nets);
        ]
  | P.Finish f ->
      obj
        ([ ("t", quote "finish"); ("outcome", quote f.fin_outcome) ]
        @ cost_fields "" f.fin_cost)

let sink oc ev =
  output_string oc (line_of_event ev);
  output_char oc '\n';
  match ev with P.Finish _ -> flush oc | _ -> ()

let save path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun ev ->
          output_string oc (line_of_event ev);
          output_char oc '\n')
        events)

(* --- parsing ------------------------------------------------------- *)

type jfield = S of string | N of float

(* Minimal JSON-object-of-scalars parser — the exact inverse of [obj]
   above (string and number values only, no nesting). *)
let parse_obj ln =
  let n = String.length ln in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "%s at column %d" msg (!pos + 1)) in
  let peek () = if !pos < n then ln.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let v =
                (hex ln.[!pos + 1] lsl 12)
                lor (hex ln.[!pos + 2] lsl 8)
                lor (hex ln.[!pos + 3] lsl 4)
                lor hex ln.[!pos + 4]
              in
              pos := !pos + 4;
              if v > 0xff then fail "non-latin \\u escape";
              Buffer.add_char b (Char.chr v)
          | _ -> fail "bad escape");
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number_lit () =
    let start = !pos in
    let numeric c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numeric ln.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected value";
    match float_of_string_opt (String.sub ln start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  expect '{';
  let fields = ref [] in
  if peek () = '}' then advance ()
  else begin
    let rec members () =
      let key = string_lit () in
      expect ':';
      let v = if peek () = '"' then S (string_lit ()) else N (number_lit ()) in
      fields := (key, v) :: !fields;
      match peek () with
      | ',' ->
          advance ();
          members ()
      | '}' -> advance ()
      | _ -> fail "expected ',' or '}'"
    in
    members ()
  end;
  if !pos <> n then fail "trailing garbage";
  List.rev !fields

let event_of_line ln =
  let fields = parse_obj ln in
  let str k =
    match List.assoc_opt k fields with
    | Some (S s) -> s
    | Some (N _) -> failwith (k ^ ": expected string")
    | None -> failwith ("missing key " ^ k)
  in
  let str_opt k =
    match List.assoc_opt k fields with
    | Some (S s) -> Some s
    | Some (N _) -> failwith (k ^ ": expected string")
    | None -> None
  in
  let fnum k =
    match List.assoc_opt k fields with
    | Some (N f) -> f
    | Some (S _) -> failwith (k ^ ": expected number")
    | None -> failwith ("missing key " ^ k)
  in
  let int k = int_of_float (fnum k) in
  let cost_opt prefix : P.cost option =
    match List.assoc_opt (prefix ^ "delay") fields with
    | None -> None
    | Some _ ->
        Some
          {
            Milo_trace.Trace.delay = fnum (prefix ^ "delay");
            area = fnum (prefix ^ "area");
            power = fnum (prefix ^ "power");
          }
  in
  match str "t" with
  | "run" ->
      P.Run
        { run_design = str "design"; run_tech = str "tech"; run_hash = str "hash" }
  | "stage" -> P.Stage (str "stage")
  | "step" ->
      P.Step
        {
          st_step = int "step";
          st_stage = str "stage";
          st_label = str_opt "label";
          st_site = str_opt "site";
          st_verdict =
            (match str_opt "verdict" with
            | Some v -> (
                match D.verdict_of_name v with
                | Some _ as r -> r
                | None -> failwith ("unknown verdict " ^ v))
            | None -> None);
          st_entries = int "entries";
          st_hash = str "hash";
          st_before = cost_opt "before_";
          st_after = cost_opt "after_";
          st_comps = int "comps";
          st_nets = int "nets";
          st_budget =
            (match List.assoc_opt "budget_steps" fields with
            | None -> None
            | Some _ ->
                Some
                  (int "budget_steps", int "budget_evals", fnum "budget_elapsed"));
        }
  | "checkpoint" ->
      P.Check
        {
          ck_stage = str "stage";
          ck_hash = str "hash";
          ck_comps = int "comps";
          ck_nets = int "nets";
        }
  | "finish" ->
      P.Finish
        {
          fin_outcome = str "outcome";
          fin_cost =
            {
              Milo_trace.Trace.delay = fnum "delay";
              area = fnum "area";
              power = fnum "power";
            };
        }
  | t -> failwith ("unknown record type " ^ t)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> go (lineno + 1) acc
        | ln -> (
            match event_of_line ln with
            | ev -> go (lineno + 1) (ev :: acc)
            | exception Failure msg ->
                failwith (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 [])

(* --- offline reconstruction from a journal ------------------------- *)

let of_journal path =
  let rc = J.recover path in
  if J.header rc = None then
    raise (J.Journal_error "no run header survived recovery");
  let t = P.create () in
  List.iter (P.observe t) rc.J.r_records;
  t
