module P = Provenance
module J = Milo_journal.Journal
module D = Milo_netlist.Design

let quote = Milo_trace.Export.quote

(* %.12g reads well and round-trips almost always; fall back to %.17g
   where it would not, so a float prints as exactly itself. *)
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
    (prefix ^ "delay", num c.delay);
    (prefix ^ "area", num c.area);
    (prefix ^ "power", num c.power);
  ]

let line ~step (r : J.record) =
  match r with
  | J.Header h ->
      obj
        [
          ("t", quote "run");
          ("design", quote h.h_design);
          ("tech", quote h.h_tech);
          ("hash", quote h.h_hash);
        ]
  | J.Stage s -> obj [ ("t", quote "stage"); ("stage", quote s) ]
  | J.Delta d ->
      let opt fs = function Some v -> fs v | None -> [] in
      let comps, nets = Option.value d.d_shape ~default:(0, 0) in
      obj
        ([
           ("t", quote "step");
           ("step", string_of_int step);
           ("stage", quote d.d_stage);
           ("entries", string_of_int (List.length d.d_entries));
           ("hash", quote (Option.value d.d_hash ~default:""));
           ("comps", string_of_int comps);
           ("nets", string_of_int nets);
         ]
        @ opt (fun l -> [ ("label", quote l) ]) d.d_label
        @ opt (fun s -> [ ("site", quote s) ]) d.d_attr.D.at_site
        @ opt
            (fun v -> [ ("verdict", quote (D.verdict_name v)) ])
            d.d_attr.D.at_verdict
        @ opt (cost_fields "before_") d.d_attr.D.at_before
        @ opt (cost_fields "after_") d.d_attr.D.at_after
        @ opt
            (fun (steps, evals, elapsed) ->
              [
                ("budget_steps", string_of_int steps);
                ("budget_evals", string_of_int evals);
                ("budget_elapsed", num elapsed);
              ])
            d.d_budget)
  | J.Checkpoint ck ->
      obj
        [
          ("t", quote "checkpoint");
          ("stage", quote ck.ck_stage);
          ("hash", quote (J.design_hash ck.ck_design));
          ("comps", string_of_int (D.num_comps ck.ck_design));
          ("nets", string_of_int (D.num_nets ck.ck_design));
        ]
  | J.Finish f ->
      obj
        ([ ("t", quote "finish"); ("outcome", quote f.f_outcome) ]
        @ cost_fields ""
            { delay = f.f_delay; area = f.f_area; power = f.f_power })

let next_step step = function J.Delta _ -> step + 1 | _ -> step

let lines records =
  let _, rev =
    List.fold_left
      (fun (step, acc) r -> (next_step step r, line ~step r :: acc))
      (0, []) records
  in
  List.rev rev

let sink oc =
  let step = ref 0 in
  fun r ->
    output_string oc (line ~step:!step r);
    output_char oc '\n';
    step := next_step !step r;
    match r with J.Finish _ -> flush oc | _ -> ()

let of_journal path =
  let rc = J.recover path in
  if J.header rc = None then
    raise (J.Journal_error "no run header survived recovery");
  let t = P.create () in
  List.iter (P.observe t) rc.J.r_records;
  t
