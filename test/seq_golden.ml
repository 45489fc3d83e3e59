(* Golden sequential counterexamples: corruptions planted in the
   compiled flat netlist and in the optimized design of the sequential
   suite designs 6-8, each checked against its known-good reference by
   [Guard.check] under the Full and the Sampled parameters, and the
   divergences [Flow.replay] reports for a journal of design 7 whose
   micro-stage delta was tampered with.  Every line is a verdict or a
   counterexample as the guard renders it, compared byte for byte
   against seq_golden.expected: a change to the lock-step simulation
   that moves a vector, a cycle, a port or a cone shows here. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module J = Milo_journal.Journal
module Flow = Milo.Flow
module Guard = Milo_guard.Guard
module Sim = Milo_sim.Simulator
module Suite = Milo_designs.Suite
module Database = Milo_compilers.Database

type side = { techs : Milo_library.Technology.t list; env : Sim.env }

let side techs = { techs; env = Sim.env_of_techs techs }

let pins s (c : D.comp) =
  match c.D.kind with
  | T.Macro m -> List.map fst (s.env.Sim.find_macro m).Milo_library.Macro.pins
  | k -> List.map fst (T.pins_of_kind k)

let is_seq s (c : D.comp) = Flow.seq_classifier s.techs c.D.kind

(* Each corruption edits a copy of the design and names what it did, or
   gives [None] when the design has no site for it.  Sites are the
   first matching component in id order. *)
let first d p = List.find_opt p (D.comps d)

(* A register's output inverted, as if its [inverting] flag flipped. *)
let invert_register s d =
  let d = D.copy d in
  match first d (fun c -> is_seq s c && D.connection d c.D.id "Q" <> None) with
  | None -> None
  | Some c ->
      let q = Option.get (D.connection d c.D.id "Q") in
      let n = D.new_net d in
      D.connect d c.D.id "Q" n;
      let inv = D.add_comp d (T.Gate (T.Inv, 1)) in
      D.connect d inv "A1" n;
      D.connect d inv "Y" q;
      Some (Printf.sprintf "invert %s.Q" c.D.cname, d)

(* Two operand bits of the first adder or comparator swapped. *)
let swap_operand_bits s d =
  let d = D.copy d in
  match
    first d (fun c ->
        List.mem "B0" (pins s c)
        && D.connection d c.D.id "A0" <> None
        && D.connection d c.D.id "A1" <> None)
  with
  | None -> None
  | Some c ->
      let a0 = Option.get (D.connection d c.D.id "A0")
      and a1 = Option.get (D.connection d c.D.id "A1") in
      D.connect d c.D.id "A0" a1;
      D.connect d c.D.id "A1" a0;
      Some (Printf.sprintf "swap %s.A0/A1" c.D.cname, d)

(* A counter's or register's enable tied high; a design with none gets
   its first reset tied low instead. *)
let tie_control s d =
  let tie pin level =
    let d = D.copy d in
    match
      first d (fun c -> is_seq s c && D.connection d c.D.id pin <> None)
    with
    | None -> None
    | Some c ->
        let k = D.add_comp d (T.Constant level) in
        let n = D.new_net d in
        D.connect d k "Y" n;
        D.connect d c.D.id pin n;
        Some
          ( Printf.sprintf "tie %s.%s %s" c.D.cname pin
              (if level = T.Vdd then "high" else "low"),
            d )
  in
  match tie "EN" T.Vdd with Some r -> Some r | None -> tie "RST" T.Vss

let verdict s ref_d cand_d params =
  match
    Guard.check ~params ~is_seq:(Flow.seq_classifier s.techs) s.env ref_d
      s.env cand_d
  with
  | None -> "equivalent"
  | Some div -> Guard.describe div

let corrupt name s ref_d d =
  List.iter
    (fun plant ->
      match plant s d with
      | None -> ()
      | Some (what, bad) ->
          Printf.printf "%s: %s\n  full:    %s\n  sampled: %s\n" name what
            (verdict s ref_d bad Guard.full_params)
            (verdict s ref_d bad Guard.sampled_params))
    [ invert_register; swap_operand_bits; tie_control ]

let generic () = side [ Milo_library.Generic.get () ]

let mapped () =
  side
    [ (Flow.target_of Flow.Ecl).Milo_techmap.Table_map.tech;
      Milo_library.Generic.get () ]

let run ?journal (case : Suite.case) =
  match
    Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
      ~guard:Guard.Sampled ?journal case.Suite.case_design
  with
  | Flow.Complete r -> r
  | Flow.Partial p ->
      failwith ("flow degraded at " ^ Flow.stage_name p.Flow.failed_stage)

let designs () =
  List.iter
    (fun (case : Suite.case) ->
      let r = run case in
      let ck stage =
        (List.find (fun c -> c.Flow.ck_stage = stage) r.Flow.checkpoints)
          .Flow.ck_design
      in
      let name = "design " ^ case.Suite.case_name in
      corrupt (name ^ " compiled") (generic ()) (ck Flow.Micro)
        (Database.flatten r.Flow.database (ck Flow.Compile));
      corrupt (name ^ " optimized") (mapped ()) (ck Flow.Techmap)
        r.Flow.optimized)
    [ Suite.design6 (); Suite.design7 (); Suite.design8 () ]

(* Design 7's journal with its first non-empty micro-stage delta
   extended by one entry that flips the result register's [inverting]:
   the redo still applies, so replay must report where the state and
   the function diverged. *)
let tampered_replay () =
  let case = Suite.design7 () in
  let path = Filename.temp_file "milo_seq_golden_" ".mjl" in
  ignore (run ~journal:path case);
  let records = (J.recover path).J.r_records in
  let capture =
    List.find_map
      (function J.Checkpoint ck -> Some ck.J.ck_design | _ -> None)
      records
    |> Option.get
  in
  let d = D.copy capture in
  let tampered = ref false in
  let w = J.create path in
  List.iter
    (fun r ->
      match r with
      | J.Delta dl when dl.d_stage = "micro" && not !tampered ->
          D.redo d dl.d_entries;
          if dl.d_entries = [] then J.append w r
          else begin
            tampered := true;
            let c =
              List.find
                (fun (c : D.comp) ->
                  match c.D.kind with T.Register _ -> true | _ -> false)
                (D.comps d)
            in
            let flipped =
              match c.D.kind with
              | T.Register rg ->
                  T.Register { rg with inverting = not rg.inverting }
              | k -> k
            in
            J.append w
              (J.Delta
                 {
                   dl with
                   d_entries =
                     dl.d_entries
                     @ [ D.E_set_kind (c.D.id, c.D.kind, flipped) ];
                 })
          end
      | J.Checkpoint _ | J.Finish _ -> J.commit w r
      | r -> J.append w r)
    records;
  J.close w;
  let rep = Flow.replay path in
  Sys.remove path;
  Printf.printf "replay design 7 (tampered=%b): %d deltas, %d checks\n"
    !tampered rep.Flow.rep_deltas rep.Flow.rep_checks;
  List.iter
    (fun (dv : Flow.divergence) ->
      Printf.printf "  record %d [%s/%s] %s: %s\n" dv.Flow.div_record
        dv.Flow.div_stage dv.Flow.div_kind
        (Option.value dv.Flow.div_label ~default:"-")
        dv.Flow.div_detail)
    rep.Flow.rep_divergences

let () =
  designs ();
  tampered_replay ()
