(* Macro library tests: well-formedness of all three libraries, the
   truth-table function index and its memo, the prebuilt gate tables
   and gate classification, power variants, once-only singletons. *)

module T = Milo_netlist.Types
module Macro = Milo_library.Macro
module Tech = Milo_library.Technology
module Defs = Milo_library.Defs
module Gate_shape = Milo_critic.Gate_shape
open Milo_boolfunc

let libs () = [ Util.generic (); Util.ecl (); Util.cmos () ]

let test_macro_wellformed () =
  List.iter
    (fun tech ->
      List.iter
        (fun (m : Macro.t) ->
          let name = Printf.sprintf "%s/%s" (Tech.name tech) m.Macro.mname in
          (* pin names unique *)
          let pins = List.map fst m.Macro.pins in
          Alcotest.(check int) (name ^ " unique pins")
            (List.length pins)
            (List.length (List.sort_uniq compare pins));
          (* every arc references real pins *)
          List.iter
            (fun ((i, o), d) ->
              Alcotest.(check bool) (name ^ " arc pins") true
                (List.mem i m.Macro.inputs && List.mem o m.Macro.outputs);
              Alcotest.(check bool) (name ^ " arc delay >= 0") true (d >= 0.0))
            m.Macro.arcs;
          Alcotest.(check bool) (name ^ " area >= 0") true (m.Macro.area >= 0.0);
          Alcotest.(check bool) (name ^ " power >= 0") true (m.Macro.power >= 0.0);
          (* combinational macros must have an arc from every input *)
          if not (Macro.is_sequential m) then
            List.iter
              (fun i ->
                Alcotest.(check bool)
                  (name ^ " input " ^ i ^ " has arc")
                  true
                  (List.exists (fun ((i', _), _) -> i' = i) m.Macro.arcs
                  || m.Macro.inputs = []))
              m.Macro.inputs)
        (Tech.all tech))
    (libs ())

let test_behavior_arity () =
  (* eval_comb accepts exactly the declared inputs and produces the
     declared outputs. *)
  List.iter
    (fun tech ->
      List.iter
        (fun (m : Macro.t) ->
          if not (Macro.is_sequential m) then begin
            let input = Array.make (List.length m.Macro.inputs) false in
            let out = Macro.eval_comb m input in
            Alcotest.(check int)
              (Printf.sprintf "%s output arity" m.Macro.mname)
              (List.length m.Macro.outputs)
              (Array.length out)
          end)
        (Tech.all tech))
    (libs ())

let test_single_output_tt_consistent () =
  List.iter
    (fun tech ->
      List.iter
        (fun (m : Macro.t) ->
          match Macro.single_output_tt m with
          | None -> ()
          | Some tt ->
              let n = List.length m.Macro.inputs in
              for v = 0 to (1 lsl n) - 1 do
                let input = Array.init n (fun i -> v land (1 lsl i) <> 0) in
                Alcotest.(check bool)
                  (Printf.sprintf "%s tt vs eval" m.Macro.mname)
                  (Macro.eval_comb m input).(0)
                  (Truth_table.eval tt input)
              done)
        (Tech.all tech))
    (libs ())

let test_power_variants () =
  let ecl = Util.ecl () in
  (* every high-power variant is strictly faster and hungrier *)
  List.iter
    (fun (m : Macro.t) ->
      match Tech.high_power_variant ecl m.Macro.mname with
      | None -> ()
      | Some hv ->
          Alcotest.(check bool)
            (m.Macro.mname ^ " H faster")
            true
            (Macro.worst_delay hv < Macro.worst_delay m);
          Alcotest.(check bool)
            (m.Macro.mname ^ " H hungrier")
            true
            (hv.Macro.power > m.Macro.power);
          (* same function *)
          (match (Macro.single_output_tt m, Macro.single_output_tt hv) with
          | Some a, Some b ->
              Alcotest.(check bool) (m.Macro.mname ^ " same fn") true
                (Truth_table.equal a b)
          | _ -> ());
          (* and the variant maps back *)
          (match Tech.standard_variant ecl hv.Macro.mname with
          | Some back ->
              Alcotest.(check string) "round trip" m.Macro.mname back.Macro.mname
          | None -> Alcotest.fail "missing standard variant"))
    (Tech.all ecl)

let test_cmos_has_no_variants () =
  let cmos = Util.cmos () in
  List.iter
    (fun (m : Macro.t) ->
      Alcotest.(check bool) (m.Macro.mname ^ " no HP in CMOS") true
        (Tech.high_power_variant cmos m.Macro.mname = None))
    (Tech.all cmos)

let test_matches_for () =
  let ecl = Util.ecl () in
  (* 2-input OR matches E_OR2 (and its variants) with some permutation *)
  let or2 = Truth_table.of_fun 2 (fun a -> a.(0) || a.(1)) in
  let ms = Tech.matches_for ecl or2 in
  Alcotest.(check bool) "or2 found" true
    (List.exists (fun (m, _) -> m.Macro.mname = "E_OR2") ms);
  (* asymmetric function: (a + b) c, matches E_OA21 under permutation *)
  let oa = Truth_table.of_fun 3 (fun a -> (a.(1) || a.(2)) && a.(0)) in
  let ms = Tech.matches_for ecl oa in
  (match List.find_opt (fun (m, _) -> m.Macro.mname = "E_OA21") ms with
  | Some (m, perm) ->
      (* applying the permutation must reproduce the macro's table *)
      let mtt = Option.get (Macro.single_output_tt m) in
      Alcotest.(check bool) "perm correct" true
        (Truth_table.equal (Truth_table.permute oa perm) mtt)
  | None -> Alcotest.fail "OA21 not matched")

(* --- Match memo ------------------------------------------------------ *)

(* Every single-output macro function of the libraries, then random
   tables of at most 5 inputs. *)
let match_targets () =
  let rng = Random.State.make [| 31 |] in
  List.concat_map
    (fun tech -> List.filter_map Macro.single_output_tt (Tech.all tech))
    (libs ())
  @ List.init 300 (fun _ ->
        let vars = 1 + Random.State.int rng 5 in
        Truth_table.create vars (Random.State.int64 rng Int64.max_int))

let same_matches a b =
  List.length a = List.length b
  && List.for_all2 (fun (m, p) (m', p') -> m == m' && p = p') a b

let test_match_memo_exact () =
  let targets = match_targets () in
  List.iter
    (fun lib ->
      (* a fresh technology, so the first pass runs on a cold memo *)
      let tech = Tech.create (Tech.name lib) (Tech.all lib) in
      let expected = List.map (Match_reference.search_matches tech) targets in
      List.iter
        (fun pass ->
          List.iter2
            (fun tt want ->
              if not (same_matches (Tech.matches_for tech tt) want) then
                Alcotest.failf "%s %s: %s matches differ from the search"
                  (Tech.name tech) pass (Truth_table.to_string tt))
            targets expected)
        [ "cold"; "warm" ];
      Alcotest.(check bool)
        (Tech.name tech ^ ": some targets match")
        true
        (List.exists (fun ms -> ms <> []) expected))
    (libs ())

(* Every single-output macro of the libraries under each permutation of
   its inputs, on a cold technology: [matches_for] answers what the
   list-based search answers. *)
let test_matches_every_permutation () =
  List.iter
    (fun lib ->
      let tech = Tech.create (Tech.name lib) (Tech.all lib) in
      let reference = Match_reference.search_matches tech in
      let queries = ref 0 in
      List.iter
        (fun (m : Macro.t) ->
          match Macro.single_output_tt m with
          | Some mtt when Truth_table.vars mtt <= 5 ->
              List.iter
                (fun p ->
                  let tt = Match_reference.permute mtt p in
                  incr queries;
                  if not (same_matches (Tech.matches_for tech tt) (reference tt))
                  then
                    Alcotest.failf
                      "%s %s under [%s]: matches differ from the search"
                      (Tech.name tech) m.Macro.mname
                      (String.concat ";" (List.map string_of_int p)))
                (Match_reference.permutations
                   (List.init (Truth_table.vars mtt) Fun.id))
          | Some _ | None -> ())
        (Tech.all tech);
      Alcotest.(check bool)
        (Tech.name tech ^ ": macros queried")
        true (!queries > 0))
    (libs ())

let test_match_memo_two_domains () =
  let targets = match_targets () in
  List.iter
    (fun lib ->
      let tech = Tech.create (Tech.name lib) (Tech.all lib) in
      let ready = Atomic.make 0 in
      let query () =
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        List.map (Tech.matches_for tech) targets
      in
      let a = Domain.spawn query and b = Domain.spawn query in
      let ra = Domain.join a and rb = Domain.join b in
      let expected = List.map (Match_reference.search_matches tech) targets in
      Alcotest.(check bool)
        (Tech.name tech ^ ": both domains get the search's lists")
        true
        (List.for_all2 same_matches ra expected
        && List.for_all2 same_matches rb expected))
    (libs ())

(* --- Gate tables and classification ---------------------------------- *)

let gate_fns = [ T.And; T.Or; T.Nand; T.Nor; T.Xor; T.Xnor; T.Inv; T.Buf ]

(* The classifier as it was before the tables: it enumerates each
   candidate function's minterms on every call. *)
let enumerated_gate_tt fn n = Truth_table.of_fun n (Defs.gate_semantics fn)

let enumerated_mux_tt n =
  let s = T.clog2 n in
  Truth_table.of_fun (n + s) (fun a ->
      let sel = ref 0 in
      for i = 0 to s - 1 do
        if a.(n + i) then sel := !sel lor (1 lsl i)
      done;
      if !sel < n then a.(!sel) else false)

let reference_of_macro (m : Macro.t) =
  match Macro.single_output_tt m with
  | None -> None
  | Some tt ->
      let arity = List.length m.Macro.inputs in
      if arity < 1 || arity > Truth_table.max_vars then None
      else
        List.find_map
          (fun fn ->
            if Truth_table.equal tt (enumerated_gate_tt fn arity) then
              Some { Gate_shape.fn; arity }
            else None)
          (if arity = 1 then [ T.Inv; T.Buf ]
           else [ T.And; T.Or; T.Nand; T.Nor; T.Xor; T.Xnor ])

let reference_mux_inputs (m : Macro.t) =
  match Macro.single_output_tt m with
  | None -> None
  | Some tt ->
      let check n =
        List.length m.Macro.inputs = n + T.clog2 n
        && List.for_all
             (fun i -> List.mem (Printf.sprintf "D%d" i) m.Macro.inputs)
             (List.init n (fun i -> i))
        && Truth_table.equal tt (enumerated_mux_tt n)
      in
      if check 2 then Some 2 else if check 4 then Some 4 else None

let test_gate_tables () =
  List.iter
    (fun fn ->
      for n = 1 to Truth_table.max_vars do
        Alcotest.(check bool)
          (Printf.sprintf "%s%d table" (T.gate_fn_name fn) n)
          true
          (Truth_table.equal (Defs.gate_tt fn n) (enumerated_gate_tt fn n))
      done)
    gate_fns;
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "mux%d table" n) true
        (Truth_table.equal (Defs.mux_tt n) (enumerated_mux_tt n)))
    [ 2; 4 ]

let test_classification_unchanged () =
  List.iter
    (fun tech ->
      List.iter
        (fun (m : Macro.t) ->
          let name = Tech.name tech ^ "/" ^ m.Macro.mname in
          Alcotest.(check bool) (name ^ " shape") true
            (Gate_shape.of_macro m = reference_of_macro m);
          Alcotest.(check bool) (name ^ " is_inv") true
            (Gate_shape.is_inv m
            = (match reference_of_macro m with
              | Some { Gate_shape.fn = T.Inv; _ } -> true
              | Some _ | None -> false));
          Alcotest.(check (option int)) (name ^ " mux inputs")
            (reference_mux_inputs m) (Gate_shape.mux_inputs m))
        (Tech.all tech))
    (libs ());
  (* the comparison is not vacuous *)
  let ecl = Util.ecl () in
  Alcotest.(check bool) "E_NOR3 is a NOR3" true
    (Gate_shape.of_macro (Tech.find ecl "E_NOR3")
    = Some { Gate_shape.fn = T.Nor; arity = 3 })

(* --- Once-only singletons --------------------------------------------- *)

let test_once_two_domains () =
  (* Two domains make the first call of a slow initializer at once: it
     runs once, and both get its value. *)
  let runs = Atomic.make 0 in
  let get =
    Tech.once (fun () ->
        Atomic.incr runs;
        let t0 = Sys.time () in
        while Sys.time () -. t0 < 0.05 do
          Domain.cpu_relax ()
        done;
        ref 0)
  in
  let ready = Atomic.make 0 in
  let force () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    get ()
  in
  let a = Domain.spawn force and b = Domain.spawn force in
  let va = Domain.join a and vb = Domain.join b in
  Alcotest.(check int) "initializer ran once" 1 (Atomic.get runs);
  Alcotest.(check bool) "both domains got its value" true (va == vb);
  Alcotest.(check bool) "later calls too" true (get () == va);
  Alcotest.(check int) "still once" 1 (Atomic.get runs)

let test_gate_arities () =
  let ecl = Util.ecl () in
  Alcotest.(check (list int)) "E_OR arities" [ 2; 3; 4; 5 ]
    (Tech.gate_arities ecl "E_OR");
  let cmos = Util.cmos () in
  Alcotest.(check (list int)) "C_NAND arities" [ 2; 3; 4 ]
    (Tech.gate_arities cmos "C_NAND")

let test_figure13_coverage () =
  (* The generic library carries everything Figure 13 lists. *)
  let lib = Util.generic () in
  let required =
    [ "AND2"; "AND3"; "AND4"; "OR2"; "OR3"; "OR4"; "NAND2"; "NAND3"; "NAND4";
      "NOR2"; "NOR3"; "NOR4"; "XOR2"; "XOR3"; "XOR4"; "XNOR2"; "XNOR3";
      "XNOR4"; "INV"; "BUF"; "VDD"; "VSS"; "MUX2"; "MUX4"; "DEC1x2"; "DEC2x4";
      "ADD1"; "ADD4"; "ADD4CLA"; "CMP2"; "CMP4"; "CNT2"; "CNT4"; "DFF";
      "DFF_R"; "DFF_S"; "DFF_SR"; "DFFN"; "DLATCH"; "DLATCH_R" ]
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (Tech.mem lib name))
    required

let () =
  Alcotest.run "library"
    [
      ( "wellformed",
        [
          Alcotest.test_case "pins/arcs/areas" `Quick test_macro_wellformed;
          Alcotest.test_case "behavior arity" `Quick test_behavior_arity;
          Alcotest.test_case "tt consistency" `Quick
            test_single_output_tt_consistent;
          Alcotest.test_case "figure 13 coverage" `Quick test_figure13_coverage;
        ] );
      ( "variants",
        [
          Alcotest.test_case "high power (ECL)" `Quick test_power_variants;
          Alcotest.test_case "none in CMOS" `Quick test_cmos_has_no_variants;
        ] );
      ( "function-index",
        [
          Alcotest.test_case "matches_for" `Quick test_matches_for;
          Alcotest.test_case "gate arities" `Quick test_gate_arities;
          Alcotest.test_case "memo equals the search" `Quick test_match_memo_exact;
          Alcotest.test_case "every macro under every permutation" `Quick
            test_matches_every_permutation;
          Alcotest.test_case "memo from two domains" `Quick
            test_match_memo_two_domains;
        ] );
      ( "gate-shape",
        [
          Alcotest.test_case "prebuilt tables" `Quick test_gate_tables;
          Alcotest.test_case "classification unchanged" `Quick
            test_classification_unchanged;
        ] );
      ( "singletons",
        [ Alcotest.test_case "once from two domains" `Quick test_once_two_domains ]
      );
    ]
