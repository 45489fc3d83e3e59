(* Differential fuzz: the packed (bit-parallel) simulator against the
   scalar reference path, lane by lane, over every suite design — raw
   micro form and conservatively mapped form — plus the accumulator,
   the examples/ inputs, and one-component designs of every micro kind
   and every library macro.  Combinational designs get random packed
   chunks (and an exhaustive sweep when the interface is narrow);
   sequential designs run in lock-step for a number of cycles with an
   independent scalar simulator shadowing a sample of lanes.

   The two engines share the levelized schedule but nothing else: the
   scalar path calls the one-vector reference semantics in [Eval], the
   packed path the word-level semantics in [Eval.Packed], so a
   divergence here is a real semantics bug in one of them.

   Also runnable on its own via `dune build @sim_suite`. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Sim = Milo_sim.Simulator
module Macro = Milo_library.Macro

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let lanes = Sim.lanes

(* Per-design "ok" lines; the one-component sweep prints a summary. *)
let verbose = ref true

let input_ports d =
  List.filter_map
    (fun (p, dir, _) -> if dir = T.Input then Some p else None)
    (D.ports d)

let is_seq_design (env : Sim.env) d =
  List.exists
    (fun (c : D.comp) ->
      match c.D.kind with
      | T.Register _ | T.Counter _ -> true
      | T.Macro m -> (
          match env.Sim.find_macro m with
          | mac -> Macro.is_sequential mac
          | exception _ -> false)
      | _ -> false)
    (D.comps d)

let random_words rng ins chunk =
  List.map
    (fun p ->
      let w = ref 0 in
      for l = 0 to chunk - 1 do
        if Random.State.bool rng then w := !w lor (1 lsl l)
      done;
      (p, !w))
    ins

let lane_inputs words l =
  List.map (fun (p, w) -> (p, w land (1 lsl l) <> 0)) words

(* Compare one lane of a packed output assignment against a scalar
   one.  The port sets must agree exactly. *)
let compare_lane what ~cycle scalar packed l =
  let sp = List.sort compare (List.map fst scalar)
  and pp = List.sort compare (List.map fst packed) in
  if sp <> pp then
    fail "%s: output port sets differ (scalar %s, packed %s)" what
      (String.concat "," sp) (String.concat "," pp)
  else
    List.iter
      (fun (p, v) ->
        let w = List.assoc p packed in
        if w land (1 lsl l) <> 0 <> v then
          fail "%s: port %s lane %d%s: scalar %b, packed %b" what p l
            (match cycle with
            | None -> ""
            | Some c -> Printf.sprintf " cycle %d" c)
            v
            (w land (1 lsl l) <> 0))
      scalar

(* --- Combinational: packed chunk vs per-lane scalar runs -------------- *)

let fuzz_comb what env d =
  let ins = input_ports d in
  let s = Sim.create env d in
  let check_chunk words chunk =
    let packed = Sim.outputs_packed s words in
    for l = 0 to chunk - 1 do
      let scalar = Sim.outputs s (lane_inputs words l) in
      compare_lane what ~cycle:None scalar packed l
    done
  in
  let rng = Random.State.make [| 0xd1f; String.length what |] in
  for _ = 1 to 8 do
    check_chunk (random_words rng ins lanes) lanes
  done;
  let n = List.length ins in
  if n <= 10 then begin
    (* Exhaustive: every vector, streamed in packed chunks. *)
    let total = 1 lsl n in
    let v0 = ref 0 in
    while !v0 < total do
      let chunk = min lanes (total - !v0) in
      let words =
        List.mapi
          (fun i p ->
            let w = ref 0 in
            for l = 0 to chunk - 1 do
              if (!v0 + l) lsr i land 1 <> 0 then w := !w lor (1 lsl l)
            done;
            (p, !w))
          ins
      in
      check_chunk words chunk;
      v0 := !v0 + lanes
    done
  end;
  if !verbose then
    Printf.printf "ok   %s comb packed=scalar (%d inputs)\n%!" what n

(* --- Sequential: packed lanes vs shadow scalar simulators ------------- *)

let shadow_lanes = 4
let seq_cycles = 24

let fuzz_seq ?(shadow_lanes = shadow_lanes) what env d =
  let ins = input_ports d in
  let p = Sim.create env d in
  Sim.reset p;
  let shadows = Array.init shadow_lanes (fun _ ->
      let s = Sim.create env d in
      Sim.reset s;
      s)
  in
  let rng = Random.State.make [| 0x5e41; String.length what |] in
  for c = 0 to seq_cycles - 1 do
    let words = random_words rng ins lanes in
    let packed =
      Array.to_list
        (Array.map2
           (fun port w -> (port, w))
           (Sim.output_ports p) (Sim.cycle_packed p words))
    in
    Array.iteri
      (fun j s ->
        let scalar = Sim.outputs s (lane_inputs words j) in
        compare_lane what ~cycle:(Some c) scalar packed j)
      shadows;
    Array.iteri (fun j s -> Sim.step s (lane_inputs words j)) shadows
  done;
  if !verbose then
    Printf.printf "ok   %s seq packed=scalar (%d cycles, %d lanes shadowed)\n%!"
      what seq_cycles shadow_lanes

let fuzz ?shadow_lanes what env d =
  match
    if is_seq_design env d then fuzz_seq ?shadow_lanes what env d
    else fuzz_comb what env d
  with
  | () -> ()
  | exception Sim.Combinational_loop _ ->
      Printf.printf "skip %s (combinational loop)\n%!" what
  | exception e -> fail "%s: %s" what (Printexc.to_string e)

(* --- Corpus ------------------------------------------------------------ *)

let env_gen () = Sim.env_of_techs [ Milo_library.Generic.get () ]

let env_mapped () =
  Sim.env_of_techs [ Milo_library.Ecl.get (); Milo_library.Generic.get () ]

let sweep_suite () =
  List.iter
    (fun (case : Milo_designs.Suite.case) ->
      let name = "design" ^ case.Milo_designs.Suite.case_name in
      let d = case.Milo_designs.Suite.case_design in
      fuzz name (env_gen ()) d;
      match Milo.Flow.human_baseline d with
      | mapped, _ -> fuzz (name ^ "/mapped") (env_mapped ()) mapped
      | exception e ->
          fail "%s: human_baseline raised %s" name (Printexc.to_string e))
    (Milo_designs.Suite.all ());
  fuzz "accumulator" (env_gen ()) (Milo_designs.Suite.accumulator ())

(* examples/ inputs, compiled and conservatively mapped first (they mix
   micro kinds, hierarchy and behavioural sources the raw simulator
   does not accept). *)
let find_examples () =
  let rec go dir depth =
    if depth > 4 then None
    else
      let cand = Filename.concat dir "examples" in
      if Sys.file_exists cand && Sys.is_directory cand then Some cand
      else go (Filename.concat dir "..") (depth + 1)
  in
  go "." 0

let read_input path =
  if Filename.check_suffix path ".pla" then
    Some
      (Milo_pla.Pla.to_design
         ~name:(Filename.remove_extension (Filename.basename path))
         (Milo_pla.Pla.of_file path))
  else if Filename.check_suffix path ".vhd" || Filename.check_suffix path ".vhdl"
  then Some (Milo_vhdl.Elaborate.design_of_file path)
  else if Filename.check_suffix path ".mil" then
    Some (Milo_netlist.Parser.of_file path)
  else None

let sweep_examples () =
  match find_examples () with
  | None -> Printf.printf "skip examples/ (directory not found)\n"
  | Some dir ->
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          match read_input path with
          | None -> ()
          | Some design -> (
              match Milo.Flow.human_baseline design with
              | mapped, _ -> fuzz ("examples/" ^ f) (env_mapped ()) mapped
              | exception e ->
                  fail "examples/%s: human_baseline raised %s" f
                    (Printexc.to_string e))
          | exception e ->
              fail "examples/%s: cannot read (%s)" f (Printexc.to_string e))
        (Sys.readdir dir)

(* --- Every kind, one component at a time --------------------------------

   The suite designs reach only some kinds and parameter shapes, always
   with every pin connected.  Here every micro kind and parameter shape,
   every macro of the generic, ECL and CMOS libraries, and the flip-flop,
   counter, adder and comparator shapes the libraries leave out, is one
   component between ports: once with every pin connected, and once with
   every third input unconnected (it reads 0) and every second output
   left open.  Sequential components are shadowed on every lane. *)

let one_comp ~sparse name kind pins =
  let d = D.create name in
  let c = D.add_comp d kind in
  let ins = List.filter (fun (_, dir) -> dir = T.Input) pins
  and outs = List.filter (fun (_, dir) -> dir = T.Output) pins in
  List.iteri
    (fun i (pin, _) ->
      if not (sparse && i mod 3 = 1) then
        D.connect d c pin (D.add_port d ("i_" ^ pin) T.Input))
    ins;
  List.iteri
    (fun j (pin, _) ->
      if not (sparse && j mod 2 = 1) then
        D.connect d c pin (D.add_port d ("o_" ^ pin) T.Output))
    outs;
  d

let fuzz_one env name kind pins =
  List.iter
    (fun sparse ->
      let what = name ^ if sparse then " (sparse)" else "" in
      fuzz ~shadow_lanes:lanes what env (one_comp ~sparse name kind pins))
    [ false; true ]

let all_gate_fns = [ T.And; T.Or; T.Nand; T.Nor; T.Xor; T.Xnor; T.Inv; T.Buf ]

let micro_kinds () =
  let ( let* ) l f = List.concat_map f l in
  let gates =
    (let* fn = [ T.And; T.Or; T.Nand; T.Nor; T.Xor; T.Xnor ] in
     let* n = [ 1; 2; 3; 5 ] in
     [ T.Gate (fn, n) ])
    @ [ T.Gate (T.Inv, 1); T.Gate (T.Buf, 1); T.Gate (T.Inv, 3);
        T.Gate (T.Buf, 2) ]
  in
  let muxes =
    let* inputs = [ 2; 3; 4; 5 ] in
    let* bits = [ 1; 3 ] in
    let* enable = [ false; true ] in
    [ T.Multiplexor { bits; inputs; enable } ]
  in
  let decoders =
    let* bits = [ 1; 2; 3 ] in
    let* enable = [ false; true ] in
    [ T.Decoder { bits; enable } ]
  in
  let comparators =
    (let* bits = [ 1; 3; 4 ] in
     [ T.Comparator { bits; fns = [ T.Eq; T.Ne; T.Lt; T.Gt; T.Le; T.Ge ] } ])
    @
    let* fn = [ T.Eq; T.Ne; T.Lt; T.Gt; T.Le; T.Ge ] in
    [ T.Comparator { bits = 2; fns = [ fn ] } ]
  in
  let logic_units =
    let* fn = all_gate_fns in
    let* inputs = [ 1; 2; 3 ] in
    [ T.Logic_unit { bits = 2; fn; inputs } ]
  in
  let arith_units =
    (let* fns =
       [ [ T.Add ]; [ T.Sub ]; [ T.Inc ]; [ T.Dec ]; [ T.Add; T.Sub ];
         (* three functions on a 2-bit select: select 3 clamps to Inc *)
         [ T.Add; T.Sub; T.Inc ]; [ T.Add; T.Sub; T.Inc; T.Dec ];
         [ T.Dec; T.Inc ]; [ T.Inc; T.Sub; T.Add ] ]
     in
     let* bits = [ 1; 4 ] in
     [ T.Arith_unit { bits; fns; mode = T.Ripple } ])
    @ [ T.Arith_unit { bits = 3; fns = [ T.Add; T.Sub ]; mode = T.Lookahead } ]
  in
  let registers =
    let* fns =
      [ [ T.Load ]; [ T.Shift_left ]; [ T.Shift_right ];
        [ T.Load; T.Shift_left ]; [ T.Shift_right; T.Load ];
        (* three functions on a 2-bit select: select 3 clamps *)
        [ T.Load; T.Shift_right; T.Shift_left ] ]
    in
    let* controls =
      [ []; [ T.Set ]; [ T.Reset ]; [ T.Enable ]; [ T.Set; T.Reset; T.Enable ] ]
    in
    let* inverting = [ false; true ] in
    let* bits, kind = [ (4, T.Edge_triggered); (1, T.Latch) ] in
    [ T.Register { bits; kind; fns; controls; inverting } ]
  in
  let counters =
    let* fns =
      [ [ T.Count_up ]; [ T.Count_down ]; [ T.Count_up; T.Count_down ];
        [ T.Count_load; T.Count_up ]; [ T.Count_load; T.Count_down ];
        [ T.Count_load; T.Count_up; T.Count_down ] ]
    in
    let* controls =
      [ []; [ T.Reset; T.Enable ]; [ T.Set; T.Reset; T.Enable ] ]
    in
    let* bits = [ 1; 4 ] in
    [ T.Counter { bits; fns; controls } ]
  in
  gates @ muxes @ decoders @ comparators @ logic_units @ arith_units
  @ registers @ counters
  @ [ T.Constant T.Vdd; T.Constant T.Vss ]

(* Shapes the libraries do not instantiate: flip-flops with a 3-way
   data mux or set+enable, counters without load, direction, reset or
   enable, and adders and comparators of other widths. *)
let extra_macros () =
  let module Defs = Milo_library.Defs in
  let dff = Defs.dff ~delay:1.0 ~area:1.0 ~power:1.0 ~gates:1.0 in
  let counter = Defs.counter ~delay:1.0 ~area:1.0 ~power:1.0 ~gates:1.0 in
  [
    dff ~data:(Macro.Muxed 3) ~has_set:true ~has_enable:true "X_MUXFF3_SE";
    dff ~has_set:true ~has_reset:true ~has_enable:true ~inverting:true
      "X_DFFN_SRE";
  ]
  @ List.concat_map
      (fun has_load ->
        List.concat_map
          (fun has_updown ->
            List.map
              (fun (has_reset, has_enable) ->
                counter ~has_load ~has_updown ~has_reset ~has_enable
                  (Printf.sprintf "X_CNT3_%b_%b_%b_%b" has_load has_updown
                     has_reset has_enable)
                  3)
              [ (false, false); (true, true) ])
          [ false; true ])
      [ false; true ]
  @ List.map
      (fun w ->
        Defs.adder ~ripple:true ~stage:1.0 ~flat:1.0 ~area:1.0 ~power:1.0
          ~gates:1.0 (Printf.sprintf "X_ADD%d" w) w)
      [ 1; 2; 3 ]
  @ [ Defs.comparator ~delay:1.0 ~area:1.0 ~power:1.0 ~gates:1.0 "X_CMP3" 3 ]

let sweep_kinds () =
  let failed = !failures in
  verbose := false;
  let env = env_gen () in
  let micro = micro_kinds () in
  List.iter
    (fun kind -> fuzz_one env (T.kind_name kind) kind (T.pins_of_kind kind))
    micro;
  let extras = extra_macros () in
  let libs =
    [ Milo_library.Generic.get (); Milo_library.Ecl.get ();
      Milo_library.Cmos.get ();
      Milo_library.Technology.create "extra" extras ]
  in
  let n_macros = ref 0 in
  List.iter
    (fun tech ->
      let env = Sim.env_of_techs [ tech ] in
      List.iter
        (fun (m : Macro.t) ->
          incr n_macros;
          fuzz_one env m.Macro.mname (T.Macro m.Macro.mname) m.Macro.pins)
        (Milo_library.Technology.all tech))
    libs;
  if !failures = failed then
    Printf.printf
      "ok   every kind: %d micro shapes, %d macros, packed=scalar\n%!"
      (List.length micro) !n_macros

let () =
  sweep_suite ();
  sweep_examples ();
  sweep_kinds ();
  if !failures > 0 then begin
    Printf.printf "%d differential failure(s)\n" !failures;
    exit 1
  end;
  Printf.printf "sim_suite: all packed/scalar differentials clean\n"
