(* Area and power accounting for mapped designs, plus the
   microarchitecture-level formula estimator (the "first method" of
   Section 5: a technology-specific formula that, given component
   parameters, produces a reasonable estimate without compiling). *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module M = Milo_library.Macro

type env = string -> M.t

let kind_area env (k : T.kind) =
  match k with
  | T.Macro m -> (env m).M.area
  | T.Constant _ -> 0.0
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Instance _ ->
      invalid_arg
        (Printf.sprintf "Estimate: %s is not technology-mapped" (T.kind_name k))

let kind_power env (k : T.kind) =
  match k with
  | T.Macro m -> (env m).M.power
  | T.Constant _ -> 0.0
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Instance _ ->
      invalid_arg
        (Printf.sprintf "Estimate: %s is not technology-mapped" (T.kind_name k))

let comp_area env (c : D.comp) =
  match c.D.kind with
  | T.Macro _ | T.Constant _ -> kind_area env c.D.kind
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Instance _ ->
      invalid_arg
        (Printf.sprintf "Estimate: %s is not technology-mapped" c.D.cname)

let comp_power env (c : D.comp) =
  match c.D.kind with
  | T.Macro _ | T.Constant _ -> kind_power env c.D.kind
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Instance _ ->
      invalid_arg
        (Printf.sprintf "Estimate: %s is not technology-mapped" c.D.cname)

let area env design =
  List.fold_left (fun acc c -> acc +. comp_area env c) 0.0 (D.comps design)

let power env design =
  List.fold_left (fun acc c -> acc +. comp_power env c) 0.0 (D.comps design)

(* --- Microarchitecture formula estimator ---------------------------- *)

(* Technology scaling coefficients: cells per 2-input-equivalent gate,
   ns per logic level, mW per gate. *)
type coefficients = {
  cells_per_gate : float;
  ns_per_level : float;
  mw_per_gate : float;
}

let ecl_coefficients = { cells_per_gate = 0.62; ns_per_level = 0.62; mw_per_gate = 0.58 }
let generic_coefficients = { cells_per_gate = 0.75; ns_per_level = 0.75; mw_per_gate = 0.50 }

type micro_estimate = { est_area : float; est_delay : float; est_power : float }

(* Logic levels a component adds on its worst path. *)
let kind_levels (k : T.kind) =
  let open T in
  match k with
  | Gate (fn, n) -> (
      let n = gate_arity fn n in
      match fn with
      | Inv | Buf -> 1.0
      | Xor | Xnor -> 2.0 +. Float.of_int (clog2 (max 2 n) - 1)
      | And | Or | Nand | Nor -> 1.0 +. (0.5 *. Float.of_int (clog2 (max 2 n) - 1)))
  | Constant _ -> 0.0
  | Multiplexor { inputs; _ } -> 2.0 +. (0.5 *. Float.of_int (clog2 inputs))
  | Decoder { bits; _ } -> 1.0 +. (0.5 *. Float.of_int bits)
  | Comparator { bits; _ } -> 2.0 +. Float.of_int (clog2 (max 2 bits))
  | Logic_unit { inputs; _ } -> 1.0 +. (0.5 *. Float.of_int (clog2 (max 2 inputs)))
  | Arith_unit { bits; mode; _ } -> (
      match mode with
      | Ripple -> 2.0 *. Float.of_int bits
      | Lookahead -> 3.0 +. Float.of_int (clog2 (max 2 bits)))
  | Register _ -> 2.0
  | Counter { bits; _ } -> 2.0 +. (0.3 *. Float.of_int bits)
  | Macro _ | Instance _ -> 1.0

let micro ?(coefficients = generic_coefficients) (k : T.kind) =
  let gates = Milo_netlist.Stats.kind_gates k in
  {
    est_area = gates *. coefficients.cells_per_gate;
    est_delay = kind_levels k *. coefficients.ns_per_level;
    est_power = gates *. coefficients.mw_per_gate;
  }

(* Whole-design microarchitecture estimate: area/power additive; delay =
   worst levels along an input-to-output sweep is approximated by the
   sum of the two deepest components (a crude but monotone formula). *)
let micro_design ?(coefficients = generic_coefficients) design =
  let per =
    List.map (fun (c : D.comp) -> micro ~coefficients c.D.kind) (D.comps design)
  in
  let est_area = List.fold_left (fun a e -> a +. e.est_area) 0.0 per in
  let est_power = List.fold_left (fun a e -> a +. e.est_power) 0.0 per in
  let sorted =
    List.sort (fun a b -> compare b.est_delay a.est_delay) per
  in
  let est_delay =
    match sorted with
    | [] -> 0.0
    | [ e ] -> e.est_delay
    | e1 :: e2 :: _ -> e1.est_delay +. (0.7 *. e2.est_delay)
  in
  { est_area; est_delay; est_power }
