(* Structural statistics over designs: kind histograms, fanout profile,
   and the two-input-equivalent gate count used for the "Complexity
   (gates)" column of the paper's Figure 19. *)

type histogram = (string * int) list

let kind_histogram d =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c : Design.comp) ->
      let k = Types.kind_name c.Design.kind in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (Design.comps d);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

(* Two-input-equivalent gates of one component.  Micro components are
   rated by what their gate-level expansion costs; [macro_gates]
   translates library macros (the library knows its own complexity). *)
let rec kind_gates ?(macro_gates = fun _ -> 1.0) (k : Types.kind) =
  let open Types in
  let fbits b = float_of_int b in
  match k with
  | Gate (fn, n) -> (
      let n = gate_arity fn n in
      match fn with
      | Inv | Buf -> 0.5
      | Xor | Xnor -> float_of_int (3 * max 1 (n - 1))
      | And | Or | Nand | Nor -> float_of_int (max 1 (n - 1)))
  | Constant _ -> 0.0
  | Multiplexor { bits; inputs; enable } ->
      let per_bit = float_of_int (2 * inputs - 1) in
      (per_bit *. fbits bits) +. (if enable then 1.0 else 0.0)
  | Decoder { bits; enable } ->
      float_of_int ((1 lsl bits) * max 1 (bits - 1))
      +. (if enable then float_of_int (1 lsl bits) else 0.0)
  | Comparator { bits; fns } ->
      (fbits bits *. 3.0) +. (2.0 *. float_of_int (max 1 (List.length fns - 1)))
  | Logic_unit { bits; fn; inputs } ->
      fbits bits *. kind_gates ~macro_gates (Gate (fn, inputs))
  | Arith_unit { bits; fns; mode } ->
      let per_bit = match mode with Ripple -> 5.0 | Lookahead -> 7.0 in
      per_bit *. fbits bits *. float_of_int (max 1 (List.length fns))
  | Register { bits; fns; _ } ->
      fbits bits *. (4.0 +. float_of_int (List.length fns))
  | Counter { bits; _ } -> fbits bits *. 7.0
  | Macro m -> macro_gates m
  | Instance _ -> 0.0

let two_input_equiv ?macro_gates d =
  List.fold_left
    (fun acc (c : Design.comp) -> acc +. kind_gates ?macro_gates c.Design.kind)
    0.0 (Design.comps d)
  |> Float.round |> int_of_float

let max_fanout ?resolve d =
  List.fold_left
    (fun acc (n : Design.net) -> max acc (Design.fanout ?resolve d n.Design.nid))
    0 (Design.nets d)
