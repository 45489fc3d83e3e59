(* Recognizing gate shapes of library macros behaviourally (by truth
   table), so the same rules work on generic, ECL and CMOS macros
   regardless of naming. *)

module T = Milo_netlist.Types
module Macro = Milo_library.Macro
open Milo_boolfunc

type shape = { fn : T.gate_fn; arity : int }

let of_macro (m : Macro.t) : shape option =
  match Macro.single_output_tt m with
  | None -> None
  | Some tt ->
      let arity = List.length m.Macro.inputs in
      if arity < 1 || arity > Truth_table.max_vars then None
      else
        let try_fn fn =
          if Truth_table.equal tt (Milo_library.Defs.gate_tt fn arity) then
            Some { fn; arity }
          else None
        in
        List.find_map try_fn
          (if arity = 1 then [ T.Inv; T.Buf ]
           else [ T.And; T.Or; T.Nand; T.Nor; T.Xor; T.Xnor ])

let is_inv m =
  match of_macro m with Some { fn = T.Inv; _ } -> true | Some _ | None -> false

let is_const (m : Macro.t) : bool option =
  match Macro.single_output_tt m with
  | Some tt when Truth_table.vars tt = 0 -> Truth_table.is_const tt
  | Some _ | None -> None

(* A macro implementing a 2:1 / 4:1 single-bit mux (D0.., S0.., Y). *)
let mux_inputs (m : Macro.t) : int option =
  match Macro.single_output_tt m with
  | None -> None
  | Some tt ->
      let check n =
        List.length m.Macro.inputs = n + T.clog2 n
        && List.for_all (fun i -> List.mem (Printf.sprintf "D%d" i) m.Macro.inputs)
             (List.init n (fun i -> i))
        && Truth_table.equal tt (Milo_library.Defs.mux_tt n)
      in
      if check 2 then Some 2 else if check 4 then Some 4 else None
