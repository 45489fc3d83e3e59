(* Recursive algebraic factoring: F = D*Q + R on the best kernel, else a
   literal-split fallback; produces an expression tree the optimizer can
   rebuild into gates (strategy 7's weak-division re-expansion, and the
   Logic Consultant's factorization module). *)

type expr =
  | Const of bool
  | Lit of int * bool  (* variable, polarity *)
  | And_e of expr list
  | Or_e of expr list
  | Not_e of expr

let rec literal_count = function
  | Const _ -> 0
  | Lit _ -> 1
  | And_e es | Or_e es -> List.fold_left (fun a e -> a + literal_count e) 0 es
  | Not_e e -> literal_count e

let rec depth = function
  | Const _ | Lit _ -> 0
  | And_e es | Or_e es ->
      1 + List.fold_left (fun a e -> max a (depth e)) 0 es
  | Not_e e -> 1 + depth e

let rec eval env = function
  | Const b -> b
  | Lit (v, p) -> if p then env v else not (env v)
  | And_e es -> List.for_all (eval env) es
  | Or_e es -> List.exists (eval env) es
  | Not_e e -> not (eval env e)

let expr_of_lit l =
  Lit (Division.lit_var l, Division.lit_polarity l)

let expr_of_cube (c : Division.cube) =
  match c with
  | [] -> Const true
  | [ l ] -> expr_of_lit l
  | ls -> And_e (List.map expr_of_lit ls)

let flat_or = function [ e ] -> e | es -> Or_e es
let flat_and = function [ e ] -> e | es -> And_e es

let rec factor (f : Division.alg) : expr =
  let f = Division.dedup f in
  match f with
  | [] -> Const false
  | [ c ] -> expr_of_cube c
  | _ -> (
      (* Pull out any common cube first. *)
      let com = Division.common_literals f in
      if com <> [] then
        let rest = List.map (fun c -> Division.diff c com) f in
        flat_and (List.map expr_of_lit com @ [ factor rest ])
      else
        match Division.best_kernel f with
        | Some d when List.length d > 1 ->
            let q, r = Division.divide f d in
            if q = [] then sum_form f
            else
              let dq = And_e [ factor d; factor q ] in
              if r = [] then dq else flat_or [ dq; factor r ]
        | Some _ | None -> sum_form f)

and sum_form f = flat_or (List.map expr_of_cube f)

let of_cover cover = factor (Division.of_cover cover)

let rec to_string names = function
  | Const true -> "1"
  | Const false -> "0"
  | Lit (v, true) -> names v
  | Lit (v, false) -> names v ^ "'"
  | And_e es -> String.concat "*" (List.map (paren names) es)
  | Or_e es -> String.concat " + " (List.map (to_string names) es)
  | Not_e e -> "!" ^ paren names e

and paren names e =
  match e with
  | Or_e _ -> "(" ^ to_string names e ^ ")"
  | Const _ | Lit _ | And_e _ | Not_e _ -> to_string names e
