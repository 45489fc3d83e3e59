(* Cubes (product terms) over up to 62 variables.

   A variable appears as a positive literal, a negative literal, or not
   at all; the two bitmasks record which.  This is the product-term
   representation used by the two-level minimizer and algebraic
   division. *)

type t = { n : int; pos : int; neg : int }

let universe n =
  if n < 0 || n > 62 then invalid_arg "Cube.universe: n out of range";
  { n; pos = 0; neg = 0 }

let n t = t.n

let of_literals n lits =
  List.fold_left
    (fun c (v, polarity) ->
      if v < 0 || v >= n then invalid_arg "Cube.of_literals: var out of range";
      if polarity then { c with pos = c.pos lor (1 lsl v) }
      else { c with neg = c.neg lor (1 lsl v) })
    (universe n) lits

let literals t =
  List.concat_map
    (fun v ->
      (if t.pos land (1 lsl v) <> 0 then [ (v, true) ] else [])
      @ if t.neg land (1 lsl v) <> 0 then [ (v, false) ] else [])
    (List.init t.n (fun i -> i))

let literal_count t =
  let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
  popcount t.pos + popcount t.neg

let is_empty t = t.pos land t.neg <> 0

let eval t input =
  let ok = ref true in
  for v = 0 to t.n - 1 do
    let bit = 1 lsl v in
    if t.pos land bit <> 0 && not input.(v) then ok := false;
    if t.neg land bit <> 0 && input.(v) then ok := false
  done;
  !ok

(* Positive literals must be 1 in the minterm index, negative ones 0. *)
let eval_index t m = t.pos land m = t.pos && t.neg land m = 0

let intersect a b =
  if a.n <> b.n then invalid_arg "Cube.intersect: size mismatch";
  let c = { n = a.n; pos = a.pos lor b.pos; neg = a.neg lor b.neg } in
  if is_empty c then None else Some c

let contains a b =
  (* a contains b: every assignment in b satisfies a, i.e. a's literals
     are a subset of b's. *)
  a.n = b.n && a.pos land b.pos = a.pos && a.neg land b.neg = a.neg

let cofactor t v value =
  let bit = 1 lsl v in
  let conflicting = if value then t.neg else t.pos in
  if conflicting land bit <> 0 then None
  else Some { t with pos = t.pos land lnot bit; neg = t.neg land lnot bit }

let has_var t v =
  let bit = 1 lsl v in
  t.pos land bit <> 0 || t.neg land bit <> 0

let polarity t v =
  let bit = 1 lsl v in
  if t.pos land bit <> 0 then Some true
  else if t.neg land bit <> 0 then Some false
  else None

let remove_var t v =
  let bit = 1 lsl v in
  { t with pos = t.pos land lnot bit; neg = t.neg land lnot bit }

let consensus_merge a b =
  (* If a and b differ in exactly one variable's polarity and agree on all
     other literals, merge into the cube dropping that variable. *)
  if a.n <> b.n then None
  else
    let opp = (a.pos land b.neg) lor (a.neg land b.pos) in
    let single x = x <> 0 && x land (x - 1) = 0 in
    if
      single opp
      && a.pos land lnot (opp lor b.pos) = 0
      && b.pos land lnot (opp lor a.pos) = 0
      && a.neg land lnot (opp lor b.neg) = 0
      && b.neg land lnot (opp lor a.neg) = 0
    then
      Some
        { n = a.n; pos = a.pos land lnot opp; neg = a.neg land lnot opp }
    else None

let of_minterm n m =
  let pos = ref 0 and neg = ref 0 in
  for v = 0 to n - 1 do
    if m land (1 lsl v) <> 0 then pos := !pos lor (1 lsl v)
    else neg := !neg lor (1 lsl v)
  done;
  { n; pos = !pos; neg = !neg }

let minterms t =
  (* All minterm indices covered by the cube (exponential in free vars). *)
  let free =
    List.filter (fun v -> not (has_var t v)) (List.init t.n (fun i -> i))
  in
  let base = t.pos in
  let rec go acc vs m =
    match vs with
    | [] -> m :: acc
    | v :: rest -> go (go acc rest m) rest (m lor (1 lsl v))
  in
  go [] free base

let equal a b = a.n = b.n && a.pos = b.pos && a.neg = b.neg
let compare = Stdlib.compare

let to_string names t =
  if t.pos = 0 && t.neg = 0 then "1"
  else
    String.concat ""
      (List.map
         (fun (v, p) -> if p then names v else names v ^ "'")
         (literals t))
