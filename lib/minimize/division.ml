(* Algebraic (weak) division and kernel extraction, MIS-style.

   An algebraic cover treats literals as opaque symbols: a cover is a
   list of cubes, a cube a set of literal ids.  Literal id encoding:
   [2*var] = positive literal, [2*var+1] = negative.  A cube is one int
   whose bit [l] is set iff literal [l] is present, so subset,
   difference, union and common literals are single mask operations.
   Literal ids 0-61 fill a 63-bit int: covers are limited to 31
   variables. *)

type cube = int
type alg = cube list

let lit_pos v = 2 * v
let lit_neg v = (2 * v) + 1
let lit_var l = l / 2
let lit_polarity l = l mod 2 = 0
let cube_of_list ls = List.fold_left (fun c l -> c lor (1 lsl l)) 0 ls

let literals c =
  let rec from l m =
    if m = 0 then []
    else if m land 1 <> 0 then l :: from (l + 1) (m lsr 1)
    else from (l + 1) (m lsr 1)
  in
  from 0 c

(* [Stdlib.compare] on the cubes' sorted literal lists, which fixes every
   list order below.  Below the lowest literal [l] where two cubes differ
   they agree, so the cube holding [l] comes first unless the other cube
   has no literal above [l]: then the other is a prefix of it. *)
let compare a b =
  if a = b then 0
  else
    let x = a lxor b in
    let l = x land -x in
    let above c = c land -(l lsl 1) <> 0 in
    if a land l <> 0 then (if above b then -1 else 1)
    else if above a then 1
    else -1

let diff a b = a land lnot b
let cube_union a b = a lor b

let of_cover cover =
  if Milo_boolfunc.Cover.n cover > 31 then
    invalid_arg "Division.of_cover: more than 31 variables";
  List.map
    (fun c ->
      cube_of_list
        (List.map
           (fun (v, p) -> if p then lit_pos v else lit_neg v)
           (Milo_boolfunc.Cube.literals c)))
    (Milo_boolfunc.Cover.cubes cover)

let rec popcount c = if c = 0 then 0 else 1 + popcount (c land (c - 1))
let literal_count alg = List.fold_left (fun acc c -> acc + popcount c) 0 alg
let dedup alg = List.sort_uniq compare alg

module Cubes = Hashtbl.Make (Int)

let cube_set alg =
  let s = Cubes.create (2 * List.length alg) in
  List.iter (fun c -> Cubes.replace s c ()) alg;
  s

(* The quotient of f by d, [fset] holding the cubes of [f]: [qc] is a
   quotient cube iff, for every divisor cube [dc], [qc] and [dc] share
   no literal and [qc lor dc] is a cube of [f].  The candidates are the
   cubes of [f] divided by d's first cube. *)
let quotient fset f d =
  match d with
  | [] -> []
  | first :: rest ->
      let divides qc =
        List.for_all
          (fun dc -> qc land dc = 0 && Cubes.mem fset (qc lor dc))
          rest
      in
      dedup
        (List.filter_map
           (fun fc ->
             let qc = diff fc first in
             if fc land first = first && divides qc then Some qc else None)
           f)

(* Weak division f / d: quotient q and remainder r with f = d*q + r,
   q as large as possible, algebraically (no boolean simplification). *)
let divide (f : alg) (d : alg) : alg * alg =
  match quotient (cube_set f) f d with
  | [] -> ([], f)
  | q ->
      let products =
        cube_set
          (List.concat_map (fun qc -> List.map (fun dc -> qc lor dc) d) q)
      in
      (q, List.filter (fun fc -> not (Cubes.mem products fc)) f)

(* A cover is cube-free if no literal appears in every cube. *)
let common_literals = function
  | [] -> 0
  | first :: rest -> List.fold_left ( land ) first rest

module Algs = Hashtbl.Make (struct
  type t = alg

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h c -> (h * 65599) + c) 0
end)

(* All kernels and co-kernels (standard recursive algorithm). *)
let kernels (f : alg) : (cube * alg) list =
  let seen = Algs.create 64 in
  let result = ref [] in
  let add co k =
    let k = dedup k in
    if List.compare_length_with k 1 > 0 && common_literals k = 0
       && not (Algs.mem seen k)
    then begin
      Algs.add seen k ();
      result := (co, k) :: !result
    end
  in
  let rec kernel1 min_lit co f =
    add co f;
    let lits = List.fold_left ( lor ) 0 f in
    let rec each l =
      if lits lsr l <> 0 then begin
        let bit = 1 lsl l in
        if lits land bit <> 0 then begin
          let sub =
            List.filter_map
              (fun c -> if c land bit <> 0 then Some (diff c bit) else None)
              f
          in
          if List.compare_length_with sub 1 > 0 then
            let com = common_literals sub in
            if com land (bit - 1) = 0 then
              kernel1 (l + 1) (co lor bit lor com)
                (List.map (fun c -> diff c com) sub)
        end;
        each (l + 1)
      end
    in
    each min_lit
  in
  let f = dedup f in
  let com = common_literals f in
  kernel1 0 com (List.map (fun c -> diff c com) f);
  !result

(* Best divisor by literal savings: value(d) = (|q|-1)*lits(d) +
   (lits_saved in f).  Simple scoring good enough to drive factoring. *)
let best_kernel (f : alg) : alg option =
  let ks = kernels f in
  let fset = cube_set f in
  let score k =
    let nq = List.length (quotient fset f k) in
    if nq < 2 then -1
    else (nq - 1) * literal_count k
  in
  List.fold_left
    (fun acc (_, k) ->
      let s = score k in
      match acc with
      | Some (bs, _) when bs >= s -> acc
      | _ when s <= 0 -> acc
      | _ -> Some (s, k))
    None ks
  |> Option.map snd
