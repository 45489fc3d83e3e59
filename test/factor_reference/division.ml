(* Algebraic (weak) division and kernel extraction, MIS-style.

   An algebraic cover treats literals as opaque symbols: a cover is a
   list of cubes, a cube a sorted list of literal ids.  Literal id
   encoding: [2*var] = positive literal, [2*var+1] = negative. *)

type cube = int list (* sorted, duplicate-free *)
type alg = cube list

let lit_pos v = 2 * v
let lit_neg v = (2 * v) + 1
let lit_var l = l / 2
let lit_polarity l = l mod 2 = 0

let cube_of_list ls = List.sort_uniq compare ls

let rec subset a b =
  (* a ⊆ b for sorted lists *)
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then subset a' b' else if x > y then subset a b' else false

let rec diff a b =
  (* a \ b for sorted lists *)
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | x :: a', y :: b' ->
      if x = y then diff a' b'
      else if x < y then x :: diff a' b
      else diff a b'

let cube_union a b = List.sort_uniq compare (a @ b)

let of_cover cover =
  List.map
    (fun c ->
      cube_of_list
        (List.map
           (fun (v, p) -> if p then lit_pos v else lit_neg v)
           (Milo_boolfunc.Cube.literals c)))
    (Milo_boolfunc.Cover.cubes cover)

let to_cover ~vars alg =
  Milo_boolfunc.Cover.create vars
    (List.map
       (fun cube ->
         Milo_boolfunc.Cube.of_literals vars
           (List.map (fun l -> (lit_var l, lit_polarity l)) cube))
       alg)

let literal_count alg = List.fold_left (fun acc c -> acc + List.length c) 0 alg

let dedup alg = List.sort_uniq compare (List.map cube_of_list alg)

(* Weak division f / d: quotient q and remainder r with f = d*q + r,
   q as large as possible, algebraically (no boolean simplification). *)
let divide (f : alg) (d : alg) : alg * alg =
  match d with
  | [] -> ([], f)
  | first :: rest ->
      let quotients_for dc =
        List.filter_map
          (fun fc -> if subset dc fc then Some (diff fc dc) else None)
          f
      in
      let q0 = quotients_for first in
      let q =
        List.fold_left
          (fun acc dc ->
            let qi = quotients_for dc in
            List.filter (fun c -> List.exists (fun c' -> c' = c) qi) acc)
          q0 rest
      in
      let q = dedup q in
      if q = [] then ([], f)
      else
        let products =
          List.concat_map (fun qc -> List.map (fun dc -> cube_union qc dc) d) q
        in
        let r = List.filter (fun fc -> not (List.mem fc products)) f in
        (q, r)

(* A cover is cube-free if no literal appears in every cube. *)
let common_literals = function
  | [] -> []
  | first :: rest ->
      List.fold_left (fun acc c -> List.filter (fun l -> List.mem l c) acc) first rest

let is_cube_free alg = alg <> [] && List.length alg > 1 && common_literals alg = []

let make_cube_free alg =
  match common_literals alg with
  | [] -> alg
  | com -> List.map (fun c -> diff c com) alg

(* All kernels and co-kernels (standard recursive algorithm). *)
let kernels (f : alg) : (cube * alg) list =
  let literals_of f =
    List.sort_uniq compare (List.concat f)
  in
  let count_lit f l = List.length (List.filter (fun c -> List.mem l c) f) in
  let result = ref [] in
  let add co k =
    let k = dedup k in
    if List.length k > 1 && is_cube_free k then
      if not (List.exists (fun (_, k') -> k' = k) !result) then
        result := (cube_of_list co, k) :: !result
  in
  let rec kernel1 min_lit co f =
    add co f;
    List.iter
      (fun l ->
        if l >= min_lit && count_lit f l >= 2 then begin
          let sub =
            List.filter_map
              (fun c -> if List.mem l c then Some (diff c [ l ]) else None)
              f
          in
          let com = common_literals sub in
          if not (List.exists (fun l' -> l' < l) com) then
            kernel1 (l + 1) (cube_union co (cube_union [ l ] com))
              (List.map (fun c -> diff c com) sub)
        end)
      (literals_of f)
  in
  let f = dedup f in
  let f0 = make_cube_free f in
  kernel1 0 (common_literals f) f0;
  !result

(* Best divisor by literal savings: value(d) = (|q|-1)*lits(d) +
   (lits_saved in f).  Simple scoring good enough to drive factoring. *)
let best_kernel (f : alg) : alg option =
  let ks = kernels f in
  let score k =
    let q, _ = divide f k in
    let nq = List.length q in
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
