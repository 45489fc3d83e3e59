(* Sum-of-products covers: lists of cubes over a common variable set. *)

type t = { n : int; cubes : Cube.t list }

let create n cubes =
  List.iter
    (fun c ->
      if Cube.n c <> n then invalid_arg "Cover.create: cube size mismatch")
    cubes;
  { n; cubes = List.filter (fun c -> not (Cube.is_empty c)) cubes }

let n t = t.n
let cubes t = t.cubes
let is_empty t = t.cubes = []
let size t = List.length t.cubes

let literal_count t =
  List.fold_left (fun acc c -> acc + Cube.literal_count c) 0 t.cubes

let eval t input = List.exists (fun c -> Cube.eval c input) t.cubes
let eval_index t m = List.exists (fun c -> Cube.eval_index c m) t.cubes

let of_truth_table tt =
  let nv = Truth_table.vars tt in
  let cubes = ref [] in
  for m = 0 to (1 lsl nv) - 1 do
    if Truth_table.eval_index tt m then cubes := Cube.of_minterm nv m :: !cubes
  done;
  { n = nv; cubes = !cubes }

let to_truth_table t =
  if t.n > Truth_table.max_vars then
    invalid_arg "Cover.to_truth_table: too many variables";
  Truth_table.of_fun t.n (eval t)

let minterms t =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun c -> List.iter (fun m -> Hashtbl.replace seen m ()) (Cube.minterms c))
    t.cubes;
  Hashtbl.fold (fun m () acc -> m :: acc) seen [] |> List.sort compare

let cofactor t v value =
  { t with cubes = List.filter_map (fun c -> Cube.cofactor c v value) t.cubes }

(* Tautology by Shannon expansion on the most-bound variable. *)
let rec is_tautology t =
  if List.exists (fun c -> Cube.literal_count c = 0) t.cubes then true
  else if t.cubes = [] then false
  else
    let bound =
      List.find_opt
        (fun v -> List.exists (fun c -> Cube.has_var c v) t.cubes)
        (List.init t.n (fun i -> i))
    in
    match bound with
    | None -> t.cubes <> []
    | Some v -> is_tautology (cofactor t v false) && is_tautology (cofactor t v true)

let covers_cube t c =
  (* t covers c iff the cofactor of t with respect to c is a tautology. *)
  let reduced =
    List.fold_left
      (fun acc (v, p) ->
        match acc with
        | None -> None
        | Some cov ->
            Some (cofactor cov v p))
      (Some t) (Cube.literals c)
  in
  match reduced with None -> false | Some cov -> is_tautology cov

let covers a b = List.for_all (covers_cube a) b.cubes

let equivalent a b = covers a b && covers b a

let single_cube_containment t =
  (* Remove cubes contained in another single cube. *)
  let keep c =
    not
      (List.exists
         (fun c' -> (not (Cube.equal c c')) && Cube.contains c' c)
         t.cubes)
  in
  let rec dedup = function
    | [] -> []
    | c :: rest -> c :: dedup (List.filter (fun c' -> not (Cube.equal c c')) rest)
  in
  { t with cubes = dedup (List.filter keep t.cubes) }

let union a b =
  if a.n <> b.n then invalid_arg "Cover.union: size mismatch";
  { n = a.n; cubes = a.cubes @ b.cubes }

let complement t =
  (* Complement by recursive Shannon expansion (exact; fine for the cone
     sizes strategy 7 collapses). *)
  let rec go cov =
    if is_tautology cov then { n = cov.n; cubes = [] }
    else if cov.cubes = [] then { n = cov.n; cubes = [ Cube.universe cov.n ] }
    else
      let v =
        List.find
          (fun v -> List.exists (fun c -> Cube.has_var c v) cov.cubes)
          (List.init cov.n (fun i -> i))
      in
      let f0 = go (cofactor cov v false) in
      let f1 = go (cofactor cov v true) in
      let lit0 = Cube.of_literals cov.n [ (v, false) ] in
      let lit1 = Cube.of_literals cov.n [ (v, true) ] in
      let attach lit c =
        match Cube.intersect lit c with Some x -> [ x ] | None -> []
      in
      {
        n = cov.n;
        cubes =
          List.concat_map (attach lit0) f0.cubes
          @ List.concat_map (attach lit1) f1.cubes;
      }
  in
  single_cube_containment (go t)

let to_string names t =
  if t.cubes = [] then "0"
  else String.concat " + " (List.map (Cube.to_string names) t.cubes)
