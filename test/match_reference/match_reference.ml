(* Input-permutation matching as it was before bit gathers: every
   permuted table is rebuilt minterm by minterm through [of_fun] and
   [eval], one array per minterm.  Slow and obviously right; only the
   differential tests use it. *)

module TT = Milo_boolfunc.Truth_table
module Tech = Milo_library.Technology
module Macro = Milo_library.Macro

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) xs in
          List.map (fun p -> x :: p) (permutations rest))
        xs

let permute t perm =
  (* perm.(i) = which original variable feeds new position i *)
  TT.of_fun (TT.vars t) (fun a ->
      let orig = Array.make (TT.vars t) false in
      List.iteri (fun i v -> orig.(v) <- a.(i)) perm;
      TT.eval t orig)

let canonical t =
  if TT.vars t > 5 then t
  else
    let perms = permutations (List.init (TT.vars t) (fun i -> i)) in
    List.fold_left
      (fun best p ->
        let cand = permute t p in
        if TT.compare cand best < 0 then cand else best)
      t perms

let canonical_key t = TT.key32 (canonical t)

(* [Technology.create]'s index: single-output macros of at most five
   inputs by canonical key, in library order. *)
let func_index tech =
  let index = Hashtbl.create 64 in
  List.iter
    (fun (m : Macro.t) ->
      match Macro.single_output_tt m with
      | Some tt when TT.vars tt <= 5 ->
          let key = canonical_key tt in
          let prev = Option.value ~default:[] (Hashtbl.find_opt index key) in
          Hashtbl.replace index key (prev @ [ m.Macro.mname ])
      | Some _ | None -> ())
    (Tech.all tech);
  index

(* What [Technology.matches_for] answers: the macros whose table has
   the target's canonical key, in library order, each with the first
   permutation that turns the target into the macro's table. *)
let search_matches tech =
  let index = func_index tech in
  fun tt ->
    if TT.vars tt > 5 then []
    else
      let key = canonical_key tt in
      let candidates = Option.value ~default:[] (Hashtbl.find_opt index key) in
      List.filter_map
        (fun mname ->
          let m = Tech.find tech mname in
          match Macro.single_output_tt m with
          | None -> None
          | Some mtt ->
              if TT.vars mtt <> TT.vars tt then None
              else
                let nv = TT.vars tt in
                let perms = permutations (List.init nv (fun i -> i)) in
                let found =
                  List.find_opt (fun p -> TT.equal (permute tt p) mtt) perms
                in
                Option.map (fun p -> (m, p)) found)
        candidates
