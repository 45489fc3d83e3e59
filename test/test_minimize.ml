(* Two-level minimization and algebraic factoring tests. *)

open Milo_boolfunc

(* All [1 lsl vars] bits of the table: at most 32 for the 5 variables
   of [small_tt], which fits an int. *)
let tt_gen vars =
  QCheck2.Gen.map
    (fun bits -> Truth_table.create vars (Int64.of_int bits))
    (QCheck2.Gen.int_bound ((1 lsl (1 lsl vars)) - 1))

let small_tt = QCheck2.Gen.(int_range 1 5 >>= fun v -> tt_gen v)

let on_set tt =
  let vars = Truth_table.vars tt in
  List.filter (Truth_table.eval_index tt) (List.init (1 lsl vars) (fun m -> m))

let test_qm_known () =
  (* f = x'y' + xy over 2 vars: both minterms prime, cover size 2 *)
  let cover = Milo_minimize.Quine.minimize ~vars:2 ~on:[ 0; 3 ] ~dc:[] in
  Alcotest.(check int) "xnor cover" 2 (Cover.size cover);
  (* f = sum of all minterms = constant 1: one empty cube *)
  let cover = Milo_minimize.Quine.minimize ~vars:2 ~on:[ 0; 1; 2; 3 ] ~dc:[] in
  Alcotest.(check int) "tautology 1 cube" 1 (Cover.size cover);
  Alcotest.(check int) "tautology 0 lits" 0 (Cover.literal_count cover)

let test_qm_dontcare () =
  (* 7-segment style: dc shrinks the cover *)
  let without = Milo_minimize.Quine.minimize ~vars:3 ~on:[ 1; 3 ] ~dc:[] in
  let with_dc = Milo_minimize.Quine.minimize ~vars:3 ~on:[ 1; 3 ] ~dc:[ 5; 7 ] in
  Alcotest.(check bool) "dc no worse" true
    (Cover.literal_count with_dc <= Cover.literal_count without)

let prop_qm_equivalent =
  Util.qtest ~count:150 "QM minimization preserves function" small_tt (fun tt ->
      let vars = Truth_table.vars tt in
      let cover = Milo_minimize.Quine.minimize ~vars ~on:(on_set tt) ~dc:[] in
      List.for_all
        (fun m -> Cover.eval_index cover m = Truth_table.eval_index tt m)
        (List.init (1 lsl vars) (fun m -> m)))

let prop_qm_primes_cover =
  Util.qtest ~count:100 "every on-minterm is in some prime" small_tt (fun tt ->
      let vars = Truth_table.vars tt in
      let on = on_set tt in
      let primes = Milo_minimize.Quine.primes ~vars ~on ~dc:[] in
      List.for_all
        (fun m -> List.exists (fun p -> Cube.eval_index p m) primes)
        on)

let prop_qm_minimal_vs_naive =
  Util.qtest ~count:100 "QM no bigger than the minterm cover" small_tt
    (fun tt ->
      let vars = Truth_table.vars tt in
      let on = on_set tt in
      let cover = Milo_minimize.Quine.minimize ~vars ~on ~dc:[] in
      Cover.size cover <= List.length on)

let prop_espresso_equivalent =
  Util.qtest ~count:100 "espresso heuristic preserves function" small_tt
    (fun tt ->
      let c = Cover.of_truth_table tt in
      let m = Milo_minimize.Espresso.minimize c in
      let vars = Truth_table.vars tt in
      List.for_all
        (fun i -> Cover.eval_index m i = Truth_table.eval_index tt i)
        (List.init (1 lsl vars) (fun i -> i)))

let prop_espresso_no_growth =
  Util.qtest ~count:100 "espresso never grows the cover" small_tt (fun tt ->
      let c = Cover.of_truth_table tt in
      let m = Milo_minimize.Espresso.minimize c in
      Cover.size m <= Cover.size c)

(* --- Algebraic division ------------------------------------------------ *)

let alg_of_cubes n cubess =
  ignore n;
  List.map Milo_minimize.Division.cube_of_list cubess

let test_divide_known () =
  let open Milo_minimize.Division in
  (* f = ab + ac + d ; divide by (b + c): q = a, r = d *)
  let a = lit_pos 0 and b = lit_pos 1 and c = lit_pos 2 and d = lit_pos 3 in
  let f = alg_of_cubes 4 [ [ a; b ]; [ a; c ]; [ d ] ] in
  let dv = alg_of_cubes 4 [ [ b ]; [ c ] ] in
  let q, r = divide f dv in
  Alcotest.(check bool) "quotient a" true (List.map literals q = [ [ a ] ]);
  Alcotest.(check bool) "remainder d" true (List.map literals r = [ [ d ] ])

let test_kernels_known () =
  let open Milo_minimize.Division in
  (* f = ab + ac: kernel {b + c} with co-kernel a *)
  let a = lit_pos 0 and b = lit_pos 1 and c = lit_pos 2 in
  let f = alg_of_cubes 3 [ [ a; b ]; [ a; c ] ] in
  let ks = kernels f in
  Alcotest.(check bool) "found b+c kernel" true
    (List.exists
       (fun (_, k) -> List.map literals (dedup k) = [ [ b ]; [ c ] ])
       ks)

let prop_divide_recompose =
  (* f = d*q + r algebraically: every cube of d*q and r is a cube of f *)
  Util.qtest ~count:100 "division recomposes" small_tt (fun tt ->
      let cover = Milo_minimize.Espresso.minimize (Cover.of_truth_table tt) in
      let f = Milo_minimize.Division.of_cover cover in
      match Milo_minimize.Division.best_kernel f with
      | None -> true
      | Some d ->
          let q, r = Milo_minimize.Division.divide f d in
          let products =
            List.concat_map
              (fun qc ->
                List.map (fun dc -> Milo_minimize.Division.cube_union qc dc) d)
              q
          in
          List.for_all (fun c -> List.mem c f) (products @ r)
          && List.length products + List.length r = List.length f)

let prop_factor_equivalent =
  Util.qtest ~count:150 "factored expression preserves function" small_tt
    (fun tt ->
      let cover = Milo_minimize.Espresso.minimize (Cover.of_truth_table tt) in
      let expr = Milo_minimize.Factor.of_cover cover in
      let vars = Truth_table.vars tt in
      List.for_all
        (fun m ->
          let a = Array.init vars (fun i -> m land (1 lsl i) <> 0) in
          Milo_minimize.Factor.eval (fun v -> a.(v)) expr
          = Truth_table.eval_index tt m)
        (List.init (1 lsl vars) (fun m -> m)))

let prop_factor_no_more_literals =
  Util.qtest ~count:100 "factoring never adds literals" small_tt (fun tt ->
      let cover = Milo_minimize.Espresso.minimize (Cover.of_truth_table tt) in
      let expr = Milo_minimize.Factor.of_cover cover in
      Milo_minimize.Factor.literal_count expr <= Cover.literal_count cover)

(* --- Differential against the list-based reference ---------------------- *)

module F = Milo_minimize.Factor
module RF = Factor_reference.Factor

let rec of_reference : RF.expr -> F.expr = function
  | RF.Const b -> F.Const b
  | RF.Lit (v, p) -> F.Lit (v, p)
  | RF.And_e es -> F.And_e (List.map of_reference es)
  | RF.Or_e es -> F.Or_e (List.map of_reference es)
  | RF.Not_e e -> F.Not_e (of_reference e)

let same_factoring cover = F.of_cover cover = of_reference (RF.of_cover cover)

let qm cover =
  let vars = Cover.n cover in
  Milo_minimize.Quine.minimize ~vars ~on:(Cover.minterms cover) ~dc:[]

let parity vars =
  let rec odd m = m <> 0 && (m land 1 = 1) <> odd (m lsr 1) in
  Milo_minimize.Quine.minimize ~vars
    ~on:(List.filter odd (List.init (1 lsl vars) Fun.id))
    ~dc:[]

let test_parity_matches_reference () =
  for vars = 4 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "parity%d" vars)
      true
      (same_factoring (parity vars))
  done

(* Covers of 1-10 variables, 0-16 cubes, each variable absent, positive
   or negative in a cube with equal odds. *)
let cover_gen =
  QCheck2.Gen.(
    int_range 1 10 >>= fun vars ->
    list_size (int_bound 16) (list_repeat vars (int_bound 2)) >|= fun cubes ->
    Cover.create vars
      (List.map
         (fun picks ->
           Cube.of_literals vars
             (List.concat
                (List.mapi
                   (fun v k -> if k = 0 then [] else [ (v, k = 1) ])
                   picks)))
         cubes))

let prop_matches_reference =
  Util.qtest ~count:500 ~print:(Cover.to_string (Printf.sprintf "x%d"))
    "factoring equals the list-based reference, raw and QM-minimized"
    cover_gen (fun cover -> same_factoring cover && same_factoring (qm cover))

(* Cube order is [compare] on sorted literal lists, for every pair of
   cubes over the lowest 10 literal ids and over the highest 10. *)
let test_cube_order () =
  let module Dv = Milo_minimize.Division in
  List.iter
    (fun low ->
      let lists =
        Array.init 1024 (fun m ->
            List.filter_map
              (fun i -> if m land (1 lsl i) <> 0 then Some (low + i) else None)
              (List.init 10 Fun.id))
      in
      let cubes = Array.map Dv.cube_of_list lists in
      let bad = ref 0 in
      for a = 0 to 1023 do
        for b = 0 to 1023 do
          if Int.compare (Dv.compare cubes.(a) cubes.(b)) 0
             <> Int.compare (compare lists.(a) lists.(b)) 0
          then incr bad
        done
      done;
      Alcotest.(check int)
        (Printf.sprintf "pairs over ids %d-%d ordered unlike their lists" low
           (low + 9))
        0 !bad)
    [ 0; 52 ]

(* Literal ids 0-61 fill one int: 31 variables factor, 32 are refused. *)
let test_width () =
  let cover vars =
    let top = vars - 1 in
    Cover.create vars
      [
        Cube.of_literals vars [ (0, true); (top, false) ];
        Cube.of_literals vars [ (1, true); (top, false) ];
        Cube.of_literals vars [ (top, true) ];
      ]
  in
  Alcotest.(check bool) "31 variables" true (same_factoring (cover 31));
  Alcotest.check_raises "32 variables"
    (Invalid_argument "Division.of_cover: more than 31 variables") (fun () ->
      ignore (Milo_minimize.Division.of_cover (cover 32)))

let test_covering_exact_beats_greedy () =
  (* Covering problem where greedy is suboptimal is hard to set up with
     cubes; just check exact solves a simple instance minimally. *)
  let c01 = Cube.of_literals 2 [ (1, false) ] in
  (* covers minterms 0,1 *)
  let c23 = Cube.of_literals 2 [ (1, true) ] in
  let sol =
    Milo_minimize.Covering.solve ~candidates:[ c01; c23 ] ~targets:[ 0; 1; 2; 3 ] ()
  in
  Alcotest.(check int) "two cubes" 2 (List.length sol)

let () =
  Alcotest.run "minimize"
    [
      ( "quine",
        [
          Alcotest.test_case "known" `Quick test_qm_known;
          Alcotest.test_case "dontcare" `Quick test_qm_dontcare;
          prop_qm_equivalent;
          prop_qm_primes_cover;
          prop_qm_minimal_vs_naive;
        ] );
      ("espresso", [ prop_espresso_equivalent; prop_espresso_no_growth ]);
      ( "division",
        [
          Alcotest.test_case "divide" `Quick test_divide_known;
          Alcotest.test_case "kernels" `Quick test_kernels_known;
          prop_divide_recompose;
        ] );
      ( "factor",
        [
          prop_factor_equivalent;
          prop_factor_no_more_literals;
          Alcotest.test_case "parity 4-9 equals the reference" `Slow
            test_parity_matches_reference;
          prop_matches_reference;
          Alcotest.test_case "cube order" `Quick test_cube_order;
          Alcotest.test_case "31-variable limit" `Quick test_width;
        ] );
      ( "covering",
        [ Alcotest.test_case "exact" `Quick test_covering_exact_beats_greedy ]
      );
    ]
