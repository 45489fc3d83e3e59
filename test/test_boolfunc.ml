(* Boolean substrate tests: truth tables, cubes, covers. *)

open Milo_boolfunc

let tt_gen vars =
  QCheck2.Gen.map
    (fun bits -> Truth_table.create vars (Int64.of_int bits))
    (QCheck2.Gen.int_bound ((1 lsl min 30 (1 lsl vars)) - 1))

let small_tt = QCheck2.Gen.(int_range 1 5 >>= fun v -> tt_gen v)

let input_of_index vars m = Array.init vars (fun i -> m land (1 lsl i) <> 0)

let test_tt_basic () =
  let t = Truth_table.of_fun 2 (fun a -> a.(0) && a.(1)) in
  Alcotest.(check bool) "and 11" true (Truth_table.eval t [| true; true |]);
  Alcotest.(check bool) "and 01" false (Truth_table.eval t [| false; true |]);
  Alcotest.(check int) "vars" 2 (Truth_table.vars t);
  Alcotest.(check bool) "const none" true (Truth_table.is_const t = None);
  Alcotest.(check bool) "const true" true
    (Truth_table.is_const (Truth_table.const 3 true) = Some true)

let test_tt_ops () =
  let a = Truth_table.var 3 0 and b = Truth_table.var 3 1 in
  let t = Truth_table.logand a b in
  Alcotest.(check bool) "a&b" true
    (Truth_table.equal t (Truth_table.of_fun 3 (fun x -> x.(0) && x.(1))));
  let n = Truth_table.lognot t in
  Alcotest.(check bool) "double not" true
    (Truth_table.equal (Truth_table.lognot n) t);
  Alcotest.(check bool) "xor self" true
    (Truth_table.is_const (Truth_table.logxor a a) = Some false)

let test_tt_cofactor () =
  let t = Truth_table.of_fun 3 (fun a -> (a.(0) && a.(1)) || a.(2)) in
  let c1 = Truth_table.cofactor t 2 true in
  Alcotest.(check bool) "cofactor 1" true
    (Truth_table.is_const c1 = Some true);
  Alcotest.(check bool) "support" true (Truth_table.support t = [ 0; 1; 2 ]);
  Alcotest.(check bool) "depends" true (Truth_table.depends_on t 0);
  let u = Truth_table.of_fun 3 (fun a -> a.(1)) in
  Alcotest.(check bool) "no depend" false (Truth_table.depends_on u 0)

let test_key32 () =
  (* Same function seen at different arities keys identically. *)
  let f2 = Truth_table.of_fun 2 (fun a -> a.(0) && a.(1)) in
  let f3 = Truth_table.of_fun 3 (fun a -> a.(0) && a.(1)) in
  Alcotest.(check int) "arity-insensitive key" (Truth_table.key32 f2)
    (Truth_table.key32 f3)

let test_canonical () =
  (* mux(d0,d1,s) under the two data orders canonize identically after
     also permuting the select sense?  No — permutation only, so check a
     symmetric function instead and a permuted pair. *)
  let f = Truth_table.of_fun 3 (fun a -> (a.(0) && a.(1)) || a.(2)) in
  let g = Truth_table.of_fun 3 (fun a -> (a.(2) && a.(1)) || a.(0)) in
  Alcotest.(check bool) "permuted pair canonizes equal" true
    (Truth_table.equal (Truth_table.canonical f) (Truth_table.canonical g))

let prop_permute_preserves =
  Util.qtest "permute preserves function" small_tt (fun tt ->
      let vars = Truth_table.vars tt in
      let perm = List.init vars (fun i -> (i + 1) mod vars) in
      let p = Truth_table.permute tt perm in
      List.for_all
        (fun m ->
          let a = input_of_index vars m in
          let orig = Array.make vars false in
          List.iteri (fun i v -> orig.(v) <- a.(i)) perm;
          Truth_table.eval p a = Truth_table.eval tt orig)
        (List.init (1 lsl vars) (fun m -> m)))

let prop_canonical_idempotent =
  Util.qtest "canonical is idempotent" small_tt (fun tt ->
      let c = Truth_table.canonical tt in
      Truth_table.equal c (Truth_table.canonical c))

(* --- Bit gathers against the list-based reference ----------------------- *)

module Ref = Match_reference

let same_tables what a b =
  if not (Truth_table.equal a b) then
    Alcotest.failf "%s: %s, the reference %s" what (Truth_table.to_string a)
      (Truth_table.to_string b)

(* [permute], [canonical] and [canonical_key] on [tt] against the
   reference, [permute] under each of [perms]; with [search], also
   [find_permutation] toward the canonical table. *)
let check_against_reference ?(search = false) tt perms =
  let what = Truth_table.to_string tt in
  List.iter
    (fun p ->
      same_tables (what ^ " permuted") (Truth_table.permute tt p)
        (Ref.permute tt p))
    perms;
  let canon = Ref.canonical tt in
  same_tables (what ^ " canonical") (Truth_table.canonical tt) canon;
  Alcotest.(check int) (what ^ " canonical key") (Ref.canonical_key tt)
    (Truth_table.canonical_key tt);
  if search then
    let first =
      List.find_opt
        (fun p -> Truth_table.equal (Ref.permute tt p) canon)
        (Ref.permutations (List.init (Truth_table.vars tt) Fun.id))
    in
    if Truth_table.find_permutation tt canon <> first then
      Alcotest.failf "%s: find_permutation differs from the reference" what

let test_gathers_3var () =
  let perms = Ref.permutations [ 0; 1; 2 ] in
  for bits = 0 to 255 do
    check_against_reference ~search:true
      (Truth_table.create 3 (Int64.of_int bits))
      perms
  done

let test_gathers_random () =
  let rng = Random.State.make [| 28 |] in
  let perms vars = Array.of_list (Ref.permutations (List.init vars Fun.id)) in
  let perms = [| perms 4; perms 5 |] in
  for i = 1 to 10_000 do
    let vars = 4 + (i land 1) in
    let tt = Truth_table.create vars (Random.State.int64 rng Int64.max_int) in
    let ps = perms.(vars - 4) in
    check_against_reference tt [ ps.(Random.State.int rng (Array.length ps)) ]
  done

let prop_cover_roundtrip =
  Util.qtest "cover of tt evaluates like tt" small_tt (fun tt ->
      let c = Cover.of_truth_table tt in
      let vars = Truth_table.vars tt in
      List.for_all
        (fun m -> Cover.eval_index c m = Truth_table.eval_index tt m)
        (List.init (1 lsl vars) (fun m -> m)))

let prop_complement =
  Util.qtest "complement is pointwise negation" small_tt (fun tt ->
      let c = Cover.of_truth_table tt in
      let nc = Cover.complement c in
      let vars = Truth_table.vars tt in
      List.for_all
        (fun m -> Cover.eval_index nc m = not (Cover.eval_index c m))
        (List.init (1 lsl vars) (fun m -> m)))

let prop_tautology =
  Util.qtest "tautology iff constant true" small_tt (fun tt ->
      let c = Cover.of_truth_table tt in
      Cover.is_tautology c = (Truth_table.is_const tt = Some true))

let test_cube_ops () =
  let c = Cube.of_literals 4 [ (0, true); (2, false) ] in
  Alcotest.(check int) "lits" 2 (Cube.literal_count c);
  Alcotest.(check bool) "eval" true (Cube.eval c [| true; false; false; true |]);
  Alcotest.(check bool) "eval f" false (Cube.eval c [| true; false; true; true |]);
  let u = Cube.universe 4 in
  Alcotest.(check bool) "universe contains" true (Cube.contains u c);
  Alcotest.(check bool) "not contains" false (Cube.contains c u);
  let d = Cube.of_literals 4 [ (0, false) ] in
  Alcotest.(check bool) "disjoint" true (Cube.intersect c d = None)

let test_consensus () =
  let a = Cube.of_literals 3 [ (0, true); (1, true) ] in
  let b = Cube.of_literals 3 [ (0, true); (1, false) ] in
  (match Cube.consensus_merge a b with
  | Some m ->
      Alcotest.(check bool) "merged drops var" true
        (Cube.equal m (Cube.of_literals 3 [ (0, true) ]))
  | None -> Alcotest.fail "expected merge");
  let c = Cube.of_literals 3 [ (0, true); (2, true) ] in
  Alcotest.(check bool) "no merge different support" true
    (Cube.consensus_merge a c = None)

let test_minterms () =
  let c = Cube.of_literals 3 [ (1, true) ] in
  Alcotest.(check (list int)) "minterms of x1" [ 2; 3; 6; 7 ]
    (List.sort compare (Cube.minterms c))

let prop_cube_index_eval =
  Util.qtest "eval_index consistent with eval"
    QCheck2.Gen.(
      pair (int_range 1 5)
        (pair (int_bound 1023) (int_bound 1023)))
    (fun (n, (posr, negr)) ->
      let mask = (1 lsl n) - 1 in
      let pos = posr land mask in
      let neg = negr land mask land lnot pos in
      let lits =
        List.concat
          (List.init n (fun v ->
               (if pos land (1 lsl v) <> 0 then [ (v, true) ] else [])
               @ if neg land (1 lsl v) <> 0 then [ (v, false) ] else []))
      in
      let c = Milo_boolfunc.Cube.of_literals n lits in
      List.for_all
        (fun m ->
          Milo_boolfunc.Cube.eval_index c m
          = Milo_boolfunc.Cube.eval c (input_of_index n m))
        (List.init (1 lsl n) (fun m -> m)))

let () =
  Alcotest.run "boolfunc"
    [
      ( "truth-table",
        [
          Alcotest.test_case "basics" `Quick test_tt_basic;
          Alcotest.test_case "ops" `Quick test_tt_ops;
          Alcotest.test_case "cofactor/support" `Quick test_tt_cofactor;
          Alcotest.test_case "key32" `Quick test_key32;
          Alcotest.test_case "canonical" `Quick test_canonical;
          Alcotest.test_case "gathers equal the reference, 3 vars" `Quick
            test_gathers_3var;
          Alcotest.test_case "gathers equal the reference, random 4-5 vars"
            `Quick test_gathers_random;
          prop_permute_preserves;
          prop_canonical_idempotent;
        ] );
      ( "cube",
        [
          Alcotest.test_case "ops" `Quick test_cube_ops;
          Alcotest.test_case "consensus" `Quick test_consensus;
          Alcotest.test_case "minterms" `Quick test_minterms;
          prop_cube_index_eval;
        ] );
      ( "cover",
        [ prop_cover_roundtrip; prop_complement; prop_tautology ] );
    ]
