(* Truth tables for functions of up to 6 variables, packed into an int64.

   The paper's strategy-4/6 hash table keys functions of up to five
   variables into "a maximum of 32 bits -- a common computer word";
   [key32] reproduces exactly that.  Canonization under input permutation
   collapses the pin-ordering variants of Figure 10 into one entry. *)

type t = { vars : int; bits : int64 }

let max_vars = 6

let mask vars =
  if vars >= max_vars then -1L
  else Int64.sub (Int64.shift_left 1L (1 lsl vars)) 1L

let create vars bits =
  if vars < 0 || vars > max_vars then
    invalid_arg "Truth_table.create: vars out of range";
  { vars; bits = Int64.logand bits (mask vars) }

let vars t = t.vars
let bits t = t.bits

let of_fun vars f =
  if vars < 0 || vars > max_vars then
    invalid_arg "Truth_table.of_fun: vars out of range";
  let b = ref 0L in
  for m = 0 to (1 lsl vars) - 1 do
    let input = Array.init vars (fun i -> m land (1 lsl i) <> 0) in
    if f input then b := Int64.logor !b (Int64.shift_left 1L m)
  done;
  { vars; bits = !b }

let eval t input =
  let m = ref 0 in
  Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) input;
  Int64.logand (Int64.shift_right_logical t.bits !m) 1L = 1L

let eval_index t m =
  Int64.logand (Int64.shift_right_logical t.bits m) 1L = 1L

let const vars b = { vars; bits = (if b then mask vars else 0L) }

let var vars i =
  if i < 0 || i >= vars then invalid_arg "Truth_table.var: index out of range";
  of_fun vars (fun a -> a.(i))

let lognot t = { t with bits = Int64.logand (Int64.lognot t.bits) (mask t.vars) }

let binop op a b =
  if a.vars <> b.vars then invalid_arg "Truth_table: var count mismatch";
  { vars = a.vars; bits = Int64.logand (op a.bits b.bits) (mask a.vars) }

let logand = binop Int64.logand
let logor = binop Int64.logor
let logxor = binop Int64.logxor

let equal a b = a.vars = b.vars && Int64.equal a.bits b.bits
let compare a b = Stdlib.compare (a.vars, a.bits) (b.vars, b.bits)

let is_const t =
  if Int64.equal t.bits 0L then Some false
  else if Int64.equal t.bits (mask t.vars) then Some true
  else None

let cofactor t i value =
  of_fun t.vars (fun a ->
      let a = Array.copy a in
      a.(i) <- value;
      eval t a)

let depends_on t i = not (equal (cofactor t i false) (cofactor t i true))

let support t = List.filter (depends_on t) (List.init t.vars (fun i -> i))

let key32 t =
  if t.vars > 5 then invalid_arg "Truth_table.key32: more than 5 variables";
  (* Replicate the pattern so that the key of an n-var function equals the
     key of the same function seen with unused high variables: a constant
     extension, making lookups arity-insensitive. *)
  let block = 1 lsl t.vars in
  let b = ref 0L in
  let reps = 32 / block in
  for r = 0 to reps - 1 do
    b := Int64.logor !b (Int64.shift_left t.bits (r * block))
  done;
  Int64.to_int (Int64.logand !b 0xFFFFFFFFL)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) xs in
          List.map (fun p -> x :: p) (permutations rest))
        xs

(* [sources vars perm]: the gather table of [permute t perm], entry [m]
   being the minterm of [t] that minterm [m] of the result reads: new
   variable [i] feeds original variable [List.nth perm i], the last
   such [i] when two name the same variable, and an original variable
   nothing feeds reads [false]. *)
let sources vars perm =
  let feeder = Array.make vars (-1) in
  List.iteri
    (fun i v ->
      if i >= vars || v < 0 || v >= vars then
        invalid_arg "Truth_table.permute: variable out of range";
      feeder.(v) <- i)
    perm;
  Array.init (1 lsl vars) (fun m ->
      let s = ref 0 in
      Array.iteri
        (fun v i -> if i >= 0 && m land (1 lsl i) <> 0 then s := !s lor (1 lsl v))
        feeder;
      !s)

(* Bit [m] of the result is bit [src.(m)] of [bits]. *)
let gather bits src =
  let r = ref 0L in
  for m = 0 to Array.length src - 1 do
    if Int64.to_int (Int64.shift_right_logical bits src.(m)) land 1 = 1 then
      r := Int64.logor !r (Int64.shift_left 1L m)
  done;
  !r

let permute t perm =
  (* perm.(i) = which original variable feeds new position i *)
  { t with bits = gather t.bits (sources t.vars perm) }

(* Every permutation of an [n]-variable table's variables (n <= 5), in
   [permutations] order, with its gather table.  Built once, when the
   module initialises, and only read after, so every domain shares
   them. *)
let arity_perms =
  Array.init 6 (fun n ->
      List.map (fun p -> (p, sources n p)) (permutations (List.init n Fun.id)))

let canonical t =
  if t.vars > 5 then t
  else
    let bits =
      List.fold_left
        (fun best (_, src) ->
          let b = gather t.bits src in
          if Int64.compare b best < 0 then b else best)
        t.bits arity_perms.(t.vars)
    in
    { t with bits }

let find_permutation t target =
  if t.vars > 5 then
    invalid_arg "Truth_table.find_permutation: more than 5 variables";
  if target.vars <> t.vars then None
  else
    List.find_map
      (fun (p, src) ->
        if Int64.equal (gather t.bits src) target.bits then Some p else None)
      arity_perms.(t.vars)

let canonical_key t = key32 (canonical t)

let pp ppf t =
  Format.fprintf ppf "tt%d:%Lx" t.vars t.bits

let to_string t = Format.asprintf "%a" pp t
