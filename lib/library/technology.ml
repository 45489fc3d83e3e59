(* A technology: a named set of macros with the indexes the optimizers
   need — in particular the truth-table hash index the paper's strategies
   4 and 6 use ("lookup in the hash table is accomplished through a key
   that is the truth table entry for a particular function"). *)

open Milo_boolfunc
module D = Milo_netlist.Design
module T = Milo_netlist.Types

type t = {
  tech_name : string;
  macros : (string, Macro.t) Hashtbl.t;
  order : string list;
  func_index : (int, string list) Hashtbl.t;
      (* canonical key32 -> single-output combinational macros *)
  variants : (string, string list) Hashtbl.t;
      (* base family name -> members ordered by power level *)
  matches : (int * int64, (Macro.t * int list) list) Hashtbl.t;
      (* memo of [matches_for] by target table (vars, bits); the macros
         never change, so an entry never goes stale *)
  matches_lock : Mutex.t;  (* pool domains share a technology *)
}

let create tech_name macro_list =
  let macros = Hashtbl.create 64 in
  let func_index = Hashtbl.create 64 in
  let variants = Hashtbl.create 64 in
  List.iter
    (fun (m : Macro.t) ->
      if Hashtbl.mem macros m.Macro.mname then
        invalid_arg
          (Printf.sprintf "Technology.create: duplicate macro %s" m.Macro.mname);
      Hashtbl.replace macros m.Macro.mname m;
      (match Macro.single_output_tt m with
      | Some tt when Truth_table.vars tt <= 5 ->
          let key = Truth_table.canonical_key tt in
          let prev = Option.value ~default:[] (Hashtbl.find_opt func_index key) in
          Hashtbl.replace func_index key (prev @ [ m.Macro.mname ])
      | Some _ | None -> ());
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt variants m.Macro.base_name)
      in
      Hashtbl.replace variants m.Macro.base_name (prev @ [ m.Macro.mname ]))
    macro_list;
  {
    tech_name;
    macros;
    order = List.map Macro.name macro_list;
    func_index;
    variants;
    matches = Hashtbl.create 64;
    matches_lock = Mutex.create ();
  }

let name t = t.tech_name
let mem t mname = Hashtbl.mem t.macros mname

let find t mname =
  match Hashtbl.find_opt t.macros mname with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Technology.find: no macro %s in library %s" mname
           t.tech_name)

let find_opt t mname = Hashtbl.find_opt t.macros mname
let all t = List.map (find t) t.order

(* Resolver for the netlist layer: pin interfaces of Macro references.
   Instance references must be resolved by the design database, so a
   second resolver can be chained in. *)
let resolver ?instance t : D.resolver =
 fun kind nm ->
  match kind with
  | T.Macro _ -> (find t nm).Macro.pins
  | T.Instance _ -> (
      match instance with
      | Some f -> f nm
      | None ->
          invalid_arg
            (Printf.sprintf "Technology.resolver: unresolved instance %s" nm))
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Register _ | T.Constant _ | T.Counter _ ->
      T.pins_of_kind kind

(* All macros matching a target function, with the input permutation
   that realizes it: [perm] maps macro input index -> target variable.
   The canonical key narrows the library to the target's permutation
   class; [Truth_table.find_permutation] then gathers the target's bits
   under each permutation of its arity, in order, from the tables
   [Truth_table.canonical] reads too, until one gives the macro's
   table. *)
let search_matches t tt =
  let key = Truth_table.canonical_key tt in
  let candidates = Option.value ~default:[] (Hashtbl.find_opt t.func_index key) in
  List.filter_map
    (fun mname ->
      let m = find t mname in
      match Macro.single_output_tt m with
      | None -> None
      | Some mtt ->
          Option.map (fun p -> (m, p)) (Truth_table.find_permutation tt mtt))
    candidates

(* The search canonizes over every input permutation, and the matchers
   ask about the same few functions again and again, so each answer is
   kept.  A miss is computed outside the lock; two domains racing on
   one key compute equal lists. *)
let matches_for t tt =
  if Truth_table.vars tt > 5 then []
  else
    let key = (Truth_table.vars tt, Truth_table.bits tt) in
    match
      Mutex.protect t.matches_lock (fun () -> Hashtbl.find_opt t.matches key)
    with
    | Some ms -> ms
    | None ->
        let ms = search_matches t tt in
        Mutex.protect t.matches_lock (fun () -> Hashtbl.replace t.matches key ms);
        ms

let power_variants t base =
  Option.value ~default:[] (Hashtbl.find_opt t.variants base)

let high_power_variant t mname =
  match find_opt t mname with
  | None -> None
  | Some m ->
      if m.Macro.power_level = Macro.High then None
      else
        power_variants t m.Macro.base_name
        |> List.filter_map (fun nm ->
               let v = find t nm in
               if v.Macro.power_level = Macro.High then Some v else None)
        |> function
        | [] -> None
        | v :: _ -> Some v

let standard_variant t mname =
  match find_opt t mname with
  | None -> None
  | Some m ->
      if m.Macro.power_level = Macro.Standard then None
      else
        power_variants t m.Macro.base_name
        |> List.filter_map (fun nm ->
               let v = find t nm in
               if v.Macro.power_level = Macro.Standard then Some v else None)
        |> function
        | [] -> None
        | v :: _ -> Some v

(* Largest available arity for a simple gate family, used by the tree
   builders ("Find an OR gate in the database with num_or_inputs such
   that num_or_inputs <= num_left_over_outputs"). *)
let gate_arities t prefix =
  List.filter_map
    (fun mname ->
      let p = String.length prefix in
      if String.length mname > p && String.sub mname 0 p = prefix then
        int_of_string_opt (String.sub mname p (String.length mname - p))
      else None)
    t.order
  |> List.sort_uniq compare

let macro_gates t mname =
  match find_opt t mname with Some m -> m.Macro.gates | None -> 1.0

let once f =
  let cell = Atomic.make None in
  let lock = Mutex.create () in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
        Mutex.protect lock (fun () ->
            match Atomic.get cell with
            | Some v -> v
            | None ->
                let v = f () in
                Atomic.set cell (Some v);
                v)
