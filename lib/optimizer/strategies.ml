(* The eight timing strategies of Section 4 (Figure 9).

   Each strategy takes the current timing analysis and a critical path
   and attempts one local transformation; the caller measures and keeps
   or undoes it.  Cost/gain profile, per the paper:

     1 swap equivalent signals      no cost, tiny gain
     2 high-power macro (ECL)       power up, small gain
     3 factor the critical input    area varies, small gain
     4 better macro, no cost        hash-table lookup, moderate gain
     5 duplicate shared logic       area/power up, small gain
     6 better macro, with cost      area/power up, moderate gain
     7 collapse to 2-level + weak   most expensive, large gain
       division re-factoring
     8 duplicate logic with mux     large gain, large cost *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Macro = Milo_library.Macro
module Tech = Milo_library.Technology
module Sta = Milo_timing.Sta
open Milo_boolfunc

type result = Applied of string | Not_applicable

(* Hops of the path, endpoint side first (deepest logic first). *)
let path_hops (p : Sta.path) = List.rev p.Sta.hops

(* --- Strategy 1: swap equivalent signals ----------------------------- *)

let swap_signals ctx (sta : Sta.t) (path : Sta.path) log =
  let try_hop (h : Sta.hop) =
    match D.comp_opt ctx.R.design h.Sta.comp with
    | None -> None
    | Some c -> (
        match R.macro_of ctx c with
        | None -> None
        | Some m ->
            let group =
              List.find_opt (fun g -> List.mem h.Sta.in_pin g) m.Macro.symmetric
            in
            (match group with
            | None -> None
            | Some g ->
                let arr pin =
                  match D.connection ctx.R.design c.D.id pin with
                  | Some nid ->
                      Option.value ~default:0.0 (Sta.net_arrival sta nid)
                  | None -> 0.0
                in
                let arc pin = Macro.arc_delay_opt m pin h.Sta.out_pin in
                let crit_pin = h.Sta.in_pin in
                let crit_through pin =
                  match arc pin with
                  | Some d -> arr crit_pin +. d
                  | None -> infinity
                in
                let current = crit_through crit_pin in
                (* Find a symmetric pin with a faster arc whose present
                   signal arrives earlier than the critical one. *)
                let cand =
                  List.find_opt
                    (fun pin ->
                      pin <> crit_pin
                      && crit_through pin < current -. 1e-9
                      && arr pin <= arr crit_pin)
                    g
                in
                (match cand with
                | None -> None
                | Some pin ->
                    let n1 = D.connection ctx.R.design c.D.id crit_pin in
                    let n2 = D.connection ctx.R.design c.D.id pin in
                    (match (n1, n2) with
                    | Some a, Some b when a <> b ->
                        D.connect ~log ctx.R.design c.D.id crit_pin b;
                        D.connect ~log ctx.R.design c.D.id pin a;
                        Some (Printf.sprintf "swap %s.%s<->%s" c.D.cname crit_pin pin)
                    | _ -> None))))
  in
  let rec go = function
    | [] -> Not_applicable
    | h :: rest -> (
        match try_hop h with Some msg -> Applied msg | None -> go rest)
  in
  go (path_hops path)

(* --- Strategy 2: high-power macro ------------------------------------ *)

let high_power ctx (_sta : Sta.t) (path : Sta.path) log =
  let try_hop (h : Sta.hop) =
    match D.comp_opt ctx.R.design h.Sta.comp with
    | None -> None
    | Some c -> (
        match R.macro_of ctx c with
        | Some m when m.Macro.power_level = Macro.Standard -> (
            match Tech.high_power_variant ctx.R.tech m.Macro.mname with
            | Some hv ->
                D.set_kind ~log ctx.R.design c.D.id (T.Macro hv.Macro.mname);
                Some (Printf.sprintf "power-up %s" c.D.cname)
            | None -> None)
        | Some _ | None -> None)
  in
  let rec go = function
    | [] -> Not_applicable
    | h :: rest -> (
        match try_hop h with Some msg -> Applied msg | None -> go rest)
  in
  go (path_hops path)

(* --- Strategy 3: factorization for timing ----------------------------- *)

let assoc_fn = function
  | T.And | T.Or | T.Xor -> true
  | T.Nand | T.Nor | T.Xnor | T.Inv | T.Buf -> false

(* Maximal same-function single-fanout tree rooted at [root]; returns
   (leaf nets, member comp ids). *)
let collect_chain ctx fn root =
  let leaves = ref [] and members = ref [] in
  let rec grow (c : D.comp) =
    members := c.D.id :: !members;
    let m = Option.get (R.macro_of ctx c) in
    List.iter
      (fun pin ->
        match D.connection ctx.R.design c.D.id pin with
        | None -> ()
        | Some nid -> (
            match R.driver_comp ctx nid with
            | Some (dc, _)
              when R.fanout ctx nid = 1 && not (R.net_is_port ctx nid) -> (
                match R.macro_of ctx dc with
                | Some dm -> (
                    match Milo_critic.Gate_shape.of_macro dm with
                    | Some { Milo_critic.Gate_shape.fn = dfn; _ } when dfn = fn
                      ->
                        grow dc
                    | Some _ | None -> leaves := nid :: !leaves)
                | None -> leaves := nid :: !leaves)
            | Some _ | None -> leaves := nid :: !leaves))
      m.Macro.inputs
  in
  grow root;
  (List.rev !leaves, !members)

(* Rebuild an associative chain as an arrival-driven (Huffman) balanced
   tree of 2-input gates: combine the two earliest signals first, so the
   latest leaf passes through as few gates as possible. *)
let rebalance_chain ctx (sta : Sta.t) log (root : D.comp) fn =
  let leaves, members = collect_chain ctx fn root in
  if List.length leaves < 3 || List.length members < 2 then None
  else
    let out =
      let m = Option.get (R.macro_of ctx root) in
      D.connection ctx.R.design root.D.id (List.nth m.Macro.outputs 0)
    in
    match out with
    | None -> None
    | Some onet ->
        let arr nid = Option.value ~default:0.0 (Sta.net_arrival sta nid) in
        let queue = ref (List.map (fun n -> (arr n, n)) leaves) in
        let pop () =
          let sorted = List.sort compare !queue in
          match sorted with
          | a :: b :: rest ->
              queue := rest;
              Some (a, b)
          | [ _ ] | [] -> None
        in
        R.remove_comp_and_dangling ctx log root.D.id;
        List.iter
          (fun cid ->
            if D.comp_opt ctx.R.design cid <> None then
              R.remove_comp_and_dangling ctx log cid)
          members;
        if D.net_opt ctx.R.design onet = None then None
        else begin
          let rec build () =
            match pop () with
            | Some ((a1, n1), (a2, n2)) ->
                let g =
                  Milo_compilers.Gate_comp.build ~log ctx.R.design ctx.R.set fn
                    [ n1; n2 ]
                in
                queue := (Float.max a1 a2 +. 1.0, g) :: !queue;
                build ()
            | None -> (
                match !queue with
                | [ (_, n) ] -> n
                | _ -> assert false)
          in
          let src = build () in
          R.merge_net_into ctx log ~src ~dst:onet;
          Some "rebalance"
        end

let factor_isolate ctx (_sta : Sta.t) (path : Sta.path) log =
  let assoc = assoc_fn in
  let try_hop (h : Sta.hop) =
    match D.comp_opt ctx.R.design h.Sta.comp with
    | None -> None
    | Some c -> (
        match R.macro_of ctx c with
        | None -> None
        | Some m -> (
            match Milo_critic.Gate_shape.of_macro m with
            | Some { Milo_critic.Gate_shape.fn; arity }
              when assoc fn && arity >= 3 -> (
                let idx =
                  match
                    int_of_string_opt
                      (String.sub h.Sta.in_pin 1 (String.length h.Sta.in_pin - 1))
                  with
                  | Some i -> i
                  | None -> -1
                in
                if idx < 0 then None
                else
                  let ins =
                    List.filter_map
                      (fun i ->
                        D.connection ctx.R.design c.D.id (Printf.sprintf "A%d" i))
                      (List.init arity (fun i -> i))
                  in
                  match
                    ( List.length ins = arity,
                      D.connection ctx.R.design c.D.id
                        (List.nth m.Macro.outputs 0) )
                  with
                  | true, Some onet ->
                      let late = List.nth ins idx in
                      let rest = List.filteri (fun i _ -> i <> idx) ins in
                      R.remove_comp_and_dangling ctx log c.D.id;
                      if D.net_opt ctx.R.design onet <> None then begin
                        let inner =
                          Milo_compilers.Gate_comp.build ~log ctx.R.design
                            ctx.R.set fn rest
                        in
                        let src =
                          Milo_compilers.Gate_comp.build ~log ctx.R.design
                            ctx.R.set fn [ inner; late ]
                        in
                        R.merge_net_into ctx log ~src ~dst:onet
                      end;
                      Some (Printf.sprintf "factor %s" c.D.cname)
                  | _, _ -> None)
            | Some _ | None -> None))
  in
  let rec go = function
    | [] -> Not_applicable
    | h :: rest -> (
        match try_hop h with Some msg -> Applied msg | None -> go rest)
  in
  go (path_hops path)

let factor_path ctx (sta : Sta.t) (path : Sta.path) log =
  let assoc = assoc_fn in
  (* First preference: rebalance the deepest same-function chain on the
     path ("using factorization along the entire critical path can add
     up"). *)
  let try_rebalance (h : Sta.hop) =
    match D.comp_opt ctx.R.design h.Sta.comp with
    | None -> None
    | Some c -> (
        match R.macro_of ctx c with
        | None -> None
        | Some m -> (
            match Milo_critic.Gate_shape.of_macro m with
            | Some { Milo_critic.Gate_shape.fn; _ } when assoc fn ->
                rebalance_chain ctx sta log c fn
            | Some _ | None -> None))
  in
  let rec first f = function
    | [] -> None
    | x :: rest -> ( match f x with Some r -> Some r | None -> first f rest)
  in
  match first try_rebalance (path_hops path) with
  | Some msg -> Applied msg
  | None -> factor_isolate ctx sta path log

(* --- Strategies 4 and 6: hash-table macro selection ------------------- *)

(* Replace a small cone by a single library macro with the same function
   (looked up through the 32-bit truth-table key).  [allow_cost]
   distinguishes strategy 6 from strategy 4. *)
let macro_select ~allow_cost ctx (_sta : Sta.t) (path : Sta.path) log =
  let try_hop (h : Sta.hop) =
    match D.comp_opt ctx.R.design h.Sta.comp with
    | None -> None
    | Some c -> (
        match R.macro_of ctx c with
        | None -> None
        | Some m -> (
            match D.connection ctx.R.design c.D.id (List.nth m.Macro.outputs 0) with
            | None -> None
            | Some onet -> (
                match Milo_rules.Cone.extract ctx ~max_leaves:5 onet with
                | None -> None
                | Some cone when List.length cone.Milo_rules.Cone.comps < 2 -> None
                | Some cone -> (
                    match Milo_rules.Cone.truth_table ctx cone with
                    | None -> None
                    | Some tt -> (
                        let old_area = Milo_rules.Cone.area ctx cone in
                        let matches = Tech.matches_for ctx.R.tech tt in
                        let viable =
                          List.filter
                            (fun (cand, _) ->
                              allow_cost || cand.Macro.area <= old_area +. 1e-9)
                            matches
                        in
                        match viable with
                        | [] -> None
                        | (cand, perm) :: _ ->
                            let ok =
                              Milo_rules.Cone.replace ctx log cone ~build:(fun () ->
                                  let cid =
                                    D.add_comp ~log ctx.R.design
                                      (T.Macro cand.Macro.mname)
                                  in
                                  List.iteri
                                    (fun i pin ->
                                      let v = List.nth perm i in
                                      D.connect ~log ctx.R.design cid pin
                                        (List.nth cone.Milo_rules.Cone.leaves v))
                                    cand.Macro.inputs;
                                  let out = D.new_net ~log ctx.R.design in
                                  D.connect ~log ctx.R.design cid
                                    (List.nth cand.Macro.outputs 0)
                                    out;
                                  out)
                            in
                            if ok then
                              Some
                                (Printf.sprintf "macro-select %s -> %s"
                                   c.D.cname cand.Macro.mname)
                            else None)))))
  in
  let rec go = function
    | [] -> Not_applicable
    | h :: rest -> (
        match try_hop h with Some msg -> Applied msg | None -> go rest)
  in
  go (path_hops path)

(* --- Strategy 5: duplicate shared logic ------------------------------- *)

let duplicate_logic ctx (_sta : Sta.t) (path : Sta.path) log =
  let hops = path_hops path in
  (* Find a hop whose driver also feeds other sinks; give the critical
     sink a private copy. *)
  let rec pairs = function
    | h1 :: (h2 : Sta.hop) :: rest -> (h1, h2) :: pairs (h2 :: rest)
    | [ _ ] | [] -> []
  in
  let try_pair ((consumer : Sta.hop), (producer : Sta.hop)) =
    match
      ( D.comp_opt ctx.R.design consumer.Sta.comp,
        D.comp_opt ctx.R.design producer.Sta.comp )
    with
    | Some cc, Some pc -> (
        match D.connection ctx.R.design pc.D.id producer.Sta.out_pin with
        | Some onet when R.fanout ctx onet > 1 && not (R.net_is_port ctx onet)
          ->
            let clone = D.add_comp ~log ctx.R.design pc.D.kind in
            List.iter
              (fun (pin, nid) ->
                if pin <> producer.Sta.out_pin then
                  D.connect ~log ctx.R.design clone pin nid)
              (D.connections ctx.R.design pc.D.id);
            let newnet = D.new_net ~log ctx.R.design in
            D.connect ~log ctx.R.design clone producer.Sta.out_pin newnet;
            D.connect ~log ctx.R.design cc.D.id consumer.Sta.in_pin newnet;
            Some (Printf.sprintf "duplicate %s" pc.D.cname)
        | Some _ | None -> None)
    | _ -> None
  in
  let rec go = function
    | [] -> Not_applicable
    | p :: rest -> (
        match try_pair p with Some msg -> Applied msg | None -> go rest)
  in
  go (pairs hops)

(* --- Strategy 7: collapse to two levels, minimize, re-factor ---------- *)

let collapse_minimize ?(max_leaves = 10) ctx (_sta : Sta.t) (path : Sta.path)
    log =
  let endpoint_net =
    match path.Sta.path_endpoint with
    | Sta.Ep_port p -> Some (D.port_net ctx.R.design p)
    | Sta.Ep_seq_pin (cid, pin) -> D.connection ctx.R.design cid pin
  in
  match endpoint_net with
  | None -> Not_applicable
  | Some onet -> (
      match Milo_rules.Cone.extract ctx ~max_leaves onet with
      | None -> Not_applicable
      | Some cone when List.length cone.Milo_rules.Cone.comps < 3 -> Not_applicable
      | Some cone ->
          let nvars = List.length cone.Milo_rules.Cone.leaves in
          let on = Milo_rules.Cone.minterms ctx cone in
          let cover = Milo_minimize.Quine.minimize ~vars:nvars ~on ~dc:[] in
          let expr = Milo_minimize.Factor.of_cover cover in
          let ok =
            Milo_rules.Cone.replace ctx log cone ~build:(fun () ->
                Milo_compilers.Gate_comp.build_expr ~log ctx.R.design ctx.R.set
                  ~var_net:(fun v -> List.nth cone.Milo_rules.Cone.leaves v)
                  expr)
          in
          if ok then Applied "collapse+minimize" else Not_applicable)

(* --- Strategy 8: duplicate logic with a multiplexor ------------------- *)

let mux_duplicate ctx (sta : Sta.t) (path : Sta.path) log =
  let endpoint_net =
    match path.Sta.path_endpoint with
    | Sta.Ep_port p -> Some (D.port_net ctx.R.design p)
    | Sta.Ep_seq_pin (cid, pin) -> D.connection ctx.R.design cid pin
  in
  (* Candidate cone roots: the endpoint, then the hop outputs along the
     path (the endpoint cone of a wide circuit rarely fits 6 leaves). *)
  let hop_nets =
    List.filter_map
      (fun (h : Sta.hop) ->
        match D.comp_opt ctx.R.design h.Sta.comp with
        | Some _ -> D.connection ctx.R.design h.Sta.comp h.Sta.out_pin
        | None -> None)
      (path_hops path)
  in
  let roots =
    (match endpoint_net with Some n -> [ n ] | None -> []) @ hop_nets
  in
  let cone =
    List.find_map
      (fun onet ->
        match Milo_rules.Cone.extract ctx ~max_leaves:6 onet with
        | Some c
          when List.length c.Milo_rules.Cone.comps >= 2
               && List.length c.Milo_rules.Cone.leaves >= 2 ->
            Some c
        | Some _ | None -> None)
      roots
  in
  match cone with
  | None -> Not_applicable
  | Some cone -> (
      match Milo_rules.Cone.truth_table ctx cone with
      | None -> Not_applicable
      | Some tt -> (
          (* The late leaf becomes the mux select. *)
          let arrivals =
            List.mapi
              (fun i nid ->
                (i, Option.value ~default:0.0 (Sta.net_arrival sta nid)))
              cone.Milo_rules.Cone.leaves
          in
          let late =
            List.fold_left
              (fun acc (i, a) ->
                match acc with
                | Some (_, ba) when ba >= a -> acc
                | _ -> Some (i, a))
              None arrivals
          in
          match late with
          | None -> Not_applicable
          | Some (li, _) ->
              let tt0 = Truth_table.cofactor tt li false in
              let tt1 = Truth_table.cofactor tt li true in
              let expr_of t =
                Milo_minimize.Factor.of_cover
                  (Milo_minimize.Espresso.minimize_tt t)
              in
              let e0 = expr_of tt0 and e1 = expr_of tt1 in
              let var_net v = List.nth cone.Milo_rules.Cone.leaves v in
              let mux_name =
                List.find_opt
                  (fun n -> Tech.mem ctx.R.tech n)
                  [ "MUX2"; "E_MUX2"; "C_MUX2" ]
              in
              (match mux_name with
              | None -> Not_applicable
              | Some mux_macro ->
                  let ok =
                    Milo_rules.Cone.replace ctx log cone ~build:(fun () ->
                        let n0 =
                          Milo_compilers.Gate_comp.build_expr ~log
                            ctx.R.design ctx.R.set ~var_net e0
                        in
                        let n1 =
                          Milo_compilers.Gate_comp.build_expr ~log
                            ctx.R.design ctx.R.set ~var_net e1
                        in
                        let mid =
                          D.add_comp ~log ctx.R.design (T.Macro mux_macro)
                        in
                        D.connect ~log ctx.R.design mid "D0" n0;
                        D.connect ~log ctx.R.design mid "D1" n1;
                        D.connect ~log ctx.R.design mid "S0" (var_net li);
                        let out = D.new_net ~log ctx.R.design in
                        D.connect ~log ctx.R.design mid "Y" out;
                        out)
                  in
                  if ok then Applied "mux-duplicate" else Not_applicable)))

(* --- The strategy table ------------------------------------------------ *)

type strategy = {
  id : int;
  strat_name : string;
  run : R.context -> Sta.t -> Sta.path -> D.log -> result;
}

let all =
  [
    { id = 1; strat_name = "swap-signals"; run = swap_signals };
    { id = 2; strat_name = "high-power"; run = high_power };
    { id = 3; strat_name = "factor"; run = factor_path };
    { id = 4; strat_name = "macro-select"; run = macro_select ~allow_cost:false };
    { id = 5; strat_name = "duplicate"; run = duplicate_logic };
    { id = 6; strat_name = "macro-select-cost"; run = macro_select ~allow_cost:true };
    { id = 7; strat_name = "collapse-minimize"; run = collapse_minimize ?max_leaves:None };
    { id = 8; strat_name = "mux-duplicate"; run = mux_duplicate };
  ]

let by_id id = List.find (fun s -> s.id = id) all

(* Strategy order as a function of slack (Section 4.1.3): small slack
   tries the free/cheap strategies; large deficits go to the heavy
   restructuring strategies after the free ones. *)
let order_for ~deficit ~required =
  let ratio = if required > 0.0 then deficit /. required else 1.0 in
  if ratio <= 0.08 then [ 1; 4; 2; 3; 5 ]
  else if ratio <= 0.25 then [ 4; 1; 6; 2; 3; 5 ]
  else [ 4; 6; 7; 8; 1; 2; 3; 5 ]
