(* The area critic: rules that decrease area, possibly at the expense of
   delay or power. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Macro = Milo_library.Macro
module Tech = Milo_library.Technology

(* Carry-lookahead adder back to the smaller ripple slice. *)
let adder_ripple_swap =
  R.retarget ~name:"adder-ripple-swap" ~cls:R.Area ~verb:"CLA->ripple"
    (fun _ mname ->
      let l = String.length mname in
      if l > 3 && String.ends_with ~suffix:"CLA" mname then
        Some (String.sub mname 0 (l - 3))
      else None)

(* Common-subexpression sharing: two combinational components with the
   same kind and the same input connections merge into one. *)
let share_duplicate =
  let signature ctx (c : D.comp) =
    match R.macro_of ctx c with
    | Some m when not (Macro.is_sequential m) ->
        let ins =
          List.map
            (fun pin -> (pin, D.connection ctx.R.design c.D.id pin))
            m.Macro.inputs
        in
        Some (m.Macro.mname, ins)
    | Some _ | None -> None
  in
  R.make ~name:"share-duplicate" ~cls:R.Area
    ~find:(fun ctx ->
      let seen = Hashtbl.create 32 in
      List.filter_map
        (fun (c : D.comp) ->
          match signature ctx c with
          | None -> None
          | Some key -> (
              match Hashtbl.find_opt seen key with
              | Some first ->
                  Some (R.site ~comps:[ first; c.D.id ] "duplicate gates")
              | None ->
                  Hashtbl.replace seen key c.D.id;
                  None))
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ keep; drop ]
        when D.comp_opt ctx.R.design keep <> None
             && D.comp_opt ctx.R.design drop <> None ->
          let ck = D.comp ctx.R.design keep in
          let cd = D.comp ctx.R.design drop in
          (match (signature ctx ck, signature ctx cd) with
          | Some a, Some b when a = b -> (
              match R.macro_of ctx ck with
              | Some m ->
                  (* Merge each output of the duplicate into the kept
                     component's output net. *)
                  let ok =
                    List.for_all
                      (fun out ->
                        match
                          ( D.connection ctx.R.design keep out,
                            D.connection ctx.R.design drop out )
                        with
                        | Some _, Some dnet -> not (R.net_is_port ctx dnet)
                        | _, None -> true
                        | None, Some _ -> false)
                      m.Macro.outputs
                  in
                  if not ok then false
                  else begin
                    List.iter
                      (fun out ->
                        match
                          ( D.connection ctx.R.design keep out,
                            D.connection ctx.R.design drop out )
                        with
                        | Some knet, Some dnet ->
                            D.disconnect ~log ctx.R.design drop out;
                            R.merge_net_into ctx log ~src:dnet ~dst:knet
                        | _, None | None, _ -> ())
                      m.Macro.outputs;
                    R.remove_comp_and_dangling ctx log drop;
                    true
                  end
              | None -> false)
          | _ -> false)
      | _ -> false) ()

(* Cone resynthesis: replace a small single-output cone by one library
   macro of the same function when that macro is smaller — the
   strategy-4 hash-table lookup used for area instead of speed. *)
let cone_resynth =
  R.make ~name:"cone-resynth" ~cls:R.Area
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          match R.macro_of ctx c with
          | Some m
            when (not (Macro.is_sequential m))
                 && List.length m.Macro.outputs = 1 -> (
              match
                D.connection ctx.R.design c.D.id (List.nth m.Macro.outputs 0)
              with
              | Some onet ->
                  Some (R.site ~comps:[ c.D.id ] ~data:[ onet ] "cone")
              | None -> None)
          | Some _ | None -> None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match (site.R.site_comps, site.R.site_data) with
      | [ cid ], [ onet ]
        when D.comp_opt ctx.R.design cid <> None
             && D.net_opt ctx.R.design onet <> None -> (
          let module Cone = Milo_rules.Cone in
          match Cone.extract ctx ~max_leaves:5 onet with
          | Some cone when List.length cone.Cone.comps >= 2 -> (
              match Cone.truth_table ctx cone with
              | Some tt -> (
                  let matches =
                    Milo_library.Technology.matches_for ctx.R.tech tt
                  in
                  match matches with
                  | (cand, perm) :: _
                    when cand.Macro.area < Cone.area ctx cone -. 1e-9 ->
                      Cone.replace ctx log cone ~build:(fun () ->
                          let nid =
                            D.add_comp ~log ctx.R.design
                              (T.Macro cand.Macro.mname)
                          in
                          List.iteri
                            (fun i pin ->
                              let v = List.nth perm i in
                              D.connect ~log ctx.R.design nid pin
                                (List.nth cone.Cone.leaves v))
                            cand.Macro.inputs;
                          let out = D.new_net ~log ctx.R.design in
                          D.connect ~log ctx.R.design nid
                            (List.nth cand.Macro.outputs 0)
                            out;
                          out)
                  | _ -> false)
              | None -> false)
          | Some _ | None -> false)
      | _ -> false) ()

(* ECL dual-output sharing: an OR and a NOR over the same inputs fuse
   into one E_ORNOR macro (both collector phases of a single current
   switch come for free — the dual-rail property of the technology). *)
let ornor_share =
  R.make ~name:"ornor-share" ~cls:R.Area
    ~find:(fun ctx ->
      (* index OR gates by their sorted input-net multiset *)
      let or_gates = Hashtbl.create 16 in
      let inputs_of (c : D.comp) arity =
        List.filter_map
          (fun i -> D.connection ctx.R.design c.D.id (Printf.sprintf "A%d" i))
          (List.init arity (fun i -> i))
      in
      List.iter
        (fun (c : D.comp) ->
          match R.macro_of ctx c with
          | Some m -> (
              match Gate_shape.of_macro m with
              | Some { Gate_shape.fn = T.Or; arity } ->
                  let key = (arity, List.sort compare (inputs_of c arity)) in
                  if not (Hashtbl.mem or_gates key) then
                    Hashtbl.replace or_gates key c.D.id
              | Some _ | None -> ())
          | None -> ())
        (R.scan_comps ctx);
      List.filter_map
        (fun (c : D.comp) ->
          match R.macro_of ctx c with
          | Some m -> (
              match Gate_shape.of_macro m with
              | Some { Gate_shape.fn = T.Nor; arity } -> (
                  let target = Printf.sprintf "E_ORNOR%d" arity in
                  if not (Milo_library.Technology.mem ctx.R.tech target) then
                    None
                  else
                    let key = (arity, List.sort compare (inputs_of c arity)) in
                    match Hashtbl.find_opt or_gates key with
                    | Some or_id when or_id <> c.D.id ->
                        Some
                          (R.site ~comps:[ or_id; c.D.id ]
                             "OR+NOR -> dual-output ORNOR")
                    | Some _ | None -> None)
              | Some _ | None -> None)
          | None -> None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ or_id; nor_id ]
        when D.comp_opt ctx.R.design or_id <> None
             && D.comp_opt ctx.R.design nor_id <> None -> (
          let org = D.comp ctx.R.design or_id in
          let norg = D.comp ctx.R.design nor_id in
          let shape c =
            match R.macro_of ctx c with
            | Some m -> Gate_shape.of_macro m
            | None -> None
          in
          match (shape org, shape norg) with
          | Some { Gate_shape.fn = T.Or; arity }, Some { Gate_shape.fn = T.Nor; arity = na }
            when arity = na -> (
              let target = Printf.sprintf "E_ORNOR%d" arity in
              if not (Milo_library.Technology.mem ctx.R.tech target) then false
              else
                let ins c =
                  List.map
                    (fun i -> D.connection ctx.R.design c (Printf.sprintf "A%d" i))
                    (List.init arity (fun i -> i))
                in
                let same =
                  List.sort compare (ins or_id) = List.sort compare (ins nor_id)
                  && List.for_all (fun x -> x <> None) (ins or_id)
                in
                match
                  ( same,
                    D.connection ctx.R.design or_id "Y",
                    D.connection ctx.R.design nor_id "Y" )
                with
                | true, Some ynet, Some ynnet ->
                    let inputs = List.map Option.get (ins or_id) in
                    R.remove_comp_and_dangling ctx log nor_id;
                    R.replace_macro ctx log or_id target (fun _ -> None);
                    List.iteri
                      (fun i nid ->
                        D.connect ~log ctx.R.design or_id
                          (Printf.sprintf "A%d" i) nid)
                      inputs;
                    D.connect ~log ctx.R.design or_id "Y" ynet;
                    if D.net_opt ctx.R.design ynnet <> None then
                      D.connect ~log ctx.R.design or_id "YN" ynnet;
                    true
                | _, _, _ -> false)
          | _ -> false)
      | _ -> false) ()

let rules = [ adder_ripple_swap; share_duplicate; cone_resynth; ornor_share ]
