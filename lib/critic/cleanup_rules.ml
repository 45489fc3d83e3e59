(* Cleanup rules: the Logic Consultant's high-priority class, examined
   after every regular rule application to remove the debris (spare
   inverters, dead gates, constants) a transformation leaves behind. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule

let gate_comps ctx pred =
  R.macro_comps ctx (fun _c m ->
      match Gate_shape.of_macro m with Some s -> pred s | None -> false)

let input_nets ctx (c : D.comp) =
  let m = Option.get (R.macro_of ctx c) in
  List.filter_map
    (fun pin -> D.connection ctx.R.design c.D.id pin)
    m.Milo_library.Macro.inputs

let output_net ctx (c : D.comp) =
  let m = Option.get (R.macro_of ctx c) in
  match m.Milo_library.Macro.outputs with
  | [ out ] -> D.connection ctx.R.design c.D.id out
  | [] | _ :: _ -> None

(* Dead logic: a combinational component whose outputs drive nothing. *)
let dead_logic =
  R.make ~local:true ~name:"dead-logic" ~cls:R.Cleanup
    ~find:(fun ctx ->
      R.macro_comps ctx (fun c m ->
          (not (Milo_library.Macro.is_sequential m))
          && List.for_all
               (fun out ->
                 match D.connection ctx.R.design c.D.id out with
                 | None -> true
                 | Some nid ->
                     R.fanout ctx nid = 0
                     && not (R.net_is_port ctx nid))
               m.Milo_library.Macro.outputs)
      |> List.map (fun (c : D.comp) ->
             R.site ~comps:[ c.D.id ] ("dead " ^ c.D.cname)))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ cid ] when D.comp_opt ctx.R.design cid <> None ->
          R.remove_comp_and_dangling ctx log cid;
          true
      | _ -> false) ()

(* Double inverter: INV(INV(x)) with a single consumer chain. *)
let double_inverter =
  R.make ~local:true ~name:"double-inverter" ~cls:R.Cleanup
    ~find:(fun ctx ->
      gate_comps ctx (fun s -> s.Gate_shape.fn = T.Inv)
      |> List.filter_map (fun (c2 : D.comp) ->
             (* c2 : the outer inverter *)
             match input_nets ctx c2 with
             | [ bnet ] -> (
                 match R.driver_comp ctx bnet with
                 | Some (c1, _)
                   when (match R.macro_of ctx c1 with
                        | Some m -> Gate_shape.is_inv m
                        | None -> false)
                        && R.fanout ctx bnet = 1
                        && not (R.net_is_port ctx bnet) -> (
                     match output_net ctx c2 with
                     | Some cnet when not (R.net_is_port ctx cnet) ->
                         Some
                           (R.site ~comps:[ c2.D.id; c1.D.id ]
                              ("inv pair " ^ c1.D.cname))
                     | Some _ | None -> None)
                 | Some _ | None -> None)
             | _ -> None))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ c2id; c1id ]
        when D.comp_opt ctx.R.design c2id <> None
             && D.comp_opt ctx.R.design c1id <> None -> (
          let c1 = D.comp ctx.R.design c1id in
          match (input_nets ctx c1, output_net ctx (D.comp ctx.R.design c2id)) with
          | [ anet ], Some cnet ->
              R.remove_comp_and_dangling ctx log c2id;
              R.merge_net_into ctx log ~src:cnet ~dst:anet;
              (* The inner inverter may now be dead. *)
              (match output_net ctx c1 with
              | Some bnet
                when R.fanout ctx bnet = 0 && not (R.net_is_port ctx bnet) ->
                  R.remove_comp_and_dangling ctx log c1id
              | Some _ | None -> ());
              true
          | _ -> false)
      | _ -> false) ()

(* Buffer elimination. *)
let buffer_elim =
  R.make ~local:true ~name:"buffer-elim" ~cls:R.Cleanup
    ~find:(fun ctx ->
      gate_comps ctx (fun s -> s.Gate_shape.fn = T.Buf)
      |> List.filter_map (fun (c : D.comp) ->
             match (input_nets ctx c, output_net ctx c) with
             | [ _ ], Some out when not (R.net_is_port ctx out) ->
                 Some (R.site ~comps:[ c.D.id ] ("buf " ^ c.D.cname))
             | _ -> None))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ cid ] when D.comp_opt ctx.R.design cid <> None -> (
          let c = D.comp ctx.R.design cid in
          match (input_nets ctx c, output_net ctx c) with
          | [ inet ], Some onet when not (R.net_is_port ctx onet) ->
              R.remove_comp_and_dangling ctx log cid;
              (match D.net_opt ctx.R.design onet with
              | Some _ -> R.merge_net_into ctx log ~src:onet ~dst:inet
              | None -> ());
              true
          | _ -> false)
      | _ -> false) ()

(* Constant propagation through simple gates. *)
let constant_prop =
  let find ctx =
    gate_comps ctx (fun s ->
        match s.Gate_shape.fn with
        | T.And | T.Or | T.Nand | T.Nor | T.Xor | T.Xnor -> true
        | T.Inv | T.Buf -> false)
    |> List.filter_map (fun (c : D.comp) ->
           let has_const =
             List.exists
               (fun nid ->
                 match R.driver_comp ctx nid with
                 | Some (dc, _) -> (
                     match R.macro_of ctx dc with
                     | Some m -> Gate_shape.is_const m <> None
                     | None -> false)
                 | None -> false)
               (input_nets ctx c)
           in
           if has_const then
             Some (R.site ~comps:[ c.D.id ] ("const in " ^ c.D.cname))
           else None)
  in
  let apply ctx site log =
    match site.R.site_comps with
    | [ cid ] when D.comp_opt ctx.R.design cid <> None -> (
        let c = D.comp ctx.R.design cid in
        match R.macro_of ctx c with
        | None -> false
        | Some m -> (
            match Gate_shape.of_macro m with
            | None -> false
            | Some { Gate_shape.fn; arity } -> (
                let pin i = Printf.sprintf "A%d" i in
                let const_of nid =
                  match R.driver_comp ctx nid with
                  | Some (dc, _) -> (
                      match R.macro_of ctx dc with
                      | Some dm -> Gate_shape.is_const dm
                      | None -> None)
                  | None -> None
                in
                let ins =
                  List.init arity (fun i ->
                      match D.connection ctx.R.design cid (pin i) with
                      | Some nid -> (nid, const_of nid)
                      | None -> (-1, Some false))
                in
                let out =
                  match output_net ctx c with Some o -> o | None -> -1
                in
                if out < 0 then false
                else
                  let live =
                    List.filter_map
                      (fun (nid, cst) ->
                        match cst with Some _ -> None | None -> Some nid)
                      ins
                  in
                  let consts = List.filter_map (fun (_, c') -> c') ins in
                  (* Result under constant absorption. *)
                  let absorb =
                    match fn with
                    | T.And | T.Nand -> List.mem false consts
                    | T.Or | T.Nor -> List.mem true consts
                    | T.Xor | T.Xnor | T.Inv | T.Buf -> false
                  in
                  let xor_flip =
                    List.length (List.filter (fun b -> b) consts) mod 2 = 1
                  in
                  let emit_const b =
                    let lvl = if b then T.Vdd else T.Vss in
                    R.remove_comp_and_dangling ctx log cid;
                    (match D.net_opt ctx.R.design out with
                    | None -> ()
                    | Some _ ->
                        let src =
                          Milo_compilers.Gate_comp.add_const ~log ctx.R.design
                            ctx.R.set lvl
                        in
                        R.merge_net_into ctx log ~src ~dst:out);
                    true
                  in
                  let rebuild fn' ins' =
                    R.remove_comp_and_dangling ctx log cid;
                    match D.net_opt ctx.R.design out with
                    | None -> true
                    | Some _ ->
                        let src =
                          Milo_compilers.Gate_comp.build ~log ctx.R.design
                            ctx.R.set fn' ins'
                        in
                        (* [src] may be one of the surviving inputs
                           (single-input identity), possibly a port
                           net: reroute handles the merge direction. *)
                        R.reroute ctx log ~signal:src ~old_net:out;
                        true
                  in
                  if absorb then
                    emit_const
                      (match fn with
                      | T.And | T.Or -> fn = T.Or
                      | T.Nand | T.Nor -> fn = T.Nand
                      | T.Xor | T.Xnor | T.Inv | T.Buf -> false)
                  else if live = [] then
                    (* All inputs constant. *)
                    let v =
                      match fn with
                      | T.And | T.Nand ->
                          let a = List.for_all (fun b -> b) consts in
                          if fn = T.And then a else not a
                      | T.Or | T.Nor ->
                          let o = List.exists (fun b -> b) consts in
                          if fn = T.Or then o else not o
                      | T.Xor -> xor_flip
                      | T.Xnor -> not xor_flip
                      | T.Inv | T.Buf -> false
                    in
                    emit_const v
                  else
                    (* Drop absorbed-identity constants, rebuild smaller. *)
                    match fn with
                    | T.And -> rebuild T.And live
                    | T.Or -> rebuild T.Or live
                    | T.Nand -> rebuild T.Nand live
                    | T.Nor -> rebuild T.Nor live
                    | T.Xor ->
                        if xor_flip then rebuild T.Xnor live
                        else rebuild T.Xor live
                    | T.Xnor ->
                        if xor_flip then rebuild T.Xor live
                        else rebuild T.Xnor live
                    | T.Inv | T.Buf -> false)))
    | _ -> false
  in
  R.make ~local:true ~name:"constant-prop" ~cls:R.Cleanup ~find ~apply ()

(* Single-input reduction: rebuilding NAND/NOR over one live input needs
   an inverter; Gate_comp.build already handles that (NAND1 = INV). *)

let rules = [ dead_logic; double_inverter; buffer_elim; constant_prop ]
