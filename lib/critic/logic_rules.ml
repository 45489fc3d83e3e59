(* The logic critic: rules that always decrease both delay and area
   (Figure 17's first expert).  All matching is behavioural, so the same
   rules serve the generic, ECL and CMOS libraries. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Macro = Milo_library.Macro

let shape_of ctx (c : D.comp) =
  match R.macro_of ctx c with
  | Some m -> Gate_shape.of_macro m
  | None -> None

let output_net ctx (c : D.comp) =
  match R.macro_of ctx c with
  | Some m -> (
      match m.Macro.outputs with
      | [ out ] -> D.connection ctx.R.design c.D.id out
      | [] | _ :: _ -> None)
  | None -> None

let gate_input_nets ctx (c : D.comp) arity =
  List.init arity (fun i ->
      D.connection ctx.R.design c.D.id (Printf.sprintf "A%d" i))
  |> List.filter_map (fun x -> x)

(* Gate + output inverter -> inverted gate (OR+INV -> NOR, etc.), when
   the inverted form exists in the library.  Decreases area and delay. *)
let invert_root =
  let inverted = function
    | T.And -> Some T.Nand
    | T.Or -> Some T.Nor
    | T.Nand -> Some T.And
    | T.Nor -> Some T.Or
    | T.Xor -> Some T.Xnor
    | T.Xnor -> Some T.Xor
    | T.Inv | T.Buf -> None
  in
  R.make ~local:true ~name:"invert-root" ~cls:R.Logic
    ~find:(fun ctx ->
      List.filter_map
        (fun (inv : D.comp) ->
          match shape_of ctx inv with
          | Some { Gate_shape.fn = T.Inv; _ } -> (
              match D.connection ctx.R.design inv.D.id "A0" with
              | Some bnet when R.fanout ctx bnet = 1 && not (R.net_is_port ctx bnet)
                -> (
                  match R.driver_comp ctx bnet with
                  | Some (g, _) -> (
                      match shape_of ctx g with
                      | Some { Gate_shape.fn; arity } -> (
                          match inverted fn with
                          | Some fn'
                            when ctx.R.set.Milo_compilers.Gate_comp.gate_macro
                                   fn' arity
                                 <> None ->
                              (* anchored at the inverter, the
                                 component scanned *)
                              Some
                                (R.site ~anchor:inv.D.id
                                   ~comps:[ g.D.id; inv.D.id ]
                                   (Printf.sprintf "%s+INV" (T.gate_fn_name fn)))
                          | Some _ | None -> None)
                      | None -> None)
                  | None -> None)
              | Some _ | None -> None)
          | Some _ | None -> None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ gid; invid ]
        when D.comp_opt ctx.R.design gid <> None
             && D.comp_opt ctx.R.design invid <> None -> (
          let g = D.comp ctx.R.design gid in
          let inv = D.comp ctx.R.design invid in
          match (shape_of ctx g, output_net ctx inv) with
          | Some _, Some onet
            when R.fanout ctx onet = 0 && not (R.net_is_port ctx onet) ->
              (* dead inverter: leave it to the dead-logic cleanup *)
              false
          | Some { Gate_shape.fn; arity }, Some onet -> (
              let fn' =
                match inverted fn with Some f -> f | None -> assert false
              in
              match ctx.R.set.Milo_compilers.Gate_comp.gate_macro fn' arity with
              | None -> false
              | Some mname ->
                  let bnet = output_net ctx g in
                  R.remove_comp_and_dangling ctx log invid;
                  R.replace_macro ctx log gid mname (fun p -> Some p);
                  (* Reconnect the output: the gate keeps its old output
                     net; merge it into the inverter's old output. *)
                  (match bnet with
                  | Some b when D.net_opt ctx.R.design b <> None ->
                      D.connect ~log ctx.R.design gid "Y" b;
                      R.merge_net_into ctx log ~src:b ~dst:onet
                  | Some _ | None -> D.connect ~log ctx.R.design gid "Y" onet);
                  true)
          | _ -> false)
      | _ -> false) ()

(* Associative gate collapse: AND(AND(a,b),c) -> AND3(a,b,c) when the
   inner gate has fanout 1 and the wider macro exists. *)
let gate_merge =
  let assoc = function
    | T.And | T.Or | T.Xor -> true
    | T.Nand | T.Nor | T.Xnor | T.Inv | T.Buf -> false
  in
  R.make ~local:true ~name:"gate-merge" ~cls:R.Logic
    ~find:(fun ctx ->
      List.concat_map
        (fun (outer : D.comp) ->
          match shape_of ctx outer with
          | Some { Gate_shape.fn; arity } when assoc fn ->
              List.filter_map
                (fun i ->
                  match
                    D.connection ctx.R.design outer.D.id (Printf.sprintf "A%d" i)
                  with
                  | Some nid
                    when R.fanout ctx nid = 1 && not (R.net_is_port ctx nid)
                    -> (
                      match R.driver_comp ctx nid with
                      | Some (inner, _) -> (
                          match shape_of ctx inner with
                          | Some { Gate_shape.fn = ifn; arity = iar }
                            when ifn = fn
                                 && ctx.R.set.Milo_compilers.Gate_comp.gate_macro
                                      fn
                                      (arity + iar - 1)
                                    <> None ->
                              Some
                                (R.site ~comps:[ outer.D.id; inner.D.id ]
                                   (Printf.sprintf "merge %s%d+%d"
                                      (T.gate_fn_name fn) arity iar))
                          | Some _ | None -> None)
                      | None -> None)
                  | Some _ | None -> None)
                (List.init arity (fun i -> i))
          | Some _ | None -> [])
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ oid; iid ]
        when D.comp_opt ctx.R.design oid <> None
             && D.comp_opt ctx.R.design iid <> None -> (
          let outer = D.comp ctx.R.design oid in
          let inner = D.comp ctx.R.design iid in
          match (shape_of ctx outer, shape_of ctx inner, output_net ctx outer) with
          | Some { Gate_shape.fn; arity }, Some { Gate_shape.arity = iar; _ },
            Some onet ->
              let inner_out = output_net ctx inner in
              let outer_ins = gate_input_nets ctx outer arity in
              let inner_ins = gate_input_nets ctx inner iar in
              let kept =
                List.filter (fun n -> Some n <> inner_out) outer_ins
              in
              if List.length kept <> arity - 1 then false
              else begin
                R.remove_comp_and_dangling ctx log oid;
                R.remove_comp_and_dangling ctx log iid;
                if D.net_opt ctx.R.design onet <> None then begin
                  let src =
                    Milo_compilers.Gate_comp.build ~log ctx.R.design ctx.R.set
                      fn (inner_ins @ kept)
                  in
                  R.merge_net_into ctx log ~src ~dst:onet
                end;
                true
              end
          | _ -> false)
      | _ -> false) ()

(* Mux + flip-flop merge: an n:1 mux feeding the D of a plain DFF with
   fanout 1 becomes a MUXFF macro — the Figure 18 REG4 optimization. *)
let mux_ff_merge =
  R.make ~local:true ~name:"mux-ff-merge" ~cls:R.Logic
    ~find:(fun ctx ->
      List.filter_map
        (fun (ff : D.comp) ->
          match R.macro_of ctx ff with
          | Some
              {
                Macro.behavior =
                  Macro.Seq_dff
                    { data = Macro.Direct; latch = false; has_set = false;
                      has_reset; has_enable = false; inverting = false };
                _;
              } -> (
              match D.connection ctx.R.design ff.D.id "D" with
              | Some dnet
                when R.fanout ctx dnet = 1 && not (R.net_is_port ctx dnet) -> (
                  match R.driver_comp ctx dnet with
                  | Some (mx, _) -> (
                      match R.macro_of ctx mx with
                      | Some mm -> (
                          match Gate_shape.mux_inputs mm with
                          | Some n ->
                              let prefix =
                                match
                                  Milo_library.Technology.name ctx.R.tech
                                with
                                | "ecl" -> "E_"
                                | "cmos" -> "C_"
                                | _ -> ""
                              in
                              let target =
                                Printf.sprintf "%sMUXFF%d%s" prefix n
                                  (if has_reset then "_R" else "")
                              in
                              if Milo_library.Technology.mem ctx.R.tech target
                              then
                                Some
                                  (R.site ~comps:[ ff.D.id; mx.D.id ]
                                     ("mux+ff -> " ^ target))
                              else None
                          | None -> None)
                      | None -> None)
                  | None -> None)
              | Some _ | None -> None)
          | Some _ | None -> None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ ffid; mxid ]
        when D.comp_opt ctx.R.design ffid <> None
             && D.comp_opt ctx.R.design mxid <> None -> (
          let ff = D.comp ctx.R.design ffid in
          let mx = D.comp ctx.R.design mxid in
          match (R.macro_of ctx ff, R.macro_of ctx mx) with
          | Some fm, Some mm -> (
              match (fm.Macro.behavior, Gate_shape.mux_inputs mm) with
              | Macro.Seq_dff { has_reset; _ }, Some n ->
                  let prefix =
                    match Milo_library.Technology.name ctx.R.tech with
                    | "ecl" -> "E_"
                    | "cmos" -> "C_"
                    | _ -> ""
                  in
                  let target =
                    Printf.sprintf "%sMUXFF%d%s" prefix n
                      (if has_reset then "_R" else "")
                  in
                  if not (Milo_library.Technology.mem ctx.R.tech target) then
                    false
                  else begin
                    let mux_conns = D.connections ctx.R.design mxid in
                    R.remove_comp_and_dangling ctx log mxid;
                    R.replace_macro ctx log ffid target (fun p ->
                        match p with
                        | "CLK" -> Some "CLK"
                        | "RST" -> Some "RST"
                        | "Q" -> Some "Q"
                        | _ -> None);
                    (* Wire mux data/select pins onto the merged macro. *)
                    List.iter
                      (fun (pin, nid) ->
                        if
                          pin <> "Y"
                          && D.net_opt ctx.R.design nid <> None
                        then D.connect ~log ctx.R.design ffid pin nid)
                      mux_conns;
                    true
                  end
              | _ -> false)
          | _ -> false)
      | _ -> false) ()

(* Mux with constant select collapses to a wire. *)
let const_select_mux =
  R.make ~local:true ~name:"const-select-mux" ~cls:R.Logic
    ~find:(fun ctx ->
      List.filter_map
        (fun (mx : D.comp) ->
          match R.macro_of ctx mx with
          | Some mm -> (
              match Gate_shape.mux_inputs mm with
              | Some n ->
                  let sel_known =
                    List.for_all
                      (fun i ->
                        match
                          D.connection ctx.R.design mx.D.id
                            (Printf.sprintf "S%d" i)
                        with
                        | Some nid -> (
                            match R.driver_comp ctx nid with
                            | Some (dc, _) -> (
                                match R.macro_of ctx dc with
                                | Some dm -> Gate_shape.is_const dm <> None
                                | None -> false)
                            | None -> false)
                        | None -> false)
                      (List.init (T.clog2 n) (fun i -> i))
                  in
                  if sel_known then
                    Some (R.site ~comps:[ mx.D.id ] "const-sel mux")
                  else None
              | None -> None)
          | None -> None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ mxid ] when D.comp_opt ctx.R.design mxid <> None -> (
          let mx = D.comp ctx.R.design mxid in
          match R.macro_of ctx mx with
          | Some mm -> (
              match Gate_shape.mux_inputs mm with
              | Some n -> (
                  let sel_bit i =
                    match
                      D.connection ctx.R.design mxid (Printf.sprintf "S%d" i)
                    with
                    | Some nid -> (
                        match R.driver_comp ctx nid with
                        | Some (dc, _) -> (
                            match R.macro_of ctx dc with
                            | Some dm ->
                                Option.value ~default:false
                                  (Gate_shape.is_const dm)
                            | None -> false)
                        | None -> false)
                    | None -> false
                  in
                  let sel =
                    List.fold_left
                      (fun acc i -> if sel_bit i then acc lor (1 lsl i) else acc)
                      0
                      (List.init (T.clog2 n) (fun i -> i))
                  in
                  let data =
                    D.connection ctx.R.design mxid (Printf.sprintf "D%d" sel)
                  in
                  let out =
                    match mm.Macro.outputs with
                    | [ o ] -> D.connection ctx.R.design mxid o
                    | [] | _ :: _ -> None
                  in
                  match (data, out) with
                  | Some dnet, Some onet when not (R.net_is_port ctx onet) ->
                      R.remove_comp_and_dangling ctx log mxid;
                      if D.net_opt ctx.R.design onet <> None then
                        R.merge_net_into ctx log ~src:onet ~dst:dnet;
                      true
                  | _ -> false)
              | None -> false)
          | None -> false)
      | _ -> false) ()

let rules = [ invert_root; gate_merge; mux_ff_merge; const_select_mux ]
