(* The timing critic: rules that can buy speed at the cost of area
   and/or power.  The engine's cost function decides where they pay off
   (they only reduce the worst delay when applied on a critical path). *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Macro = Milo_library.Macro
module Tech = Milo_library.Technology

(* Strategy 2: replace a standard-power macro with its high-power,
   higher-speed variant (ECL only — other libraries simply have no
   variants, so the rule never matches). *)
let high_power_swap =
  R.retarget ~name:"high-power-swap" ~cls:R.Timing ~verb:"power up"
    (fun tech mname ->
      Option.map
        (fun (v : Macro.t) -> v.Macro.mname)
        (Tech.high_power_variant tech mname))

(* Swap a ripple adder slice for its carry-lookahead variant (the
   microarchitecture-level tradeoff of Figure 16, available at the
   macro level too since the pin interfaces coincide). *)
let adder_cla_swap =
  R.retarget ~name:"adder-cla-swap" ~cls:R.Timing ~verb:"ripple->CLA"
    (fun _ mname ->
      if String.ends_with ~suffix:"ADD4" mname then Some (mname ^ "CLA")
      else None)

(* Strategy 5: duplicate a multi-fanout gate so one sink gets a private
   driver (removing the shared-load penalty on that path). *)
let duplicate_driver =
  R.make ~name:"duplicate-driver" ~cls:R.Timing
    ~find:(fun ctx ->
      List.concat_map
        (fun (c : D.comp) ->
          match R.macro_of ctx c with
          | Some m when (not (Macro.is_sequential m)) && List.length m.Macro.outputs = 1
            -> (
              match D.connection ctx.R.design c.D.id (List.nth m.Macro.outputs 0) with
              | Some onet when R.fanout ctx onet > 1 && not (R.net_is_port ctx onet)
                ->
                  (* One site per sink to peel off. *)
                  List.filteri (fun i _ -> i < 2)
                    (D.sinks ~resolve:ctx.R.resolve ctx.R.design onet)
                  |> List.map (fun (sink_cid, _) ->
                         R.site ~comps:[ c.D.id; sink_cid ]
                           ("duplicate " ^ c.D.cname))
              | Some _ | None -> [])
          | Some _ | None -> [])
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ cid; sink_cid ]
        when D.comp_opt ctx.R.design cid <> None
             && D.comp_opt ctx.R.design sink_cid <> None -> (
          let c = D.comp ctx.R.design cid in
          match R.macro_of ctx c with
          | Some m -> (
              let out_pin = List.nth m.Macro.outputs 0 in
              match D.connection ctx.R.design cid out_pin with
              | Some onet -> (
                  let sink_pins =
                    List.filter
                      (fun (sc, _) -> sc = sink_cid)
                      (D.sinks ~resolve:ctx.R.resolve ctx.R.design onet)
                  in
                  match sink_pins with
                  | [] -> false
                  | _ ->
                      let clone = D.add_comp ~log ctx.R.design c.D.kind in
                      List.iter
                        (fun (pin, nid) ->
                          if pin <> out_pin then
                            D.connect ~log ctx.R.design clone pin nid)
                        (D.connections ctx.R.design cid);
                      let newnet = D.new_net ~log ctx.R.design in
                      D.connect ~log ctx.R.design clone out_pin newnet;
                      List.iter
                        (fun (sc, spin) ->
                          D.connect ~log ctx.R.design sc spin newnet)
                        sink_pins;
                      true)
              | None -> false)
          | None -> false)
      | _ -> false) ()

(* Strategy 3 (local form): split one late input out of a wide
   associative gate — AND4(a,b,c,d) -> AND2(AND3(a,b,c), d) — shortening
   the path through the isolated input. *)
let isolate_input =
  let assoc = function
    | T.And | T.Or | T.Xor -> true
    | T.Nand | T.Nor | T.Xnor | T.Inv | T.Buf -> false
  in
  R.make ~name:"isolate-input" ~cls:R.Timing
    ~find:(fun ctx ->
      List.concat_map
        (fun (c : D.comp) ->
          match R.macro_of ctx c with
          | Some m -> (
              match Gate_shape.of_macro m with
              | Some { Gate_shape.fn; arity } when assoc fn && arity >= 3 ->
                  List.map
                    (fun i ->
                      R.site ~comps:[ c.D.id ] ~data:[ i ]
                        (Printf.sprintf "isolate %s.A%d" c.D.cname i))
                    (List.init arity (fun i -> i))
              | Some _ | None -> [])
          | None -> [])
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match (site.R.site_comps, site.R.site_data) with
      | [ cid ], [ idx ] when D.comp_opt ctx.R.design cid <> None -> (
          let c = D.comp ctx.R.design cid in
          match R.macro_of ctx c with
          | Some m -> (
              match (Gate_shape.of_macro m, m.Macro.outputs) with
              | Some { Gate_shape.fn; arity }, [ out_pin ] -> (
                  match D.connection ctx.R.design cid out_pin with
                  | Some onet ->
                      let ins =
                        List.filter_map
                          (fun i ->
                            D.connection ctx.R.design cid (Printf.sprintf "A%d" i))
                          (List.init arity (fun i -> i))
                      in
                      if List.length ins <> arity || idx >= arity then false
                      else begin
                        let late = List.nth ins idx in
                        let rest = List.filteri (fun i _ -> i <> idx) ins in
                        R.remove_comp_and_dangling ctx log cid;
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
                        true
                      end
                  | None -> false)
              | _ -> false)
          | None -> false)
      | _ -> false) ()

let rules = [ high_power_swap; adder_cla_swap; duplicate_driver; isolate_input ]
