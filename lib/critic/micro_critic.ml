(* The microarchitecture critic (Section 6.3): local transformations at
   the microarchitecture level, driven by component parameters and
   interconnection — including the paper's Figure 14/15 rule that turns
   an adder feeding back through a register into a counter, produced by
   a call to the counter compiler.

   Statistics for tradeoff decisions come from compiling the candidate
   design down to the technology library and measuring it
   ([evaluate_design]), exactly the feedback loop of Figure 16. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule

(* Constant level driving a net, if any (micro Constant components or
   VDD/VSS macros). *)
let const_level ctx nid =
  match R.driver_comp ctx nid with
  | Some (c, _) -> (
      match c.D.kind with
      | T.Constant lvl -> Some lvl
      | T.Macro _ -> (
          match R.macro_of ctx c with
          | Some m -> (
              match Gate_shape.is_const m with
              | Some true -> Some T.Vdd
              | Some false -> Some T.Vss
              | None -> None)
          | None -> None)
      | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _
      | T.Logic_unit _ | T.Arith_unit _ | T.Register _ | T.Counter _
      | T.Instance _ ->
          None)
  | None -> None

let conn ctx cid pin = D.connection ctx.R.design cid pin

(* Is the B operand of an adder tied to the constant 1 (B0=VDD, rest
   VSS) with CIN=VSS? *)
let b_is_one ctx cid bits =
  let bit i =
    match conn ctx cid (Printf.sprintf "B%d" i) with
    | Some nid -> const_level ctx nid
    | None -> None
  in
  let cin =
    match conn ctx cid "CIN" with
    | Some nid -> const_level ctx nid
    | None -> Some T.Vss
  in
  bit 0 = Some T.Vdd
  && List.for_all (fun i -> bit i = Some T.Vss) (List.init (bits - 1) (fun i -> i + 1))
  && cin = Some T.Vss

(* The Figure 14/15 rule: adder (+1) whose sum feeds a loadable register
   whose output feeds the adder back — replace both by a counter. *)
let adder_register_to_counter =
  let match_pair ctx (c1 : D.comp) =
    match c1.D.kind with
    | T.Arith_unit { bits; fns; mode = _ } -> (
        let increments =
          match fns with
          | [ T.Inc ] -> true
          | [ T.Add ] -> b_is_one ctx c1.D.id bits
          | _ -> false
        in
        let decrements =
          match fns with [ T.Dec ] -> true | _ -> false
        in
        if not (increments || decrements) then None
        else
          (* COUT must be unconnected (Figure 15's antecedent). *)
          let cout_free =
            match conn ctx c1.D.id "COUT" with
            | None -> true
            | Some nid -> R.fanout ctx nid = 0 && not (R.net_is_port ctx nid)
          in
          if not cout_free then None
          else
            (* Every S output must feed exactly one register's D input. *)
            let s_net i = conn ctx c1.D.id (Printf.sprintf "S%d" i) in
            match s_net 0 with
            | None -> None
            | Some s0 -> (
                match D.sinks ~resolve:ctx.R.resolve ctx.R.design s0 with
                | [ (c2id, pin0) ] when pin0 = "D0" -> (
                    let c2 = D.comp ctx.R.design c2id in
                    match c2.D.kind with
                    | T.Register
                        {
                          bits = rbits;
                          kind = T.Edge_triggered;
                          fns = [ T.Load ];
                          controls;
                          inverting = false;
                        }
                      when rbits = bits && List.mem T.Reset controls ->
                        (* All bits: S_i -> D_i exclusively, Q_i -> A_i. *)
                        let wired =
                          List.for_all
                            (fun i ->
                              (match s_net i with
                              | Some s -> (
                                  (not (R.net_is_port ctx s))
                                  &&
                                  match
                                    D.sinks ~resolve:ctx.R.resolve ctx.R.design s
                                  with
                                  | [ (cid, pin) ] ->
                                      cid = c2id
                                      && pin = Printf.sprintf "D%d" i
                                  | _ -> false)
                              | None -> false)
                              &&
                              match
                                ( conn ctx c2id (Printf.sprintf "Q%d" i),
                                  conn ctx c1.D.id (Printf.sprintf "A%d" i) )
                              with
                              | Some qn, Some an -> qn = an
                              | _ -> false)
                            (List.init bits (fun i -> i))
                        in
                        if wired then Some (c2id, controls, decrements)
                        else None
                    | T.Register _ | T.Gate _ | T.Multiplexor _ | T.Decoder _
                    | T.Comparator _ | T.Logic_unit _ | T.Arith_unit _
                    | T.Counter _ | T.Constant _ | T.Macro _ | T.Instance _ ->
                        None)
                | _ -> None))
    | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _
    | T.Logic_unit _ | T.Register _ | T.Counter _ | T.Constant _ | T.Macro _
    | T.Instance _ ->
        None
  in
  R.make ~name:"adder-register-to-counter" ~cls:R.Micro
    ~find:(fun ctx ->
      List.filter_map
        (fun (c1 : D.comp) ->
          match match_pair ctx c1 with
          | Some (c2id, _, down) ->
              Some
                (R.site
                   ~comps:[ c1.D.id; c2id ]
                   ~data:[ (if down then 1 else 0) ]
                   "adder+register -> counter")
          | None -> None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ c1id; c2id ]
        when D.comp_opt ctx.R.design c1id <> None
             && D.comp_opt ctx.R.design c2id <> None -> (
          let c1 = D.comp ctx.R.design c1id in
          match match_pair ctx c1 with
          | Some (c2id', controls, down) when c2id' = c2id -> (
              match c1.D.kind with
              | T.Arith_unit { bits; _ } ->
                  (* Call the counter compiler's parameters: the new
                     component (its design is generated on demand). *)
                  let fns =
                    if down then [ T.Count_down ] else [ T.Count_up ]
                  in
                  let counter =
                    D.add_comp ~log ctx.R.design
                      (T.Counter { bits; fns; controls })
                  in
                  (* Q nets (shared register-output / adder-A nets)
                     become the counter outputs. *)
                  List.iter
                    (fun i ->
                      match conn ctx c2id (Printf.sprintf "Q%d" i) with
                      | Some qn ->
                          D.connect ~log ctx.R.design counter
                            (Printf.sprintf "Q%d" i) qn
                      | None -> ())
                    (List.init bits (fun i -> i));
                  List.iter
                    (fun ctl ->
                      let pin = T.control_name ctl in
                      match conn ctx c2id pin with
                      | Some n -> D.connect ~log ctx.R.design counter pin n
                      | None -> ())
                    controls;
                  (match conn ctx c2id "CLK" with
                  | Some n -> D.connect ~log ctx.R.design counter "CLK" n
                  | None -> ());
                  (* COUT left unconnected, as in the matched pattern. *)
                  R.remove_comp_and_dangling ctx log c1id;
                  R.remove_comp_and_dangling ctx log c2id;
                  true
              | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _
              | T.Logic_unit _ | T.Register _ | T.Counter _ | T.Constant _
              | T.Macro _ | T.Instance _ ->
                  false)
          | Some _ | None -> false)
      | _ -> false) ()

(* Adder with a constant-one operand simplifies to an incrementer. *)
let add_one_to_inc =
  R.make ~name:"add-one-to-inc" ~cls:R.Micro
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          match c.D.kind with
          | T.Arith_unit { bits; fns = [ T.Add ]; mode = _ }
            when b_is_one ctx c.D.id bits ->
              Some (R.site ~comps:[ c.D.id ] "A+1 -> INC")
          | T.Arith_unit _ | T.Gate _ | T.Multiplexor _ | T.Decoder _
          | T.Comparator _ | T.Logic_unit _ | T.Register _ | T.Counter _
          | T.Constant _ | T.Macro _ | T.Instance _ ->
              None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ cid ] when D.comp_opt ctx.R.design cid <> None -> (
          let c = D.comp ctx.R.design cid in
          match c.D.kind with
          | T.Arith_unit { bits; fns = [ T.Add ]; mode }
            when b_is_one ctx cid bits ->
              List.iter
                (fun i ->
                  D.disconnect ~log ctx.R.design cid (Printf.sprintf "B%d" i))
                (List.init bits (fun i -> i));
              D.disconnect ~log ctx.R.design cid "CIN";
              D.set_kind ~log ctx.R.design cid
                (T.Arith_unit { bits; fns = [ T.Inc ]; mode });
              (* Reconnect CIN to ground for the (vestigial) pin. *)
              let vss =
                Milo_compilers.Gate_comp.add_const ~log ctx.R.design ctx.R.set
                  T.Vss
              in
              D.connect ~log ctx.R.design cid "CIN" vss;
              true
          | T.Arith_unit _ | T.Gate _ | T.Multiplexor _ | T.Decoder _
          | T.Comparator _ | T.Logic_unit _ | T.Register _ | T.Counter _
          | T.Constant _ | T.Macro _ | T.Instance _ ->
              false)
      | _ -> false) ()

(* Carry-mode tradeoffs: the Figure 16 example's "changing the
   parameters of the adder to instantiate a carry-lookahead model". *)
let carry_mode_swap ~to_mode ~name =
  R.make ~name ~cls:R.Micro
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          match c.D.kind with
          | T.Arith_unit { mode; _ } when mode <> to_mode ->
              Some (R.site ~comps:[ c.D.id ] name)
          | T.Arith_unit _ | T.Gate _ | T.Multiplexor _ | T.Decoder _
          | T.Comparator _ | T.Logic_unit _ | T.Register _ | T.Counter _
          | T.Constant _ | T.Macro _ | T.Instance _ ->
              None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ cid ] when D.comp_opt ctx.R.design cid <> None -> (
          let c = D.comp ctx.R.design cid in
          match c.D.kind with
          | T.Arith_unit { bits; fns; mode } when mode <> to_mode ->
              D.set_kind ~log ctx.R.design cid
                (T.Arith_unit { bits; fns; mode = to_mode });
              true
          | T.Arith_unit _ | T.Gate _ | T.Multiplexor _ | T.Decoder _
          | T.Comparator _ | T.Logic_unit _ | T.Register _ | T.Counter _
          | T.Constant _ | T.Macro _ | T.Instance _ ->
              false)
      | _ -> false) ()

let ripple_to_cla = carry_mode_swap ~to_mode:T.Lookahead ~name:"ripple-to-cla"
let cla_to_ripple = carry_mode_swap ~to_mode:T.Ripple ~name:"cla-to-ripple"

(* A 2:1 hold-mux in front of a loadable register folds into the
   register's enable control. *)
let hold_mux_to_enable =
  let match_site ctx (mx : D.comp) =
    match mx.D.kind with
    | T.Multiplexor { bits; inputs = 2; enable = false } -> (
        (* Output Y_i -> register D_i exclusively. *)
        let y_net i = conn ctx mx.D.id (Printf.sprintf "Y%d" i) in
        match y_net 0 with
        | None -> None
        | Some y0 -> (
            match D.sinks ~resolve:ctx.R.resolve ctx.R.design y0 with
            | [ (rid, "D0") ] -> (
                let r = D.comp ctx.R.design rid in
                match r.D.kind with
                | T.Register
                    { bits = rbits; kind; fns = [ T.Load ]; controls; inverting }
                  when rbits = bits && not (List.mem T.Enable controls) ->
                    let wired =
                      List.for_all
                        (fun i ->
                          (match y_net i with
                          | Some y -> (
                              (not (R.net_is_port ctx y))
                              &&
                              match
                                D.sinks ~resolve:ctx.R.resolve ctx.R.design y
                              with
                              | [ (rid', pin) ] ->
                                  rid' = rid && pin = Printf.sprintf "D%d" i
                              | _ -> false)
                          | None -> false)
                          &&
                          (* hold path: mux D0_i is the register's Q_i *)
                          match
                            ( conn ctx mx.D.id (Printf.sprintf "D0_%d" i),
                              conn ctx rid (Printf.sprintf "Q%d" i) )
                          with
                          | Some d0, Some q -> d0 = q
                          | _ -> false)
                        (List.init bits (fun i -> i))
                    in
                    if wired then Some (rid, bits, kind, controls, inverting)
                    else None
                | T.Register _ | T.Gate _ | T.Multiplexor _ | T.Decoder _
                | T.Comparator _ | T.Logic_unit _ | T.Arith_unit _
                | T.Counter _ | T.Constant _ | T.Macro _ | T.Instance _ ->
                    None)
            | _ -> None))
    | T.Multiplexor _ | T.Gate _ | T.Decoder _ | T.Comparator _
    | T.Logic_unit _ | T.Arith_unit _ | T.Register _ | T.Counter _
    | T.Constant _ | T.Macro _ | T.Instance _ ->
        None
  in
  R.make ~name:"hold-mux-to-enable" ~cls:R.Micro
    ~find:(fun ctx ->
      List.filter_map
        (fun (mx : D.comp) ->
          match match_site ctx mx with
          | Some (rid, _, _, _, _) ->
              Some (R.site ~comps:[ mx.D.id; rid ] "hold mux -> enable")
          | None -> None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ mxid; rid ]
        when D.comp_opt ctx.R.design mxid <> None
             && D.comp_opt ctx.R.design rid <> None -> (
          let mx = D.comp ctx.R.design mxid in
          match match_site ctx mx with
          | Some (rid', bits, kind, controls, inverting) when rid' = rid ->
              let sel = conn ctx mxid "S0" in
              let new_data =
                List.map
                  (fun i -> conn ctx mxid (Printf.sprintf "D1_%d" i))
                  (List.init bits (fun i -> i))
              in
              R.remove_comp_and_dangling ctx log mxid;
              D.set_kind ~log ctx.R.design rid
                (T.Register
                   {
                     bits;
                     kind;
                     fns = [ T.Load ];
                     controls = controls @ [ T.Enable ];
                     inverting;
                   });
              (match sel with
              | Some s -> D.connect ~log ctx.R.design rid "EN" s
              | None -> ());
              List.iteri
                (fun i dn ->
                  match dn with
                  | Some n ->
                      D.connect ~log ctx.R.design rid (Printf.sprintf "D%d" i) n
                  | None -> ())
                new_data;
              true
          | Some _ | None -> false)
      | _ -> false) ()

(* Comparator outputs nobody reads disappear from the function list. *)
let comparator_prune =
  R.make ~name:"comparator-prune" ~cls:R.Micro
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          match c.D.kind with
          | T.Comparator { bits = _; fns } ->
              let dead =
                List.filter
                  (fun fn ->
                    match conn ctx c.D.id (T.cmp_fn_name fn) with
                    | None -> true
                    | Some nid ->
                        R.fanout ctx nid = 0 && not (R.net_is_port ctx nid))
                  fns
              in
              if dead <> [] && List.length dead < List.length fns then
                Some (R.site ~comps:[ c.D.id ] "prune comparator outputs")
              else None
          | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Logic_unit _
          | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Constant _
          | T.Macro _ | T.Instance _ ->
              None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ cid ] when D.comp_opt ctx.R.design cid <> None -> (
          let c = D.comp ctx.R.design cid in
          match c.D.kind with
          | T.Comparator { bits; fns } ->
              let live =
                List.filter
                  (fun fn ->
                    match conn ctx cid (T.cmp_fn_name fn) with
                    | None -> false
                    | Some nid ->
                        R.fanout ctx nid > 0 || R.net_is_port ctx nid)
                  fns
              in
              if live = [] || List.length live = List.length fns then false
              else begin
                List.iter
                  (fun fn ->
                    if not (List.mem fn live) then
                      D.disconnect ~log ctx.R.design cid (T.cmp_fn_name fn))
                  fns;
                D.set_kind ~log ctx.R.design cid
                  (T.Comparator { bits; fns = live });
                true
              end
          | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Logic_unit _
          | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Constant _
          | T.Macro _ | T.Instance _ ->
              false)
      | _ -> false) ()

let rules =
  [
    adder_register_to_counter;
    add_one_to_inc;
    ripple_to_cla;
    cla_to_ripple;
    hold_mux_to_enable;
    comparator_prune;
  ]

(* --- Design statistics through compilation --------------------------- *)

(* The critic's feedback loop: compile the microarchitecture design down
   to the target technology and measure it (Figure 16). *)
type stats = {
  stat_delay : float;
  stat_area : float;
  stat_power : float;
  stat_gates : int;
}

let evaluate_design ?(input_arrivals = []) db lib target design =
  let expanded = Milo_compilers.Compile.expand_design db lib design in
  let flat = Milo_compilers.Database.flatten db expanded in
  let mapped = Milo_techmap.Table_map.map_design target flat in
  let env name = Milo_library.Technology.find target.Milo_techmap.Table_map.tech name in
  let sta = Milo_timing.Sta.analyze ~input_arrivals env mapped in
  {
    stat_delay = Milo_timing.Sta.worst_delay sta;
    stat_area = Milo_estimate.Estimate.area env mapped;
    stat_power = Milo_estimate.Estimate.power env mapped;
    stat_gates =
      Milo_netlist.Stats.two_input_equiv
        ~macro_gates:(fun m -> (env m).Milo_library.Macro.gates)
        mapped;
  }
