(* The second mux + flip-flop merge of the paper's ABADD example
   (Figure 18): once each REG4 bit has become a MUXFF2 (2:1 mux fused
   with its flip-flop), the datapath's own 2:1 input multiplexor can
   fuse in as well, producing the 4:1-mux-with-flip-flop macro —
   "making use of high-level macros that have 4-1 multiplexors combined
   with a flip-flop". *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Macro = Milo_library.Macro

let prefix_of ctx =
  match Milo_library.Technology.name ctx.R.tech with
  | "ecl" -> "E_"
  | "cmos" -> "C_"
  | _ -> ""

(* A MUXFF2-style macro: a flip-flop with a 2-input mux on its data,
   no set/enable wrapping, not inverting, not a latch. *)
let muxff2_of ctx (c : D.comp) =
  match R.macro_of ctx c with
  | Some
      ({
         Macro.behavior =
           Macro.Seq_dff
             { data = Macro.Muxed 2; latch = false; has_set = false;
               has_reset; has_enable = false; inverting = false };
         _;
       } as m) ->
      Some (m, has_reset)
  | Some _ | None -> None

let mux2_driver ctx nid =
  if R.fanout ctx nid <> 1 || R.net_is_port ctx nid then None
  else
    match R.driver_comp ctx nid with
    | Some (mx, _) -> (
        match R.macro_of ctx mx with
        | Some mm when Gate_shape.mux_inputs mm = Some 2 -> Some mx
        | Some _ | None -> None)
    | None -> None

let mux_into_muxff =
  R.make ~local:true ~name:"mux-into-muxff" ~cls:R.Logic
    ~find:(fun ctx ->
      List.concat_map
        (fun (ff : D.comp) ->
          match muxff2_of ctx ff with
          | None -> []
          | Some (_, has_reset) ->
              let target =
                Printf.sprintf "%sMUXFF4%s" (prefix_of ctx)
                  (if has_reset then "_R" else "")
              in
              if not (Milo_library.Technology.mem ctx.R.tech target) then []
              else
                List.filter_map
                  (fun k ->
                    match D.connection ctx.R.design ff.D.id (Printf.sprintf "D%d" k) with
                    | Some dnet -> (
                        match mux2_driver ctx dnet with
                        | Some mx ->
                            Some
                              (R.site
                                 ~comps:[ ff.D.id; mx.D.id ]
                                 ~data:[ k ]
                                 (Printf.sprintf "mux2 into muxff2.D%d" k))
                        | None -> None)
                    | None -> None)
                  [ 0; 1 ])
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match (site.R.site_comps, site.R.site_data) with
      | [ ffid; mxid ], [ k ]
        when D.comp_opt ctx.R.design ffid <> None
             && D.comp_opt ctx.R.design mxid <> None -> (
          let ff = D.comp ctx.R.design ffid in
          match muxff2_of ctx ff with
          | None -> false
          | Some (_, has_reset) ->
              let target =
                Printf.sprintf "%sMUXFF4%s" (prefix_of ctx)
                  (if has_reset then "_R" else "")
              in
              if not (Milo_library.Technology.mem ctx.R.tech target) then false
              else begin
                let conn cid pin = D.connection ctx.R.design cid pin in
                (* old flip-flop pins *)
                let d_other = conn ffid (Printf.sprintf "D%d" (1 - k)) in
                let f_sel = conn ffid "S0" in
                let clk = conn ffid "CLK" in
                let rst = conn ffid "RST" in
                let qn = conn ffid "Q" in
                (* external mux pins *)
                let a = conn mxid "D0" in
                let b = conn mxid "D1" in
                let x_sel = conn mxid "S0" in
                match (d_other, f_sel, clk, qn, a, b, x_sel) with
                | Some other, Some f, Some clk, Some qn, Some a, Some b, Some x
                  ->
                    R.remove_comp_and_dangling ctx log mxid;
                    R.replace_macro ctx log ffid target (fun _ -> None);
                    (* state' = F ? D1 : D0 with the external mux on Dk:
                       select S1 = F, S0 = X; see the case analysis in
                       the header comment. *)
                    let connect pin nid = D.connect ~log ctx.R.design ffid pin nid in
                    connect "S1" f;
                    connect "S0" x;
                    connect "CLK" clk;
                    connect "Q" qn;
                    (match rst with
                    | Some rnet when has_reset -> connect "RST" rnet
                    | Some _ | None -> ());
                    if k = 0 then begin
                      (* F=0 -> ext mux: D0=a D1=b; F=1 -> other *)
                      connect "D0" a;
                      connect "D1" b;
                      connect "D2" other;
                      connect "D3" other
                    end
                    else begin
                      connect "D0" other;
                      connect "D1" other;
                      connect "D2" a;
                      connect "D3" b
                    end;
                    true
                | _ -> false
              end)
      | _ -> false) ()

let rules = [ mux_into_muxff ]
