(* The electric critic: an electrical rule checker that spots and
   corrects violations — here, fanout beyond the drive limit, fixed by
   inserting a buffer for the excess sinks (Section 6.2 notes the
   technology mapper can create such violations). *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule

let max_fanout = 8

let fanout_buffer =
  R.make ~name:"fanout-buffer" ~cls:R.Electric
    ~find:(fun ctx ->
      List.filter_map
        (fun (n : D.net) ->
          if R.fanout ctx n.D.nid > max_fanout then
            match R.driver_comp ctx n.D.nid with
            | Some (c, _) ->
                Some
                  (R.site ~comps:[ c.D.id ] ~data:[ n.D.nid ]
                     (Printf.sprintf "fanout %d on %s"
                        (R.fanout ctx n.D.nid) n.D.nname))
            | None -> None
          else None)
        (D.nets ctx.R.design))
    ~apply:(fun ctx site log ->
      match (site.R.site_comps, site.R.site_data) with
      | [ _cid ], [ nid ] when D.net_opt ctx.R.design nid <> None ->
          let sinks = D.sinks ~resolve:ctx.R.resolve ctx.R.design nid in
          if List.length sinks <= max_fanout then false
          else begin
            (* Move the second half of the sinks behind a buffer. *)
            let half = List.length sinks / 2 in
            let moved = List.filteri (fun i _ -> i >= half) sinks in
            let buf_out =
              Milo_compilers.Gate_comp.build ~log ctx.R.design ctx.R.set T.Buf
                [ nid ]
            in
            List.iter
              (fun (cid, pin) -> D.connect ~log ctx.R.design cid pin buf_out)
              moved;
            true
          end
      | _ -> false) ()

(* Violations currently present (for reporting). *)
let violations ctx =
  List.filter_map
    (fun (n : D.net) ->
      let f = R.fanout ctx n.D.nid in
      if f > max_fanout then Some (n.D.nname, f) else None)
    (D.nets ctx.R.design)

let rules = [ fanout_buffer ]
