(* Logic rules consuming abstract-interpretation facts (the don't-care
   discipline of the paper's logic critic, Section 5).

   Both rules use the analysis as their finder and re-prove the fact
   at apply time (sites can go stale between find and apply in a
   greedy pass), so a stale site degrades to a refused application,
   never a miscompile.

   [absint-prune-unobservable] deliberately reports no [site_comps]:
   the rewrite changes the local function of its cone (it is sound
   only because the cone is masked on every path to an output), so the
   engine's cone-local rule guard must not compare it — the stage
   guards and the whole-design certification tier cover it instead.

   Neither rule is local (see [Rule.t]): their [find] reads a
   whole-design analysis and [still_const] extracts cones up to 10
   leaves deep, so the greedy step re-evaluates their candidates every
   step. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Cone = Milo_rules.Cone
module Macro = Milo_library.Macro
module Gate_comp = Milo_compilers.Gate_comp
module Absint = Milo_absint.Absint

type R.analysis += Facts of Absint.t

(* One analysis per design state, shared through the session by both
   rules' [find]s and prune's [apply]: a greedy step matches every rule
   on the same state, and a committed step advances it over its log
   ([Engine.commit_app]) instead of leaving the next find to start
   over.  An analysis of a new state (the next level design of a flow,
   its flat passes) takes over the previous analysis's kernel memo
   while the technology is the same, so one memo serves the run's
   every design under it. *)
let analyze ctx =
  match R.analysis ctx with
  | Some (Facts st) -> st
  | Some _ | None ->
      let memo =
        match R.latest_analysis ctx.R.session ctx.R.tech with
        | Some (Facts prev) -> Some (Absint.memo prev)
        | Some _ | None -> None
      in
      let st =
        Absint.analyze ?memo ~resolve:ctx.R.resolve
          (fun n -> R.find_macro ctx n)
          ctx.R.design
      in
      R.set_analysis ctx (Facts st) ~advance:(Absint.advance st);
      st

(* The kernel memo of the session's latest analysis under [tech], so
   an analysis made outside the rules (the flow's analysis stage of the
   optimized design) starts from what the run already knows.  The memo
   is keyed on the macros' physical identity, so a macro it has not
   seen is only a miss. *)
let memo session tech =
  match R.latest_analysis session tech with
  | Some (Facts st) -> Some (Absint.memo st)
  | Some _ | None -> None

(* Single-output combinational macro components only: removing one
   keeps every other net's driver intact. *)
let collapsible ctx (c : D.comp) =
  match R.macro_of ctx c with
  | Some m ->
      (not (Macro.is_sequential m))
      && List.length m.Macro.outputs = 1
      && Gate_shape.is_const m = None
  | None -> false

let output_net ctx (c : D.comp) =
  match R.macro_of ctx c with
  | Some m -> (
      match m.Macro.outputs with
      | [ o ] -> D.connection ctx.R.design c.D.id o
      | [] | _ :: _ -> None)
  | None -> None

let eligible ctx =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (c : D.comp) -> Hashtbl.replace tbl c.D.id ()) (R.scan_comps ctx);
  fun cid -> Hashtbl.mem tbl cid

(* Cone-local re-proof that [nid] is constant [v]: one exhaustive
   sweep over the cone leaves when the cone is small, checked lane by
   lane against the constant; full re-analysis otherwise. *)
let still_const ctx nid v =
  match Cone.extract ctx ~max_leaves:10 nid with
  | Some cone when cone.Cone.comps <> [] -> (
      let vectors = Cone.exhaustive cone.Cone.leaves in
      let const = Array.make (Cone.chunks vectors) (if v then -1 else 0) in
      try Cone.recheck ctx vectors const nid = None with _ -> false)
  | Some _ | None -> Absint.net_const (analyze ctx) nid = Some v

(* Replace the driver of a proved-constant net with the technology's
   constant macro.  The upstream cone goes dead and is left to the
   dead-logic cleanup. *)
let const_collapse =
  R.make ~name:"absint-const-collapse" ~cls:R.Logic
    ~find:(fun ctx ->
      let st = analyze ctx in
      let ok = eligible ctx in
      List.filter_map
        (fun (nid, v) ->
          match R.driver_comp ctx nid with
          | Some (c, _)
            when ok c.D.id && collapsible ctx c
                 && (R.fanout ctx nid > 0 || R.net_is_port ctx nid) ->
              Some
                (R.site
                   ~data:[ nid; (if v then 1 else 0) ]
                   ~comps:[ c.D.id ]
                   (Printf.sprintf "collapse %s to %d" c.D.cname
                      (if v then 1 else 0)))
          | Some _ | None -> None)
        (Absint.const_nets st))
    ~apply:(fun ctx site log ->
      match (site.R.site_comps, site.R.site_data) with
      | [ cid ], [ nid; vi ]
        when D.comp_opt ctx.R.design cid <> None
             && D.net_opt ctx.R.design nid <> None ->
          let v = vi = 1 in
          if
            output_net ctx (D.comp ctx.R.design cid) = Some nid
            && still_const ctx nid v
          then begin
            let cnet =
              Gate_comp.add_const ~log ctx.R.design ctx.R.set
                (if v then T.Vdd else T.Vss)
            in
            R.remove_comp_and_dangling ctx log cid;
            if D.net_opt ctx.R.design nid <> None then
              R.reroute ctx log ~signal:cnet ~old_net:nid;
            true
          end
          else false
      | _ -> false) ()

(* Remove a live component whose every output is masked on every path
   to an output port; its output net is tied low so the design stays
   driven (and constant-prop folds the consumers afterwards). *)
let prune_unobservable =
  R.make ~name:"absint-prune-unobservable" ~cls:R.Logic
    ~find:(fun ctx ->
      let st = analyze ctx in
      let ok = eligible ctx in
      List.filter_map
        (fun cid ->
          match D.comp_opt ctx.R.design cid with
          | Some c
            when ok cid && collapsible ctx c && output_net ctx c <> None ->
              Some
                (R.site ~data:[ cid ] ~comps:[]
                   (Printf.sprintf "prune unobservable %s" c.D.cname))
          | Some _ | None -> None)
        (Absint.unobservable_comps st))
    ~apply:(fun ctx site log ->
      match site.R.site_data with
      | [ cid ] when D.comp_opt ctx.R.design cid <> None -> (
          let c = D.comp ctx.R.design cid in
          match output_net ctx c with
          | Some nid when collapsible ctx c ->
              let st = analyze ctx in
              if
                Absint.comp_live st cid
                && not (Absint.comp_observable st cid)
              then begin
                R.remove_comp_and_dangling ctx log cid;
                if D.net_opt ctx.R.design nid <> None then begin
                  let cnet =
                    Gate_comp.add_const ~log ctx.R.design ctx.R.set T.Vss
                  in
                  R.reroute ctx log ~signal:cnet ~old_net:nid
                end;
                true
              end
              else false
          | Some _ | None -> false)
      | _ -> false) ()

let rules = [ const_collapse; prune_unobservable ]
