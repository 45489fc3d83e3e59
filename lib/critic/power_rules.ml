(* The power critic: rules that decrease power, typically at the expense
   of speed — the inverse of the timing critic's power-up swap. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Macro = Milo_library.Macro
module Tech = Milo_library.Technology

let standard_power_swap =
  R.make ~name:"standard-power-swap" ~cls:R.Power
    ~find:(fun ctx ->
      R.macro_comps ctx (fun _c m ->
          m.Macro.power_level = Macro.High
          && Tech.standard_variant ctx.R.tech m.Macro.mname <> None)
      |> List.map (fun (c : D.comp) ->
             R.site ~comps:[ c.D.id ] ("power down " ^ c.D.cname)))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ cid ] when D.comp_opt ctx.R.design cid <> None -> (
          let c = D.comp ctx.R.design cid in
          match R.macro_of ctx c with
          | Some m -> (
              match Tech.standard_variant ctx.R.tech m.Macro.mname with
              | Some sv ->
                  D.set_kind ~log ctx.R.design cid (T.Macro sv.Macro.mname);
                  true
              | None -> false)
          | None -> false)
      | _ -> false) ()

let rules = [ standard_power_swap ]
