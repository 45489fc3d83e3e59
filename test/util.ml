(* Shared test helpers. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

let generic () = Milo_library.Generic.get ()
let ecl () = Milo_library.Ecl.get ()
let cmos () = Milo_library.Cmos.get ()
let env_gen () = Milo_sim.Simulator.env_of_techs [ generic () ]
let env_ecl () = Milo_sim.Simulator.env_of_techs [ ecl () ]
let env_cmos () = Milo_sim.Simulator.env_of_techs [ cmos () ]

(* A behavioural reference design: one micro component wired straight to
   ports. *)
let micro_reference kind =
  let d = D.create ("ref_" ^ T.kind_name kind) in
  let cid = D.add_comp d kind in
  List.iter
    (fun (p, dir) ->
      let nid = D.add_port d p dir in
      D.connect d cid p nid)
    (T.pins_of_kind kind);
  d

let check_equiv ?(seq = false) ?(cycles = 64) ?(runs = 4) env1 d1 env2 d2 =
  let r =
    if seq then Milo_sim.Equiv.sequential ~cycles ~runs env1 d1 env2 d2
    else Milo_sim.Equiv.combinational env1 d1 env2 d2
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s ~ %s: %s" (D.name d1) (D.name d2)
       (Format.asprintf "%a" Milo_sim.Equiv.pp_result r))
    true
    (Milo_sim.Equiv.is_equivalent r)

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ?print ~name gen prop)

(* Compile a kind fully flat over the generic library. *)
let compile_flat kind =
  let db = Milo_compilers.Database.create () in
  Milo_compilers.Compile.compile_flat db (generic ()) kind

let ctx_for tech design =
  let prefix =
    match Milo_library.Technology.name tech with
    | "ecl" -> "E_"
    | "cmos" -> "C_"
    | _ -> ""
  in
  Milo_rules.Rule.make_context tech
    (Milo_compilers.Gate_comp.named_set ~prefix tech)
    design

let mapped_workload ~gates ~seed =
  let d = Milo_designs.Workload.random_logic ~gates ~seed () in
  let target = Milo_techmap.Table_map.ecl_target () in
  Milo_techmap.Table_map.map_design target d
