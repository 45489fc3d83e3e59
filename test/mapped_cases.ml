(* Mapped inputs of the per-level greedy pass, shared by the optimizer
   tests and the greedy suite: designs 1-8 under ECL and CMOS, and
   random logic under ECL. *)

module Table_map = Milo_techmap.Table_map

let mapped_design ~gates ~seed =
  let src = Milo_designs.Workload.random_logic ~gates ~seed () in
  let target = Table_map.ecl_target () in
  (src, Table_map.map_design target src)

let designs () =
  List.concat_map
    (fun (case : Milo_designs.Suite.case) ->
      List.map
        (fun tech ->
          ( case.Milo_designs.Suite.case_name ^ "/" ^ Milo.Flow.technology_name tech,
            Milo.Flow.target_of tech,
            fst
              (Milo.Flow.human_baseline ~technology:tech
                 case.Milo_designs.Suite.case_design) ))
        [ Milo.Flow.Ecl; Milo.Flow.Cmos ])
    (Milo_designs.Suite.all ())

let random_logic gates =
  ( Printf.sprintf "random_logic_%d/ecl" gates,
    Table_map.ecl_target (),
    snd (mapped_design ~gates ~seed:7) )
