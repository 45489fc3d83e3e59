(* The power critic: rules that decrease power, typically at the expense
   of speed — the inverse of the timing critic's power-up swap. *)

module R = Milo_rules.Rule
module Macro = Milo_library.Macro
module Tech = Milo_library.Technology

let standard_power_swap =
  R.retarget ~name:"standard-power-swap" ~cls:R.Power ~verb:"power down"
    (fun tech mname ->
      Option.map
        (fun (v : Macro.t) -> v.Macro.mname)
        (Tech.standard_variant tech mname))

let rules = [ standard_power_swap ]
