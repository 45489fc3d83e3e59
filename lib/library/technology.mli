(** A technology: a named macro set with the lookup structures the
    optimizers need — notably the 32-bit truth-table hash index used by
    strategies 4 and 6 for macro selection. *)

open Milo_boolfunc

type t

val create : string -> Macro.t list -> t
val name : t -> string
val mem : t -> string -> bool
val find : t -> string -> Macro.t
val find_opt : t -> string -> Macro.t option
val all : t -> Macro.t list

val resolver :
  ?instance:(string -> (string * Milo_netlist.Types.dir) list) ->
  t ->
  Milo_netlist.Design.resolver
(** Pin resolver for [Macro] references; [instance] resolves [Instance]
    references (the design database provides it). *)

val matches_for : t -> Truth_table.t -> (Macro.t * int list) list
(** Macros realizing the function (≤ 5 vars), each with the permutation
    [perm] such that [permute tt perm] equals the macro's table —
    i.e. macro input [i] must receive target variable [List.nth perm i].
    Answers are memoised in the technology by table; safe to call from
    several domains. *)

val power_variants : t -> string -> string list
val high_power_variant : t -> string -> Macro.t option
(** Same-function macro at higher power / lower delay (strategy 2). *)

val standard_variant : t -> string -> Macro.t option
val gate_arities : t -> string -> int list
(** Available arities for a gate family prefix, e.g.
    [gate_arities ecl "E_OR"] = [[2;3;4;5]]. *)

val macro_gates : t -> string -> float
(** Two-input-equivalent complexity of a macro (1.0 if unknown). *)

val once : (unit -> 'a) -> unit -> 'a
(** [once f] runs [f] on its first call and returns that value ever
    after, even when several domains make the first call at once (a
    cold [Lazy.force] from two domains raises instead).  The built-in
    libraries are process-wide singletons made this way. *)
