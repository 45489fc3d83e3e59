(** Cubes (product terms) over up to 62 variables. *)

type t

val universe : int -> t
(** The cube with no literals (constant true) over [n] variables. *)

val n : t -> int
val of_literals : int -> (int * bool) list -> t
val literals : t -> (int * bool) list
val literal_count : t -> int
val is_empty : t -> bool
val eval : t -> bool array -> bool
val eval_index : t -> int -> bool
val intersect : t -> t -> t option
val contains : t -> t -> bool
(** [contains a b]: every minterm of [b] is in [a]. *)

val cofactor : t -> int -> bool -> t option
val has_var : t -> int -> bool
val polarity : t -> int -> bool option
val remove_var : t -> int -> t
val consensus_merge : t -> t -> t option
(** Quine–McCluskey adjacency merge when the cubes differ in exactly one
    variable's polarity. *)

val of_minterm : int -> int -> t
val minterms : t -> int list
val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : (int -> string) -> t -> string
