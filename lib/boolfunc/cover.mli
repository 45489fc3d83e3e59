(** Sum-of-products covers (cube lists) over a common variable set,
    with the tautology / containment / complement operations the
    two-level minimizer needs. *)

type t

val create : int -> Cube.t list -> t
val n : t -> int
val cubes : t -> Cube.t list
val is_empty : t -> bool
val size : t -> int
val literal_count : t -> int
val eval : t -> bool array -> bool
val eval_index : t -> int -> bool
val of_truth_table : Truth_table.t -> t
val to_truth_table : t -> Truth_table.t
val minterms : t -> int list
val cofactor : t -> int -> bool -> t
val is_tautology : t -> bool
val covers_cube : t -> Cube.t -> bool
val covers : t -> t -> bool
val equivalent : t -> t -> bool
val single_cube_containment : t -> t
val union : t -> t -> t
val complement : t -> t
val to_string : (int -> string) -> t -> string
