(** Algebraic (weak) division and kernel extraction over symbolic SOP
    covers (MIS-style), the engine behind strategy 3/7 factoring. *)

type cube
(** A set of literal ids, [2*var] positive and [2*var+1] negative, as
    one int with bit [l] set iff literal [l] is present. *)

type alg = cube list

val lit_pos : int -> int
val lit_var : int -> int
val lit_polarity : int -> bool
val cube_of_list : int list -> cube

val literals : cube -> int list
(** Literal ids, ascending. *)

val compare : cube -> cube -> int
(** [Stdlib.compare] on the cubes' {!literals} lists. *)

val diff : cube -> cube -> cube
val cube_union : cube -> cube -> cube

val of_cover : Milo_boolfunc.Cover.t -> alg
(** @raise Invalid_argument above 31 variables. *)

val dedup : alg -> alg
(** Sorted by {!compare}, duplicates removed. *)

val divide : alg -> alg -> alg * alg
(** [divide f d] = (quotient, remainder) with [f = d*q + r]. *)

val common_literals : alg -> cube
val kernels : alg -> (cube * alg) list
(** All (co-kernel, kernel) pairs. *)

val best_kernel : alg -> alg option
(** Kernel with the best literal-savings score, if any divisor helps. *)
