(** Truth tables of up to 6 variables packed into an int64.

    Functions of up to five variables key into a 32-bit word ({!key32}),
    exactly the hash-table representation the paper's strategies 4 and 6
    use for macro selection; {!canonical} collapses input-permutation
    variants (Figure 10). *)

type t

val max_vars : int
val create : int -> int64 -> t
val vars : t -> int
val bits : t -> int64
val of_fun : int -> (bool array -> bool) -> t
val eval : t -> bool array -> bool
val eval_index : t -> int -> bool
(** Evaluate on the minterm index (bit [i] of the index = variable [i]). *)

val const : int -> bool -> t
val var : int -> int -> t
(** [var vars i] is the projection on variable [i]. *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val is_const : t -> bool option
val cofactor : t -> int -> bool -> t
val depends_on : t -> int -> bool
val support : t -> int list

val key32 : t -> int
(** 32-bit key (≤ 5 variables; raises otherwise).  Smaller functions are
    replicated so the key is arity-insensitive. *)

val permutations : 'a list -> 'a list list
(** All permutations of a small list. *)

val permute : t -> int list -> t
(** [permute t perm]: the table whose variable [i] feeds [t]'s variable
    [List.nth perm i]; each minterm's bit is gathered from [t] by
    index.  Raises [Invalid_argument] when [perm] is longer than the
    arity or names a variable out of range. *)

val canonical : t -> t
(** Minimal table over all input permutations (identity for > 5 vars).
    Each arity's permutations and their gather tables are built once. *)

val find_permutation : t -> t -> int list option
(** [find_permutation t target]: the first permutation [p], in
    {!permutations} order, with [permute t p] equal to [target]; [None]
    when there is none or the arities differ.  Reads the gather tables
    {!canonical} reads.  Raises [Invalid_argument] past 5 variables. *)

val canonical_key : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
