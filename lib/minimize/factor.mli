(** Recursive algebraic factoring of SOP covers into multi-level
    expression trees (kernel-based, MIS-style). *)

type expr =
  | Const of bool
  | Lit of int * bool  (** variable, polarity *)
  | And_e of expr list
  | Or_e of expr list
  | Not_e of expr

val literal_count : expr -> int
val eval : (int -> bool) -> expr -> bool
val of_cover : Milo_boolfunc.Cover.t -> expr
val to_string : (int -> string) -> expr -> string
