(** Single-output combinational cones: extraction, evaluation and
    replacement — the machinery behind strategies 4, 6, 7 and 8 — and
    the one cone check behind the engine's rule guard, offline rule
    certification and the constant re-proof of
    [absint-const-collapse]. *)

module D = Milo_netlist.Design
module R = Rule
open Milo_boolfunc

type t = { out_net : int; leaves : int list; comps : int list }

val expandable :
  R.context -> int -> (D.comp * Milo_library.Macro.t * Truth_table.t) option
(** The net's driver when it is a single-output truth-table macro, with
    its table: the components a cone grows through. *)

val extract : R.context -> max_leaves:int -> int -> t option

val digest : R.context -> t -> string
(** Canonical structural digest of the cone's logic over its leaf
    variables: equal digests mean equal functions within one
    technology (kinds carry only macro names — include the library in
    any cross-design cache key). *)

(** {2 The cone check}

    Snapshot a net's function over its cone leaves with [sweep], edit
    the design, then [recheck] the net against the snapshot.  Both run
    on [Eval.Packed] words, one leaf assignment per lane. *)

exception Unverifiable
(** The net reaches a net that is neither assigned nor driven by an
    [expandable] macro, or sits on a combinational cycle. *)

val eval : R.context -> (int * int) list -> int -> int
(** [eval ctx assignment nid]: [nid]'s packed value under a word per
    assigned net, expanding through [expandable] drivers.  Over a cone
    [extract] built, this is the cone's function of its leaves.
    Raises [Unverifiable]. *)

type vectors
(** Leaf assignments packed into chunks of [Eval.Packed.lanes] lanes,
    each chunk with the mask of its live lanes. *)

val exhaustive : int list -> vectors
(** All [2^n] assignments of [n] leaves: minterm [c*lanes + l] sits in
    lane [l] of chunk [c], leaf [i] taking bit [i] of the minterm. *)

val of_masks : int list -> int list -> vectors
(** [of_masks leaves masks]: one lane per mask, in order; leaf [i]
    takes bit [i] of its mask. *)

val chunks : vectors -> int
(** The number of words a [sweep] over these vectors returns. *)

val sweep : R.context -> vectors -> int -> int array
(** One word per chunk.  Raises [Unverifiable]. *)

val recheck :
  R.context -> vectors -> int array -> int -> (int * bool) list option
(** [recheck ctx vectors before nid]: [None] when [nid] still computes
    [before] on every live lane, else the leaf assignment of the first
    lane that differs.  Raises [Unverifiable]. *)

val site_outputs : R.context -> R.site -> int list
(** Output nets of the site's components: the signals a rule may
    restructure but must not change the function of. *)

val truth_table : R.context -> t -> Truth_table.t option
(** [None] when the cone has more than 6 leaves.  Raises
    [Unverifiable] on a combinational cycle. *)

val minterms : R.context -> t -> int list
(** On-set minterms, highest first, from one exhaustive sweep.  Raises
    [Unverifiable] on a combinational cycle. *)

val replace : R.context -> D.log -> t -> build:(unit -> int) -> bool
(** Disconnect the old driver and merge the net [build] returns into the
    cone output.  Dead logic is left for the cleanup rules. *)

val area : R.context -> t -> float
