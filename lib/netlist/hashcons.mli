(** Hash-consed structural identity: interned component kinds and
    memoized per-design digests, keyed on physical identity and
    invalidated by {!Design.generation}.

    Digests are built from canonical spec strings (never session-local
    ids), so they are stable across processes and safe to persist. *)

val kind_id : Types.kind -> int
(** Compact session-local id of an interned kind.  Equal kinds get
    equal ids; ids are NOT stable across processes — use them as
    in-memory cache keys only. *)

val kind_spec : Types.kind -> string
(** Memoized {!Writer.kind_spec}. *)

val design_digest : Design.t -> string
(** Hex MD5 of the design's structure (name, ports, nets, components,
    kinds, connectivity).  O(1) while the design's generation is
    unchanged; equal iff structurally equal (modulo digest collision). *)

val equal_structure : Design.t -> Design.t -> bool
(** Digest-based structural equality; O(1) on repeated comparisons of
    unchanged designs. *)
