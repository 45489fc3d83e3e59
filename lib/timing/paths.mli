(** Critical-path set extraction and point-of-optimization selection
    (Section 4's two criteria: most-traversed component, then closest to
    an external input). *)

val critical_set : ?required:float -> Sta.t -> Sta.path list
val comps_of_path : Sta.path -> int list
val select_point : ?required:float -> Sta.t -> int option
val most_critical : ?required:float -> Sta.t -> Sta.path option
