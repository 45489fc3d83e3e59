(** Structured lint diagnostics: rule id, severity, design (or source
    file) location, message.  The common currency of the lint passes,
    the flow's stage invariants, [Lint.check] and the CLI. *)

type severity = Error | Warning | Info

type location =
  | Comp of { cname : string; ckind : string }
  | Net of { nname : string }
  | Pin of { cname : string; ckind : string; pin : string }
  | Port of string
  | File of { file : string; line : int option }
  | Design

type t = {
  rule : string;
  severity : severity;
  loc : location;
  message : string;
}

val make :
  rule:string ->
  severity:severity ->
  loc:location ->
  ('a, unit, string, t) format4 ->
  'a

val parse_error :
  file:string -> ?line:int -> ('a, unit, string, t) format4 -> 'a
(** An [Error] diagnostic at a source-file position (rule ["parse"]);
    renders as "file:line: error: message". *)

val severity_name : severity -> string
val severity_rank : severity -> int
(** [Error] ranks lowest (most severe first when sorting). *)

val loc_to_string : location -> string

val to_string : t -> string
(** One-line human-readable rendering. *)

val compare_diag : t -> t -> int
(** Orders by severity, then rule id, then location. *)

val to_json : t -> string
