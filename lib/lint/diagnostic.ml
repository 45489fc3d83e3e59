(* Structured lint diagnostics.

   Every finding carries the rule that produced it, a severity, a
   location inside the design (or a source file position for parser
   diagnostics) and a human-readable message.  The flow, the CLI and
   [Lint.check] all speak this one type. *)

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

let make ~rule ~severity ~loc fmt =
  Printf.ksprintf (fun message -> { rule; severity; loc; message }) fmt

let parse_error ~file ?line fmt =
  Printf.ksprintf
    (fun message ->
      { rule = "parse"; severity = Error; loc = File { file; line }; message })
    fmt

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let loc_to_string = function
  | Comp { cname; ckind } -> Printf.sprintf "comp %s (%s)" cname ckind
  | Net { nname } -> Printf.sprintf "net %s" nname
  | Pin { cname; ckind; pin } ->
      Printf.sprintf "pin %s.%s (%s)" cname pin ckind
  | Port p -> Printf.sprintf "port %s" p
  | File { file; line = Some l } -> Printf.sprintf "%s:%d" file l
  | File { file; line = None } -> file
  | Design -> "design"

(* File locations use the compiler-style "file:line: severity: message"
   shape so editors can jump to them; design locations lead with the
   severity and rule id. *)
let to_string d =
  match d.loc with
  | File _ ->
      Printf.sprintf "%s: %s: %s" (loc_to_string d.loc)
        (severity_name d.severity) d.message
  | Comp _ | Net _ | Pin _ | Port _ | Design ->
      Printf.sprintf "%s: [%s] %s: %s" (severity_name d.severity) d.rule
        (loc_to_string d.loc) d.message

let order d =
  (severity_rank d.severity, d.rule, loc_to_string d.loc, d.message)

let compare_diag a b = compare (order a) (order b)

(* --- JSON ------------------------------------------------------------ *)

let json_str = Milo_trace.Export.quote

let loc_to_json = function
  | Comp { cname; ckind } ->
      Printf.sprintf "{\"kind\":\"comp\",\"comp\":%s,\"type\":%s}"
        (json_str cname) (json_str ckind)
  | Net { nname } ->
      Printf.sprintf "{\"kind\":\"net\",\"net\":%s}" (json_str nname)
  | Pin { cname; ckind; pin } ->
      Printf.sprintf "{\"kind\":\"pin\",\"comp\":%s,\"type\":%s,\"pin\":%s}"
        (json_str cname) (json_str ckind) (json_str pin)
  | Port p -> Printf.sprintf "{\"kind\":\"port\",\"port\":%s}" (json_str p)
  | File { file; line } ->
      Printf.sprintf "{\"kind\":\"file\",\"file\":%s%s}" (json_str file)
        (match line with
        | Some l -> Printf.sprintf ",\"line\":%d" l
        | None -> "")
  | Design -> "{\"kind\":\"design\"}"

let to_json d =
  Printf.sprintf "{\"rule\":%s,\"severity\":%s,\"loc\":%s,\"message\":%s}"
    (json_str d.rule)
    (json_str (severity_name d.severity))
    (loc_to_json d.loc) (json_str d.message)
