(* Durable write-ahead journal: CRC-framed typed records over a plain
   text encoding, with an append + tmp/rename-commit durability
   discipline and longest-valid-prefix recovery. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Writer = Milo_netlist.Writer
module Parser = Milo_netlist.Parser

type header = {
  h_design : string;
  h_hash : string;
  h_tech : string;
  h_required : float;
  h_arrivals : (string * float) list;
  h_lint : string;
  h_guard : string;
  h_certify : bool;
  h_timeout : float option;
  h_max_steps : int option;
  h_max_evals : int option;
  h_domains : int;
      (* domain count the run was started with; journals from before
         the field was always written decode to 1 *)
}

type timing = {
  t_met : bool;
  t_final : float;
  t_steps : (string * string * float * float) list;
}

type checkpoint = {
  ck_stage : string;
  ck_steps : int;
  ck_evals : int;
  ck_elapsed : float;
  ck_guard : int array;
  ck_tick : int;
  ck_seen : string list;
  ck_quarantine : (string * int * string * string) list;
  ck_micro : (string * string) list;
  ck_levels : (string * int * float * float) list;
  ck_timing : timing option;
  ck_design : D.t;
}

exception Journal_error of string

let () =
  Printexc.register_printer (function
    | Journal_error msg -> Some ("journal error: " ^ msg)
    | _ -> None)

exception Crash of int

type record =
  | Header of header
  | Stage of string
  | Delta of {
      d_stage : string;
      d_label : string option;
      d_hash : string option;
      d_entries : D.entry list;
      d_attr : D.attribution;
      d_budget : (int * int * float) option;
      d_shape : (int * int) option;
    }
  | Checkpoint of checkpoint
  | Finish of {
      f_outcome : string;
      f_delay : float;
      f_area : float;
      f_power : float;
      f_gates : int;
      f_comps : int;
    }

(* --- CRC-32 (IEEE 802.3, table-driven) -------------------------------- *)

(* Built when the module initialises: a cold [lazy] forced by two
   journaling domains at once raises on one of them. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor crc_table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* --- Token encoding ---------------------------------------------------- *)

(* Payload lines are space-separated tokens; strings that may contain
   anything (names, rule labels, kind specs) are OCaml-%S-quoted. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let q = Printf.sprintf "%S"
let fl = Printf.sprintf "%h"

(* Tokenizer recognizing %S-quoted strings: backslash escapes for the
   backslash, the double quote, n/t/r/b, and decimal ddd — everything
   Printf %S emits. *)
let lex line =
  let n = String.length line in
  let rec skip i = if i < n && line.[i] = ' ' then skip (i + 1) else i in
  let rec go i acc =
    let i = skip i in
    if i >= n then List.rev acc
    else if line.[i] = '"' then begin
      let buf = Buffer.create 16 in
      let rec scan j =
        if j >= n then corrupt "unterminated string"
        else
          match line.[j] with
          | '"' -> j + 1
          | '\\' ->
              if j + 1 >= n then corrupt "dangling escape"
              else begin
                (match line.[j + 1] with
                | 'n' -> Buffer.add_char buf '\n'
                | 't' -> Buffer.add_char buf '\t'
                | 'r' -> Buffer.add_char buf '\r'
                | 'b' -> Buffer.add_char buf '\b'
                | '0' .. '9' ->
                    if j + 3 >= n then corrupt "short decimal escape"
                    else begin
                      match int_of_string_opt (String.sub line (j + 1) 3) with
                      | Some code when code >= 0 && code <= 255 ->
                          Buffer.add_char buf (Char.chr code)
                      | Some _ | None -> corrupt "bad decimal escape"
                    end
                | c -> Buffer.add_char buf c);
                match line.[j + 1] with
                | '0' .. '9' -> scan (j + 4)
                | _ -> scan (j + 2)
              end
          | c ->
              Buffer.add_char buf c;
              scan (j + 1)
      in
      let next = scan (i + 1) in
      go next (Buffer.contents buf :: acc)
    end
    else begin
      let j = match String.index_from_opt line i ' ' with
        | Some j -> j
        | None -> n
      in
      go j (String.sub line i (j - i) :: acc)
    end
  in
  go 0 []

let int_tok s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> corrupt "expected integer, got %s" s

let float_tok s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> corrupt "expected float, got %s" s

(* A budget's elapsed seconds are written at a fixed width, exactly:
   'x' and the 16 hex digits of the IEEE bit pattern, so a journal's
   size does not depend on how long its run took.  Journals written
   before used %h, which [elapsed_tok] still reads. *)
let elapsed_fl t = Printf.sprintf "x%016Lx" (Int64.bits_of_float t)

let elapsed_tok s =
  if String.length s = 17 && s.[0] = 'x' then
    match Int64.of_string_opt ("0x" ^ String.sub s 1 16) with
    | Some bits -> Int64.float_of_bits bits
    | None -> corrupt "expected elapsed time, got %s" s
  else float_tok s

let bool_tok s = int_tok s <> 0

let opt_tok of_tok = function "-" -> None | s -> Some (of_tok s)
let opt_str f = function None -> "-" | Some v -> f v

let kind_tok s =
  match Parser.kind_of_string s with
  | k -> k
  | exception Parser.Parse_error (_, msg) -> corrupt "bad kind: %s" msg

(* --- Design snapshots --------------------------------------------------- *)

(* Id-exact, deterministic serialization: components and nets in id
   order, connections in pin order, ports in declaration order.  The
   id counters are recorded only in stored snapshots ([counters:true]):
   the design hash must depend on structure alone, because candidate
   evaluations (apply + undo) burn ids without changing the design, so
   two structurally equal states of one run can carry different
   counters. *)
let snapshot_to_buffer ?(counters = true) b d =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  (if counters then
     let next_comp, next_net = D.counters d in
     line "d %s %d %d" (q (D.name d)) next_comp next_net
   else line "d %s" (q (D.name d)));
  List.iter (fun (n : D.net) -> line "n %d %s" n.D.nid (q n.D.nname)) (D.nets d);
  List.iter
    (fun (p, dir, nid) ->
      line "p %s %s %d" (q p)
        (match dir with T.Input -> "i" | T.Output -> "o")
        nid)
    (D.ports d);
  List.iter
    (fun (c : D.comp) ->
      line "c %d %s %s" c.D.id (q c.D.cname) (q (Writer.kind_spec c.D.kind)))
    (D.comps d);
  List.iter
    (fun (c : D.comp) ->
      List.iter
        (fun (pin, nid) -> line "j %d %s %d" c.D.id (q pin) nid)
        (D.connections d c.D.id))
    (D.comps d)

(* Hash-consed: memoized per design and invalidated by its generation
   counter, so the repeated hashing the journal does (header, every
   checkpoint, replay verification) is O(1) on an unchanged design. *)
let design_hash = Milo_netlist.Hashcons.design_digest

(* Rebuild a design from snapshot lines (already lexed).  Order within
   the snapshot is the serialization order: the "d" line first, nets
   before ports and connections. *)
let design_of_lines lines =
  let d = ref None in
  let design () =
    match !d with Some d -> d | None -> corrupt "snapshot line before 'd'"
  in
  List.iter
    (fun toks ->
      match toks with
      | [ "d"; name; nc; nn ] ->
          let dsn = D.create name in
          D.set_counters dsn ~next_comp:(int_tok nc) ~next_net:(int_tok nn);
          d := Some dsn
      | [ "n"; nid; name ] -> D.restore_net (design ()) ~id:(int_tok nid) ~name
      | [ "p"; pname; dir; nid ] ->
          let dir =
            match dir with
            | "i" -> T.Input
            | "o" -> T.Output
            | s -> corrupt "bad port direction %s" s
          in
          ignore (D.add_port ~net:(int_tok nid) (design ()) pname dir)
      | [ "c"; cid; name; spec ] ->
          D.restore_comp (design ()) ~id:(int_tok cid) ~name (kind_tok spec)
      | [ "j"; cid; pin; nid ] ->
          D.connect (design ()) (int_tok cid) pin (int_tok nid)
      | t -> corrupt "bad snapshot line: %s" (String.concat " " t))
    lines;
  design ()

(* --- Change-log entries ------------------------------------------------- *)

let entry_to_line (e : D.entry) =
  match e with
  | D.E_add_comp (cid, name, kind) ->
      Printf.sprintf "addc %d %s %s" cid (q name) (q (Writer.kind_spec kind))
  | D.E_remove_comp (cid, name, kind, saved) ->
      Printf.sprintf "remc %d %s %s%s" cid (q name)
        (q (Writer.kind_spec kind))
        (String.concat ""
           (List.map
              (fun (pin, nid) -> Printf.sprintf " %s %d" (q pin) nid)
              saved))
  | D.E_connect (cid, pin, prev, now) ->
      Printf.sprintf "conn %d %s %s %s" cid (q pin)
        (opt_str string_of_int prev)
        (opt_str string_of_int now)
  | D.E_add_net (nid, name) -> Printf.sprintf "addn %d %s" nid (q name)
  | D.E_remove_net (nid, name, port) -> (
      match port with
      | None -> Printf.sprintf "remn %d %s -" nid (q name)
      | Some (p, dir) ->
          Printf.sprintf "remn %d %s %s %s" nid (q name)
            (match dir with T.Input -> "i" | T.Output -> "o")
            (q p))
  | D.E_set_kind (cid, old_k, new_k) ->
      Printf.sprintf "setk %d %s %s" cid
        (q (Writer.kind_spec old_k))
        (q (Writer.kind_spec new_k))

let entry_of_tokens toks : D.entry =
  match toks with
  | [ "addc"; cid; name; spec ] ->
      D.E_add_comp (int_tok cid, name, kind_tok spec)
  | "remc" :: cid :: name :: spec :: saved ->
      let rec pairs = function
        | [] -> []
        | pin :: nid :: rest -> (pin, int_tok nid) :: pairs rest
        | [ _ ] -> corrupt "odd saved-connection list"
      in
      D.E_remove_comp (int_tok cid, name, kind_tok spec, pairs saved)
  | [ "conn"; cid; pin; prev; now ] ->
      D.E_connect (int_tok cid, pin, opt_tok int_tok prev, opt_tok int_tok now)
  | [ "addn"; nid; name ] -> D.E_add_net (int_tok nid, name)
  | [ "remn"; nid; name; "-" ] -> D.E_remove_net (int_tok nid, name, None)
  | [ "remn"; nid; name; dir; p ] ->
      let dir =
        match dir with
        | "i" -> T.Input
        | "o" -> T.Output
        | s -> corrupt "bad port direction %s" s
      in
      D.E_remove_net (int_tok nid, name, Some (p, dir))
  | [ "setk"; cid; old_k; new_k ] ->
      D.E_set_kind (int_tok cid, kind_tok old_k, kind_tok new_k)
  | t -> corrupt "bad entry line: %s" (String.concat " " t)

(* --- Record payloads ---------------------------------------------------- *)

let header_payload h =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "version 1";
  line "design %s" (q h.h_design);
  line "hash %s" h.h_hash;
  line "tech %s" (q h.h_tech);
  line "required %s" (fl h.h_required);
  List.iter (fun (p, a) -> line "arrival %s %s" (q p) (fl a)) h.h_arrivals;
  line "lint %s" (q h.h_lint);
  line "guard %s" (q h.h_guard);
  line "certify %d" (if h.h_certify then 1 else 0);
  line "timeout %s" (opt_str fl h.h_timeout);
  line "max_steps %s" (opt_str string_of_int h.h_max_steps);
  line "max_evals %s" (opt_str string_of_int h.h_max_evals);
  line "domains %d" h.h_domains;
  Buffer.contents b

let header_of_lines lines =
  let h =
    ref
      {
        h_design = "";
        h_hash = "";
        h_tech = "";
        h_required = infinity;
        h_arrivals = [];
        h_lint = "off";
        h_guard = "off";
        h_certify = true;
        h_timeout = None;
        h_max_steps = None;
        h_max_evals = None;
        h_domains = 1;
      }
  in
  List.iter
    (fun toks ->
      match toks with
      | [ "version"; v ] ->
          if int_tok v <> 1 then corrupt "unsupported journal version %s" v
      | [ "design"; s ] -> h := { !h with h_design = s }
      | [ "hash"; s ] -> h := { !h with h_hash = s }
      | [ "tech"; s ] -> h := { !h with h_tech = s }
      | [ "required"; s ] -> h := { !h with h_required = float_tok s }
      | [ "arrival"; p; a ] ->
          h := { !h with h_arrivals = !h.h_arrivals @ [ (p, float_tok a) ] }
      | [ "lint"; s ] -> h := { !h with h_lint = s }
      (* Written by journals from before measurement was always
         incremental; nothing reads it any more. *)
      | [ "incremental"; _ ] -> ()
      | [ "guard"; s ] -> h := { !h with h_guard = s }
      | [ "certify"; s ] -> h := { !h with h_certify = bool_tok s }
      | [ "timeout"; s ] -> h := { !h with h_timeout = opt_tok float_tok s }
      | [ "max_steps"; s ] -> h := { !h with h_max_steps = opt_tok int_tok s }
      | [ "max_evals"; s ] -> h := { !h with h_max_evals = opt_tok int_tok s }
      | [ "domains"; s ] -> h := { !h with h_domains = int_tok s }
      | t -> corrupt "bad header line: %s" (String.concat " " t))
    lines;
  !h

(* Attribution, budget and shape are one optional line each, so a
   delta without them (written before they existed) still decodes. *)
let delta_payload ~stage ~label ~hash ~(attr : D.attribution) ~budget ~shape
    entries =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let cost name (c : Milo_trace.Trace.cost) =
    line "%s %s %s %s" name (fl c.delay) (fl c.area) (fl c.power)
  in
  line "stage %s" stage;
  Option.iter (fun l -> line "label %s" (q l)) label;
  line "hash %s" (opt_str Fun.id hash);
  Option.iter (fun s -> line "site %s" (q s)) attr.at_site;
  Option.iter (fun v -> line "verdict %s" (D.verdict_name v)) attr.at_verdict;
  Option.iter (cost "before") attr.at_before;
  Option.iter (cost "after") attr.at_after;
  Option.iter
    (fun (s, e, el) -> line "budget %d %d %s" s e (elapsed_fl el))
    budget;
  Option.iter (fun (c, n) -> line "shape %d %d" c n) shape;
  List.iter (fun e -> line "%s" (entry_to_line e)) entries;
  Buffer.contents b

let delta_of_lines lines =
  let stage = ref "" and label = ref None and hash = ref None in
  let attr = ref D.no_attribution and budget = ref None and shape = ref None in
  let entries = ref [] in
  let cost d a p =
    Some
      {
        Milo_trace.Trace.delay = float_tok d;
        area = float_tok a;
        power = float_tok p;
      }
  in
  List.iter
    (fun toks ->
      match toks with
      | [ "stage"; s ] -> stage := s
      | [ "label"; l ] -> label := Some l
      | [ "hash"; h ] -> hash := opt_tok Fun.id h
      | [ "site"; s ] -> attr := { !attr with at_site = Some s }
      | [ "verdict"; v ] -> (
          match D.verdict_of_name v with
          | Some _ as v -> attr := { !attr with at_verdict = v }
          | None -> corrupt "unknown verdict %s" v)
      | [ "before"; d; a; p ] -> attr := { !attr with at_before = cost d a p }
      | [ "after"; d; a; p ] -> attr := { !attr with at_after = cost d a p }
      | [ "budget"; s; e; el ] ->
          budget := Some (int_tok s, int_tok e, elapsed_tok el)
      | [ "shape"; c; n ] -> shape := Some (int_tok c, int_tok n)
      | t -> entries := entry_of_tokens t :: !entries)
    lines;
  Delta
    {
      d_stage = !stage;
      d_label = !label;
      d_hash = !hash;
      d_entries = List.rev !entries;
      d_attr = !attr;
      d_budget = !budget;
      d_shape = !shape;
    }

let checkpoint_payload ck =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "stage %s" ck.ck_stage;
  line "budget %d %d %s" ck.ck_steps ck.ck_evals (elapsed_fl ck.ck_elapsed);
  line "guard %s"
    (String.concat " " (Array.to_list (Array.map string_of_int ck.ck_guard)));
  line "tick %d" ck.ck_tick;
  List.iter (fun r -> line "seen %s" (q r)) ck.ck_seen;
  List.iter
    (fun (rule, count, msg, reason) ->
      line "quar %s %d %s %s" (q rule) count (q msg) (q reason))
    ck.ck_quarantine;
  List.iter (fun (r, descr) -> line "micro %s %s" (q r) (q descr)) ck.ck_micro;
  List.iter
    (fun (name, apps, before, after) ->
      line "level %s %d %s %s" (q name) apps (fl before) (fl after))
    ck.ck_levels;
  (match ck.ck_timing with
  | None -> ()
  | Some t ->
      line "timing %d %s" (if t.t_met then 1 else 0) (fl t.t_final);
      List.iter
        (fun (strat, detail, before, after) ->
          line "tstep %s %s %s %s" (q strat) (q detail) (fl before) (fl after))
        t.t_steps);
  snapshot_to_buffer b ck.ck_design;
  Buffer.contents b

let checkpoint_of_lines lines =
  let stage = ref "" in
  let steps = ref 0 and evals = ref 0 and elapsed = ref 0.0 in
  let guard = ref (Array.make 6 0) in
  let tick = ref 0 and seen = ref [] in
  let quarantine = ref [] and micro = ref [] and levels = ref [] in
  let timing = ref None and tsteps = ref [] in
  let snapshot = ref [] in
  List.iter
    (fun toks ->
      match toks with
      | [ "stage"; s ] -> stage := s
      | [ "budget"; s; e; el ] ->
          steps := int_tok s;
          evals := int_tok e;
          elapsed := elapsed_tok el
      | "guard" :: counters ->
          guard := Array.of_list (List.map int_tok counters)
      | [ "tick"; t ] -> tick := int_tok t
      (* Traced journals once recorded the tracer's event count here.
         Nothing reads it any more, but an unknown line would make the
         record corrupt and end recovery at that checkpoint, so the line
         is still accepted and ignored. *)
      | [ "trace"; _ ] -> ()
      | [ "seen"; r ] -> seen := r :: !seen
      | [ "quar"; rule; count; msg; reason ] ->
          quarantine := (rule, int_tok count, msg, reason) :: !quarantine
      | [ "micro"; r; descr ] -> micro := (r, descr) :: !micro
      | [ "level"; name; apps; before; after ] ->
          levels :=
            (name, int_tok apps, float_tok before, float_tok after) :: !levels
      | [ "timing"; met; final ] ->
          timing := Some (bool_tok met, float_tok final)
      | [ "tstep"; strat; detail; before; after ] ->
          tsteps := (strat, detail, float_tok before, float_tok after) :: !tsteps
      | ("d" | "n" | "p" | "c" | "j") :: _ -> snapshot := toks :: !snapshot
      | t -> corrupt "bad checkpoint line: %s" (String.concat " " t))
    lines;
  Checkpoint
    {
      ck_stage = !stage;
      ck_steps = !steps;
      ck_evals = !evals;
      ck_elapsed = !elapsed;
      ck_guard = !guard;
      ck_tick = !tick;
      ck_seen = List.rev !seen;
      ck_quarantine = List.rev !quarantine;
      ck_micro = List.rev !micro;
      ck_levels = List.rev !levels;
      ck_timing =
        (match !timing with
        | None -> None
        | Some (t_met, t_final) ->
            Some { t_met; t_final; t_steps = List.rev !tsteps });
      ck_design = design_of_lines (List.rev !snapshot);
    }

let record_type = function
  | Header _ -> "header"
  | Stage _ -> "stage"
  | Delta _ -> "delta"
  | Checkpoint _ -> "ckpt"
  | Finish _ -> "finish"

let record_payload = function
  | Header h -> header_payload h
  | Stage s -> Printf.sprintf "stage %s\n" s
  | Delta { d_stage; d_label; d_hash; d_entries; d_attr; d_budget; d_shape } ->
      delta_payload ~stage:d_stage ~label:d_label ~hash:d_hash ~attr:d_attr
        ~budget:d_budget ~shape:d_shape d_entries
  | Checkpoint ck -> checkpoint_payload ck
  | Finish { f_outcome; f_delay; f_area; f_power; f_gates; f_comps } ->
      Printf.sprintf "outcome %s\nstats %s %s %s %d %d\n" f_outcome
        (fl f_delay) (fl f_area) (fl f_power) f_gates f_comps

let record_of_payload rtype payload =
  let lines =
    String.split_on_char '\n' payload
    |> List.filter (fun l -> l <> "")
    |> List.map lex
  in
  match rtype with
  | "header" -> Header (header_of_lines lines)
  | "stage" -> (
      match lines with
      | [ [ "stage"; s ] ] -> Stage s
      | _ -> corrupt "bad stage payload")
  | "delta" -> delta_of_lines lines
  | "ckpt" -> checkpoint_of_lines lines
  | "finish" ->
      let outcome = ref "" in
      let stats = ref None in
      List.iter
        (fun toks ->
          match toks with
          | [ "outcome"; o ] -> outcome := o
          | [ "stats"; d; a; p; g; c ] ->
              stats :=
                Some (float_tok d, float_tok a, float_tok p, int_tok g,
                      int_tok c)
          | t -> corrupt "bad finish line: %s" (String.concat " " t))
        lines;
      let f_delay, f_area, f_power, f_gates, f_comps =
        match !stats with
        | Some s -> s
        | None -> corrupt "finish record without stats"
      in
      Finish { f_outcome = !outcome; f_delay; f_area; f_power; f_gates;
               f_comps }
  | t -> corrupt "unknown record type %s" t

(* --- Framing ------------------------------------------------------------ *)

let magic = "MILOJ1"

let frame r =
  let payload = record_payload r in
  Printf.sprintf "%s %s %d %08lx\n%s\n" magic (record_type r)
    (String.length payload) (crc32 payload) payload

(* --- Writer ------------------------------------------------------------- *)

type writer = {
  w_path : string;
  w_buf : Buffer.t;  (* every framed byte committed or appended so far *)
  mutable w_oc : out_channel option;
  mutable w_count : int;
  mutable w_fault : (int -> unit) option;
}

let path w = w.w_path

let fsync_oc oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Rewrite the whole journal through FILE.tmp + fsync + rename: after
   the rename the file holds either the previous committed image or
   this one, never a torn in-between. *)
let commit_image w =
  (match w.w_oc with
  | Some oc ->
      close_out oc;
      w.w_oc <- None
  | None -> ());
  let tmp = w.w_path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Buffer.output_buffer oc w.w_buf;
  fsync_oc oc;
  close_out oc;
  Sys.rename tmp w.w_path;
  w.w_oc <- Some (open_out_gen [ Open_append; Open_binary ] 0o644 w.w_path)

let fire w =
  match w.w_fault with Some f -> f w.w_count | None -> ()

let append w r =
  let s = frame r in
  Buffer.add_string w.w_buf s;
  (match w.w_oc with
  | Some oc ->
      output_string oc s;
      flush oc
  | None -> ());
  w.w_count <- w.w_count + 1;
  fire w

let commit w r =
  Buffer.add_string w.w_buf (frame r);
  commit_image w;
  w.w_count <- w.w_count + 1;
  fire w

let close w =
  match w.w_oc with
  | Some oc ->
      fsync_oc oc;
      close_out oc;
      w.w_oc <- None
  | None -> ()

let create ?fault ?(prefix = []) path =
  let w =
    {
      w_path = path;
      w_buf = Buffer.create 4096;
      w_oc = None;
      w_count = List.length prefix;
      w_fault = fault;
    }
  in
  List.iter (fun r -> Buffer.add_string w.w_buf (frame r)) prefix;
  commit_image w;
  w

(* --- Recovery ----------------------------------------------------------- *)

type recovered = {
  r_records : record list;
  r_truncated_bytes : int;
  r_total_bytes : int;
}

let recover path =
  let ic = open_in_bin path in
  let total = in_channel_length ic in
  let text = really_input_string ic total in
  close_in ic;
  let records = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok do
    match String.index_from_opt text !pos '\n' with
    | None -> ok := false
    | Some nl -> (
        let parsed =
          match lex (String.sub text !pos (nl - !pos)) with
          | [ m; rtype; len; crc ] when m = magic -> (
              match (int_of_string_opt len, Int32.of_string_opt ("0x" ^ crc))
              with
              | Some len, Some crc when len >= 0 -> Some (rtype, len, crc)
              | _ -> None)
          | _ | (exception Corrupt _) -> None
        in
        match parsed with
        | None -> ok := false
        | Some (rtype, len, crc) ->
            let start = nl + 1 in
            if start + len >= total || text.[start + len] <> '\n' then
              ok := false
            else begin
              let payload = String.sub text start len in
              if crc32 payload <> crc then ok := false
              else
                match record_of_payload rtype payload with
                | r ->
                    records := r :: !records;
                    pos := start + len + 1
                | exception _ -> ok := false
            end)
  done;
  {
    r_records = List.rev !records;
    r_truncated_bytes = total - !pos;
    r_total_bytes = total;
  }

let header r =
  List.find_map
    (function Header h -> Some h | _ -> None)
    r.r_records

let checkpoints r =
  List.filter_map
    (function Checkpoint ck -> Some ck | _ -> None)
    r.r_records

let finished r =
  match List.rev r.r_records with Finish _ :: _ -> true | _ -> false
