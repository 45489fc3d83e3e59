type value = Int of int | Float of float | Str of string | Bool of bool

type cost = { delay : float; area : float; power : float }

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  mutable stop : float;
  mutable attrs : (string * value) list;
}

let span_closed s = s.stop >= 0.0
let span_dur s = if span_closed s then s.stop -. s.start else 0.0

type event_kind =
  | Rule_applied of { rule : string; site : string; gain : float }
  | Rule_refused of { rule : string; site : string; reason : string }
  | Rule_rolled_back of { rule : string; site : string }
  | Rule_quarantined of { rule : string; failures : int; message : string }
  | Rule_miscompiled of { rule : string; site : string; detail : string }
  | Search_decision of { rule : string; site : string; depth : int; gain : float }
  | Strategy_step of {
      strategy : string;
      detail : string;
      kept : bool;
      delay_before : float;
      delay_after : float;
    }
  | Budget_exhausted of { steps : int; evals : int; elapsed : float }
  | Checkpoint of { stage : string; comps : int; nets : int }
  | Measure_advance of { cone_nets : int; cone_comps : int }
  | Measure_retreat
  | Measure_resync of { reason : string }
  | Note of string

type event = {
  seq : int;
  at : float;
  stage : string;
  in_span : int option;
  before : cost option;
  after : cost option;
  kind : event_kind;
}

let kind_label = function
  | Rule_applied _ -> "rule-applied"
  | Rule_refused _ -> "rule-refused"
  | Rule_rolled_back _ -> "rule-rolled-back"
  | Rule_quarantined _ -> "rule-quarantined"
  | Rule_miscompiled _ -> "rule-miscompiled"
  | Search_decision _ -> "search-decision"
  | Strategy_step _ -> "strategy-step"
  | Budget_exhausted _ -> "budget-exhausted"
  | Checkpoint _ -> "checkpoint"
  | Measure_advance _ -> "measure-advance"
  | Measure_retreat -> "measure-retreat"
  | Measure_resync _ -> "measure-resync"
  | Note _ -> "note"

type rule_stat = {
  mutable applies : int;
  mutable refusals : int;
  mutable rollbacks : int;
  mutable evals : int;
  mutable time_s : float;
  mutable gain : float;
}

type t = {
  epoch : float;
  mutable last_now : float;
  mutable next_span : int;
  mutable stack : span list;  (* innermost first *)
  mutable all_spans : span list;  (* most recent first *)
  ring : event option array;
  mutable seq : int;
  mutable stage : string;
  m : Metrics.t;
  rules : (string, rule_stat) Hashtbl.t;
  mutable sinks : sink list;
}

and sink = {
  sink_span : span -> unit;
  sink_event : event -> unit;
  sink_flush : t -> unit;
}

let create ?(ring_size = 65536) () =
  let ring_size = max 1 ring_size in
  {
    epoch = Unix.gettimeofday ();
    last_now = 0.0;
    next_span = 0;
    stack = [];
    all_spans = [];
    ring = Array.make ring_size None;
    seq = 0;
    stage = "";
    m = Metrics.create ();
    rules = Hashtbl.create 32;
    sinks = [];
  }

(* Wall time relative to [epoch], clamped monotone non-decreasing so a
   clock step never yields a negative span duration. *)
let now t =
  let v = Unix.gettimeofday () -. t.epoch in
  if v > t.last_now then t.last_now <- v;
  t.last_now

let add_sink t s = t.sinks <- s :: t.sinks

(* --- the ambient tracer ------------------------------------------- *)

(* Domain-local: each domain has its own ambient tracer slot.  The
   flow installs the run's tracer on the coordinating domain only;
   worker domains spawned by the parallel runtime start with an empty
   slot, so their scratch evaluations are untraced by construction —
   the merged event stream is exactly the coordinator's, ordered by
   its per-tracer clock, and stays bit-identical across domain
   counts. *)
let cur_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cur () = Domain.DLS.get cur_key

let set_current o = cur () := o
let current () = !(cur ())
let enabled () = !(cur ()) != None

let with_tracer t f =
  let cur = cur () in
  let saved = !cur in
  cur := Some t;
  Fun.protect ~finally:(fun () -> cur := saved) f

(* Run [f] with tracing suppressed on this domain: the oracle-worker
   discipline for inline (single-domain) parallel execution, so a
   worker task behaves identically whether it runs on the coordinator
   or on a pool domain. *)
let without f =
  let cur = cur () in
  let saved = !cur in
  cur := None;
  Fun.protect ~finally:(fun () -> cur := saved) f

(* --- spans --------------------------------------------------------- *)

let begin_span_in t ?(attrs = []) name =
  let s =
    {
      id = t.next_span;
      parent = (match t.stack with [] -> None | p :: _ -> Some p.id);
      name;
      start = now t;
      stop = -1.0;
      attrs;
    }
  in
  t.next_span <- t.next_span + 1;
  t.stack <- s :: t.stack;
  t.all_spans <- s :: t.all_spans;
  s

let close_one t at s =
  if not (span_closed s) then begin
    s.stop <- at;
    List.iter (fun snk -> snk.sink_span s) t.sinks
  end

(* Pop the stack down to and including [s], closing everything popped:
   ending an ancestor force-closes descendants a fault left open, so
   traces stay balanced even when a stage unwinds with an exception. *)
let end_span_in t s =
  if List.memq s t.stack then begin
    let at = now t in
    let rec pop = function
      | [] -> []
      | x :: rest ->
          close_one t at x;
          if x == s then rest else pop rest
    in
    t.stack <- pop t.stack
  end

let with_span ?attrs name f =
  match !(cur ()) with
  | None -> f ()
  | Some t ->
      let s = begin_span_in t ?attrs name in
      Fun.protect ~finally:(fun () -> end_span_in t s) f

let open_span ?attrs name =
  match !(cur ()) with
  | None -> ()
  | Some t -> ignore (begin_span_in t ?attrs name)

let close_span name =
  match !(cur ()) with
  | None -> ()
  | Some t -> (
      match List.find_opt (fun s -> s.name = name) t.stack with
      | None -> ()
      | Some s -> end_span_in t s)

let attr key v =
  match !(cur ()) with
  | None -> ()
  | Some t -> (
      match t.stack with
      | [] -> ()
      | s :: _ -> s.attrs <- (key, v) :: s.attrs)

(* --- events -------------------------------------------------------- *)

let emit_in t ?before ?after kind =
  let e =
    {
      seq = t.seq;
      at = now t;
      stage = t.stage;
      in_span = (match t.stack with [] -> None | s :: _ -> Some s.id);
      before;
      after;
      kind;
    }
  in
  t.seq <- t.seq + 1;
  t.ring.(e.seq mod Array.length t.ring) <- Some e;
  List.iter (fun snk -> snk.sink_event e) t.sinks

let emit ?before ?after kind =
  match !(cur ()) with None -> () | Some t -> emit_in t ?before ?after kind

let set_stage name =
  match !(cur ()) with None -> () | Some t -> t.stage <- name

(* --- metrics ------------------------------------------------------- *)

let count name by =
  match !(cur ()) with None -> () | Some t -> Metrics.incr t.m name by

let set_gauge name v =
  match !(cur ()) with None -> () | Some t -> Metrics.set_gauge t.m name v

let sample name v =
  match !(cur ()) with None -> () | Some t -> Metrics.observe t.m name v

let stat_of t rule =
  match Hashtbl.find_opt t.rules rule with
  | Some s -> s
  | None ->
      let s =
        { applies = 0; refusals = 0; rollbacks = 0; evals = 0; time_s = 0.0; gain = 0.0 }
      in
      Hashtbl.replace t.rules rule s;
      s

let note_rule ~rule ~dt ~gain ~outcome =
  match !(cur ()) with
  | None -> ()
  | Some t ->
      let s = stat_of t rule in
      s.time_s <- s.time_s +. dt;
      (match outcome with
      | `Eval -> s.evals <- s.evals + 1
      | `Applied ->
          s.applies <- s.applies + 1;
          s.gain <- s.gain +. gain
      | `Refused -> s.refusals <- s.refusals + 1
      | `Rolled_back -> s.rollbacks <- s.rollbacks + 1)

(* --- queries ------------------------------------------------------- *)

let events t =
  let n = Array.length t.ring in
  let live = min t.seq n in
  let first = t.seq - live in
  let rec go i acc =
    if i < first then acc
    else
      match t.ring.(i mod n) with
      | Some e -> go (i - 1) (e :: acc)
      | None -> go (i - 1) acc
  in
  go (t.seq - 1) []

let event_count t = t.seq

(* Resume re-arm: a journaled run records [event_count] at every
   checkpoint, and a resumed run's fresh tracer continues the sequence
   from there, so event numbering runs on across a kill.  The ring
   stays empty below the restored position — [events] skips the
   holes. *)
let restore_seq t n = if n > t.seq then t.seq <- n

let spans t = List.rev t.all_spans
let metrics t = t.m

let rule_stats t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.rules []
  |> List.sort (fun (_, a) (_, b) -> compare b.time_s a.time_s)

let flush t =
  let at = now t in
  List.iter (close_one t at) t.stack;
  t.stack <- [];
  let evals = Hashtbl.fold (fun _ s acc -> acc + s.evals) t.rules 0 in
  if evals > 0 && at > 0.0 then
    Metrics.set_gauge t.m "engine.evals_per_sec" (float_of_int evals /. at);
  List.iter (fun snk -> snk.sink_flush t) t.sinks
