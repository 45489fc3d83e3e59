type cost = { delay : float; area : float; power : float }

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  mutable stop : float;
}

let span_closed s = s.stop >= 0.0
let span_dur s = if span_closed s then s.stop -. s.start else 0.0

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
  m : Metrics.t;
  rules : (string, rule_stat) Hashtbl.t;
  mutable sinks : sink list;
}

and sink = {
  sink_span : span -> unit;
  sink_flush : t -> unit;
}

let create () =
  {
    epoch = Unix.gettimeofday ();
    last_now = 0.0;
    next_span = 0;
    stack = [];
    all_spans = [];
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
   the spans and counters are exactly the coordinator's and stay
   identical across domain counts. *)
let cur_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cur () = Domain.DLS.get cur_key

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

let begin_span_in t name =
  let s =
    {
      id = t.next_span;
      parent = (match t.stack with [] -> None | p :: _ -> Some p.id);
      name;
      start = now t;
      stop = -1.0;
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

let with_span name f =
  match !(cur ()) with
  | None -> f ()
  | Some t ->
      let s = begin_span_in t name in
      Fun.protect ~finally:(fun () -> end_span_in t s) f

let open_span name =
  match !(cur ()) with
  | None -> ()
  | Some t -> ignore (begin_span_in t name)

let close_span name =
  match !(cur ()) with
  | None -> ()
  | Some t -> (
      match List.find_opt (fun s -> s.name = name) t.stack with
      | None -> ()
      | Some s -> end_span_in t s)

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
