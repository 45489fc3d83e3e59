(* Fault-injection harness for the resilience layer.

   Wraps the flow's stage hooks and the rule representation to inject
   failures at controlled points: exceptions raised before a stage,
   off-the-books netlist corruption, rules whose [apply] raises (before
   or after recording edits) and pre-exhausted budgets.  Used by
   fault_suite to assert that every failure mode degrades to a
   [Partial] outcome with a lint-clean checkpoint, never an uncaught
   exception. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Rule = Milo_rules.Rule
module Flow = Milo.Flow

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected msg -> Some ("Milo_faults.Injected: " ^ msg)
    | _ -> None)

(* --- Stage-level faults ----------------------------------------------- *)

(* Raise [exn] when the flow enters [at].  [Capture] never fires: the
   flow only invokes [before_stage] for the transforming stages. *)
let failing_hooks ?(exn = Injected "injected stage failure") ~at () =
  {
    Flow.no_hooks with
    Flow.before_stage = (fun stage _ -> if stage = at then raise exn);
  }

(* Point one pin of one component at a nonexistent net, off the books
   (no log entry, no npins update) — the same class of unsound mutation
   the engine's debug lint exists to catch.  Linting the stage output,
   or any later measurement, then fails. *)
let corrupt_design d =
  match D.comps d with
  | [] -> ()
  | c :: _ -> (
      match Hashtbl.fold (fun pin _ acc -> pin :: acc) c.D.conns [] with
      | [] -> ()
      | pin :: _ -> Hashtbl.replace c.D.conns pin 999999)

let corrupting_hooks ~at () =
  {
    Flow.no_hooks with
    Flow.before_stage = (fun stage d -> if stage = at then corrupt_design d);
  }

(* --- Rule-level faults ------------------------------------------------ *)

(* Matches every component; [apply] raises before touching the design.
   Exercises the engine's quarantine without needing rollback. *)
let raising_rule ?(exn = Injected "injected rule failure") () =
  Rule.make ~name:"fault-raising" ~cls:Rule.Cleanup
    ~find:(fun ctx ->
      List.map
        (fun (c : D.comp) -> Rule.site ~comps:[ c.D.id ] "raising fault")
        (Rule.scan_comps ctx))
    ~apply:(fun _ _ _ -> raise exn) ()

(* Matches every component; [apply] records real edits (disconnecting
   the component's pins) into the log, then raises.  Exercises the
   transactional rollback: the engine must restore the design from the
   rule's own sub-log before quarantining it. *)
let sabotage_rule ?(exn = Injected "injected mid-edit failure") () =
  Rule.make ~name:"fault-sabotage" ~cls:Rule.Cleanup
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          if Hashtbl.length c.D.conns = 0 then None
          else Some (Rule.site ~comps:[ c.D.id ] "sabotage fault"))
        (Rule.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.Rule.site_comps with
      | cid :: _ ->
          let c = D.comp ctx.Rule.design cid in
          let pins = Hashtbl.fold (fun pin _ acc -> pin :: acc) c.D.conns [] in
          List.iter (fun pin -> D.disconnect ~log ctx.Rule.design cid pin) pins;
          raise exn
      | [] -> false) ()

(* --- Miscompiling rules ----------------------------------------------- *)

(* Planted rules that apply cleanly (edits logged, no exception, lint
   intact) but change the function of their site — the failure class
   only the semantic guard can catch.  Each is a realistic rewrite bug:
   wrong polarity, a dropped fanin, swapped mux data arms. *)

let replace_sub s ~sub ~by =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m))

let macro_name (c : D.comp) =
  match c.D.kind with T.Macro m -> Some m | _ -> None

(* Wrong polarity: an inverter silently becomes a buffer.  The pin
   interface is identical, so the netlist stays perfectly well-formed —
   only the function changes. *)
let polarity_rule () =
  let buf_of ctx nm =
    match replace_sub nm ~sub:"INV" ~by:"BUF" with
    | Some b when Milo_library.Technology.mem ctx.Rule.tech b -> Some b
    | Some _ | None -> None
  in
  Rule.make ~name:"fault-polarity" ~cls:Rule.Logic
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          match macro_name c with
          | Some nm when buf_of ctx nm <> None ->
              Some (Rule.site ~comps:[ c.D.id ] "polarity fault")
          | Some _ | None -> None)
        (Rule.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.Rule.site_comps with
      | cid :: _ -> (
          match D.comp_opt ctx.Rule.design cid with
          | Some c -> (
              match Option.bind (macro_name c) (buf_of ctx) with
              | Some buf ->
                  D.set_kind ~log ctx.Rule.design cid (T.Macro buf);
                  true
              | None -> false)
          | None -> false)
      | [] -> false) ()

(* Dropped fanin: rewires the second input of a multi-input gate onto
   the first input's net, as if the rewrite forgot one operand. *)
let drop_fanin_rule () =
  let victim ctx (c : D.comp) =
    match Rule.macro_of ctx c with
    | Some m -> (
        match m.Milo_library.Macro.inputs with
        | p0 :: p1 :: _ -> (
            match
              ( D.connection ctx.Rule.design c.D.id p0,
                D.connection ctx.Rule.design c.D.id p1 )
            with
            | Some n0, Some n1 when n0 <> n1 -> Some (p1, n0)
            | _ -> None)
        | _ -> None)
    | None -> None
  in
  Rule.make ~name:"fault-drop-fanin" ~cls:Rule.Logic
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          match victim ctx c with
          | Some _ -> Some (Rule.site ~comps:[ c.D.id ] "drop-fanin fault")
          | None -> None)
        (Rule.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.Rule.site_comps with
      | cid :: _ -> (
          match D.comp_opt ctx.Rule.design cid with
          | Some c -> (
              match victim ctx c with
              | Some (pin, net) ->
                  D.connect ~log ctx.Rule.design cid pin net;
                  true
              | None -> false)
          | None -> false)
      | [] -> false) ()

(* Swapped mux arms: exchanges the D0/D1 connections of a 2-way
   multiplexor, inverting its select semantics. *)
let swap_mux_rule () =
  let arms ctx (c : D.comp) =
    match macro_name c with
    | Some nm when replace_sub nm ~sub:"MUX2" ~by:"" <> None -> (
        match
          ( D.connection ctx.Rule.design c.D.id "D0",
            D.connection ctx.Rule.design c.D.id "D1" )
        with
        | Some n0, Some n1 when n0 <> n1 -> Some (n0, n1)
        | _ -> None)
    | Some _ | None -> None
  in
  Rule.make ~name:"fault-swap-mux" ~cls:Rule.Logic
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          match arms ctx c with
          | Some _ -> Some (Rule.site ~comps:[ c.D.id ] "swap-mux fault")
          | None -> None)
        (Rule.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.Rule.site_comps with
      | cid :: _ -> (
          match D.comp_opt ctx.Rule.design cid with
          | Some c -> (
              match arms ctx c with
              | Some (n0, n1) ->
                  D.connect ~log ctx.Rule.design cid "D0" n1;
                  D.connect ~log ctx.Rule.design cid "D1" n0;
                  true
              | None -> false)
          | None -> false)
      | [] -> false) ()

let miscompiling_rules () =
  [ polarity_rule (); drop_fanin_rule (); swap_mux_rule () ]

(* --- Semantic corruption ----------------------------------------------- *)

(* Off-the-books single-component function change: the netlist stays
   structurally valid (lint-clean), but the design computes something
   else.  Tries, in order: a micro-level inverter made a buffer, a
   macro inverter made a buffer, a mux with swapped arms.  Returns
   whether anything was corrupted. *)
let semantic_corrupt d =
  let try_comp (c : D.comp) =
    match c.D.kind with
    | T.Gate (T.Inv, w) ->
        c.D.kind <- T.Gate (T.Buf, w);
        true
    | T.Macro nm -> (
        match replace_sub nm ~sub:"INV" ~by:"BUF" with
        | Some buf ->
            c.D.kind <- T.Macro buf;
            true
        | None -> (
            match replace_sub nm ~sub:"MUX2" ~by:"" with
            | Some _ -> (
                match
                  ( Hashtbl.find_opt c.D.conns "D0",
                    Hashtbl.find_opt c.D.conns "D1" )
                with
                | Some n0, Some n1 when n0 <> n1 ->
                    Hashtbl.replace c.D.conns "D0" n1;
                    Hashtbl.replace c.D.conns "D1" n0;
                    (* keep the net-side index consistent: swap the pin
                       entries too, so the corruption is invisible to
                       structural lint *)
                    let swap_net nid from_pin to_pin =
                      match D.net_opt d nid with
                      | Some n ->
                          n.D.npins <-
                            List.map
                              (fun (cid, pin) ->
                                if cid = c.D.id && pin = from_pin then
                                  (cid, to_pin)
                                else (cid, pin))
                              n.D.npins
                      | None -> ()
                    in
                    swap_net n0 "D0" "D1";
                    swap_net n1 "D1" "D0";
                    true
                | _ -> false)
            | None -> false))
    | _ -> false
  in
  List.exists try_comp (D.comps d)

(* Corrupt the design's function (off the log) when the flow enters
   [at]; [corrupted] records whether a corruption site was found. *)
let semantic_corrupting_hooks ~at () =
  let corrupted = ref false in
  ( {
      Flow.no_hooks with
      Flow.before_stage =
        (fun stage d -> if stage = at then corrupted := semantic_corrupt d);
    },
    corrupted )

(* --- Budget faults ---------------------------------------------------- *)

(* A budget that is exhausted before the first step: every bounded pass
   must terminate immediately with best-so-far (nothing). *)
let exhausted_budget () = Milo_rules.Budget.make ~max_steps:0 ()

(* --- Domain-level faults ----------------------------------------------- *)

(* Injectors for the supervised domain pool: tasks and rules that
   exercise each fault class the pool must contain — a raise inside
   the task body, a loop that overruns the deadline while polling
   cooperatively, and a stall that never heartbeats at all (the only
   class that needs the watchdog).  fault_suite and parallel_suite use
   them to assert the pool classifies every one as a typed
   [Task_failed], replaces wedged workers, and never hangs or lets an
   exception escape. *)

module Pool = Milo_parallel.Pool

(* Raises from inside the task body: must come back as
   [Task_failed (Raised _)] with the exception text captured. *)
let raising_task ?(exn = Injected "injected task failure") () () : int =
  raise exn

(* Loops forever but polls: cancelled cooperatively once the deadline
   passes — [Task_failed Deadline].  Never run without a deadline. *)
let looping_task () () : int =
  while true do
    Pool.poll ()
  done;
  0

(* Runs without ever heartbeating (a sleep stands in for a wedged
   computation): the watchdog abandons it as [Task_failed Stalled] and
   writes off its worker.  [seconds] keeps the wedged domain's life
   short so the test process exits promptly after the write-off. *)
let stalling_task ?(seconds = 1.2) () () : int =
  Unix.sleepf seconds;
  0

(* Rule-shaped versions of the same faults, for the engine's parallel
   fan-out paths ([Engine.greedy_pass] and friends): the fault fires
   inside a supervised task's [evaluate], so the engine must convert
   it into a quarantine of the rule, never a hang or an escape. *)

let every_comp_sites descr ctx =
  List.map
    (fun (c : D.comp) -> Rule.site ~comps:[ c.D.id ] descr)
    (Rule.scan_comps ctx)

(* [apply] loops past any deadline but polls: the worker task is
   cancelled cooperatively and the rule quarantined with a deadline
   fault. *)
let looping_rule () =
  Rule.make ~name:"fault-looping" ~cls:Rule.Cleanup
    ~find:(every_comp_sites "looping fault")
    ~apply:(fun _ _ _ ->
      while true do
        Pool.poll ()
      done;
      false) ()

(* [apply] wedges without polling: only the watchdog can contain it. *)
let stalling_rule ?(seconds = 1.2) () =
  Rule.make ~name:"fault-stalling" ~cls:Rule.Cleanup
    ~find:(every_comp_sites "stalling fault")
    ~apply:(fun _ _ _ ->
      Unix.sleepf seconds;
      false) ()

(* --- Journal crash injection ------------------------------------------ *)

(* Kill the flow (by raising [Journal.Crash]) the moment the [n]-th
   journal record reaches the file.  In-process this approximates a
   process death exactly at that write: the journal file holds precisely
   the first [n] records (checkpoints whole, via their tmp+rename
   commit), nothing after the kill point touches it, and the flow
   neither degrades to [Partial] nor writes a Finish record. *)
let kill_after n count =
  if count >= n then raise (Milo_journal.Journal.Crash count)

(* Run a journaled flow, killing it after exactly [n] journal records.
   Returns [Some outcome] when the flow finished before writing [n]
   records (no kill happened), [None] when the kill fired. *)
let run_journaled_killed ?technology ?constraints ?lint ?budget ?guard ?certify
    ?domains ?force_domains ~journal n design =
  match
    Flow.run ?technology ?constraints ?lint ?budget ?guard ?certify ~journal
      ~journal_fault:(kill_after n) ?domains ?force_domains design
  with
  | outcome -> Some outcome
  | exception Milo_journal.Journal.Crash _ -> None
