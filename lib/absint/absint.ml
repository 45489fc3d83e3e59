(* Abstract interpretation over the mapped netlist.

   The domain is the flat ternary lattice 0 < ⊤ > 1 per net.  The
   forward pass is a chaotic-iteration worklist over component
   transfer functions: a component's concrete evaluator
   ([Milo_sim.Eval]) is lifted pointwise by enumerating the unknown
   (⊤) inputs — up to [max_enum] of them — and joining the outputs
   across the assignments.  Using the very evaluator the simulator
   uses is what makes the facts sound by construction against it.

   Initialization is pessimistic in the simulator's own terms:
   undriven nets read as [false] there, so they start at [Zero];
   anything driven starts at [Top] and is only refined downwards
   (⊤ → constant).  Nets with several drivers are poisoned to [Top]
   permanently.  Sequential outputs and [Instance]s stay [Top].

   Refinement is monotone (a net never moves between the two
   constants; a conflict poisons it), so the fixpoint terminates even
   on combinational cycles.

   On top of the constant facts, two backward passes compute
   liveness (structural reachability from output ports) and
   observability (can toggling a net change an observable output,
   with proved-constant side inputs held at their constants).
   Observability marks only grow, so that pass terminates too.

   After committed edits ([advance]) a refresh pays for what the edits
   changed (the Rete discipline of the paper's Section 2.2.1).
   Constants are reset only where an old fact can depend on an edit,
   then re-derived from there.  Liveness and observability re-decide
   only the facts whose inputs changed, with grow-then-shrink
   worklists; on a cyclic component graph that would keep a
   self-supporting loop the full passes drop, so there they run in
   full. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Macro = Milo_library.Macro
module Eval = Milo_sim.Eval
module Simulator = Milo_sim.Simulator

type value = Zero | One | Top

let value_name = function Zero -> "0" | One -> "1" | Top -> "top"
let of_bool b = if b then One else Zero

(* Transfer functions enumerate at most this many unknown inputs;
   past it the outputs stay ⊤ (and observability turns conservative). *)
let max_enum = 8

type env = string -> Macro.t option

let env_of_techs techs =
  let rec go techs name =
    match techs with
    | [] -> None
    | t :: rest -> (
        match Milo_library.Technology.find_opt t name with
        | Some m -> Some m
        | None -> go rest name)
  in
  go techs

type stats = {
  mutable full_runs : int;
  mutable incremental_runs : int;
  mutable fallback_runs : int;
  mutable transfers : int;
}

(* The two lifted kernels below ([transfer]'s constant outputs and
   [pin_propagates]'s verdict) depend only on the component's semantics
   and the abstract values of its inputs, and the verdict also on the
   toggled pin and the observed outputs.  A memo keeps their answers by
   that key, so re-deriving a fact, or reading another component of
   the same kind under the same inputs, costs a lookup instead of up to
   2^max_enum evaluations.  A macro's semantics is its [Macro.t], by
   physical identity (a name can mean different functions in two
   libraries, so keying by name would leak answers between them); any
   other kind's is the kind itself ([Hashcons.kind_id]).  Each table
   starts over when it reaches [memo_bound] entries. *)
let memo_bound = 4096

type memo = {
  macro_ids : (string, (Macro.t * int) list) Hashtbl.t;
      (* each macro met, by name, with its id in the keys *)
  transfer_memo : (string, (string * value) list) Hashtbl.t;
      (* constant output pins *)
  propagates_memo : (string, bool) Hashtbl.t;
}

let new_memo () =
  {
    macro_ids = Hashtbl.create 8;
    transfer_memo = Hashtbl.create 16;
    propagates_memo = Hashtbl.create 16;
  }

type t = {
  ai_design : D.t;
  ai_env : env;
  ai_resolve : D.resolver;
  ai_memo : memo;
  values : (int, value) Hashtbl.t;
  poisoned : (int, unit) Hashtbl.t;  (* pinned ⊤: multi-driven / conflict *)
  multi : (int, unit) Hashtbl.t;  (* multi-driven nets *)
  obs_nets : (int, unit) Hashtbl.t;
  live_nets : (int, unit) Hashtbl.t;
  live_comps : (int, unit) Hashtbl.t;
  dirty_nets : (int, unit) Hashtbl.t;
  dirty_comps : (int, unit) Hashtbl.t;
  mutable order : (int, float) Hashtbl.t option;
      (* a topological index of the component graph (every edge
         climbs), for the change-driven backward passes; [None] before
         it is built and while the graph has a cycle *)
  mutable fresh : bool;  (* facts match the design *)
  mutable full_needed : bool;
  ai_stats : stats;
}

let design st = st.ai_design
let stats st = st.ai_stats
let memo st = st.ai_memo

(* --- Kind classification ----------------------------------------------- *)

let comp_macro st (c : D.comp) =
  match c.D.kind with T.Macro m -> st.ai_env m | _ -> None

(* Conservative: unknown macros and instances count as sequential
   (their outputs stay ⊤ and their inputs stay observable). *)
let comp_is_opaque st (c : D.comp) =
  match c.D.kind with
  | T.Instance _ -> true
  | T.Macro m -> (
      match st.ai_env m with
      | Some mac -> Macro.is_sequential mac
      | None -> true)
  | k -> T.is_sequential_kind k

(* Input pins of a combinational component, with their connected nets
   ([None] = unconnected, reads [false]).  Raises for opaque kinds. *)
let comb_input_pins st (c : D.comp) =
  let pins =
    match comp_macro st c with
    | Some mac -> List.map (fun p -> (p, T.Input)) mac.Macro.inputs
    | None -> T.pins_of_kind c.D.kind
  in
  List.filter_map
    (fun (p, dir) ->
      if dir = T.Input then Some (p, Hashtbl.find_opt c.D.conns p) else None)
    pins

let comb_eval st (c : D.comp) pvs =
  match comp_macro st c with
  | Some mac -> Eval.macro_comb_outputs mac pvs
  | None -> Eval.comb_outputs c.D.kind pvs

(* Connected output pins: (pin, net). *)
let output_conns st (c : D.comp) =
  Hashtbl.fold
    (fun pin nid acc ->
      match D.pin_dir ~resolve:st.ai_resolve st.ai_design c.D.id pin with
      | T.Output -> (pin, nid) :: acc
      | T.Input -> acc
      | exception _ -> acc)
    c.D.conns []

(* How the backward passes and the ordering read a pin: a pin that
   fails to resolve counts both ways. *)
let is_input st cid pin =
  match D.pin_dir ~resolve:st.ai_resolve st.ai_design cid pin with
  | T.Input -> true
  | T.Output -> false
  | exception _ -> true

let is_output st cid pin =
  match D.pin_dir ~resolve:st.ai_resolve st.ai_design cid pin with
  | T.Output -> true
  | T.Input -> false
  | exception _ -> true

(* The nets [c] reads. *)
let iter_input_nets st (c : D.comp) f =
  Hashtbl.iter (fun pin nid -> if is_input st c.D.id pin then f nid) c.D.conns

(* Is [cid] the driver ([D.driver]) of [nid]? *)
let drives st cid nid =
  match D.driver ~resolve:st.ai_resolve st.ai_design nid with
  | D.Src_comp (c, _) -> c = cid
  | D.Src_port _ | D.Src_none -> false

let port_output (n : D.net) =
  match n.D.nport with Some (_, T.Output) -> true | Some (_, T.Input) | None -> false

(* --- Net initialization ------------------------------------------------ *)

let count_drivers st (n : D.net) =
  let pins =
    List.fold_left
      (fun acc (cid, pin) ->
        match D.pin_dir ~resolve:st.ai_resolve st.ai_design cid pin with
        | T.Output -> acc + 1
        | T.Input -> acc
        | exception _ -> acc + 1 (* unknown pin: assume it drives *))
      0 n.D.npins
  in
  match n.D.nport with Some (_, T.Input) -> pins + 1 | _ -> pins

let init_net st (n : D.net) =
  Hashtbl.remove st.poisoned n.D.nid;
  Hashtbl.remove st.multi n.D.nid;
  let drivers = count_drivers st n in
  let v =
    if drivers > 1 then begin
      Hashtbl.replace st.multi n.D.nid ();
      Hashtbl.replace st.poisoned n.D.nid ();
      Top
    end
    else if drivers = 0 then Zero (* undriven nets read as [false] *)
    else Top
  in
  Hashtbl.replace st.values n.D.nid v

let net_value_raw st nid =
  match Hashtbl.find_opt st.values nid with Some v -> v | None -> Top

(* --- The lifted kernels ---------------------------------------------------- *)

let input_value st = function None -> Zero | Some nid -> net_value_raw st nid

(* [vals] (pin, value) with its ⊤ inputs set from the bits of [m], the
   first ⊤ input from bit 0. *)
let assignment vals m =
  snd
    (List.fold_left
       (fun (i, acc) (p, v) ->
         match v with
         | Zero -> (i, (p, false) :: acc)
         | One -> (i, (p, true) :: acc)
         | Top -> (i + 1, (p, m land (1 lsl i) <> 0) :: acc))
       (0, []) vals)

let unknowns vals = List.length (List.filter (fun (_, v) -> v = Top) vals)

(* The memo key of a kernel query on [c]: its semantics, then the value
   of each input in pin order, the [toggled] one marked '*'. *)
let query_key st (c : D.comp) vals ~toggled =
  let b = Buffer.create 32 in
  (match comp_macro st c with
  | Some mac ->
      let ids = st.ai_memo.macro_ids in
      let met =
        Option.value ~default:[] (Hashtbl.find_opt ids mac.Macro.mname)
      in
      let id =
        match List.assq_opt mac met with
        | Some id -> id
        | None ->
            let id = List.length met in
            Hashtbl.replace ids mac.Macro.mname (met @ [ (mac, id) ]);
            id
      in
      Buffer.add_char b 'm';
      Buffer.add_string b mac.Macro.mname;
      Buffer.add_char b '#';
      Buffer.add_string b (string_of_int id)
  | None ->
      Buffer.add_char b 'k';
      Buffer.add_string b
        (string_of_int (Milo_netlist.Hashcons.kind_id c.D.kind)));
  Buffer.add_char b ':';
  List.iter
    (fun (p, v) ->
      Buffer.add_char b
        (if toggled = Some p then '*'
         else match v with Zero -> '0' | One -> '1' | Top -> 'x'))
    vals;
  b

(* [compute ()] unless the table already holds [key]'s answer. *)
let memoised tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some answer -> answer
  | None ->
      let answer = compute () in
      if Hashtbl.length tbl >= memo_bound then Hashtbl.reset tbl;
      Hashtbl.replace tbl key answer;
      answer

(* The output pins of [c] that are constant when its inputs have the
   values [vals]: every assignment of the ⊤ inputs is evaluated and
   the outputs joined across them.  Any evaluator exception leaves
   every output ⊤. *)
let lift_outputs st (c : D.comp) vals =
  let results : (string, value) Hashtbl.t = Hashtbl.create 4 in
  match
    for m = 0 to (1 lsl unknowns vals) - 1 do
      st.ai_stats.transfers <- st.ai_stats.transfers + 1;
      List.iter
        (fun (p, b) ->
          let v = of_bool b in
          match Hashtbl.find_opt results p with
          | None -> Hashtbl.replace results p v
          | Some v' when v' = v -> ()
          | Some _ -> Hashtbl.replace results p Top)
        (comb_eval st c (assignment vals m))
    done
  with
  | () ->
      Hashtbl.fold
        (fun p v acc ->
          match v with Zero | One -> (p, v) :: acc | Top -> acc)
        results []
  | exception _ -> []

(* Outputs of [c] under the current input facts, as (net, constant);
   an output missing from the list stays ⊤. *)
let transfer st (c : D.comp) : (int * value) list =
  if comp_is_opaque st c then []
  else
    match comb_input_pins st c with
    | exception _ -> []
    | inputs ->
        let outs = output_conns st c in
        if outs = [] then []
        else
          let vals = List.map (fun (p, net) -> (p, input_value st net)) inputs in
          if unknowns vals > max_enum then []
          else
            let consts =
              memoised st.ai_memo.transfer_memo
                (Buffer.contents (query_key st c vals ~toggled:None))
                (fun () -> lift_outputs st c vals)
            in
            List.filter_map
              (fun (pin, nid) ->
                Option.map (fun v -> (nid, v)) (List.assoc_opt pin consts))
              outs

(* --- Constant fixpoint ------------------------------------------------- *)

(* [note nid v] is told each net's value [v] before the net is
   refined. *)
let run_const ?(note = fun _ _ -> ()) st seeds =
  let queue = Queue.create () in
  let queued = Hashtbl.create 64 in
  let push cid =
    if not (Hashtbl.mem queued cid) then begin
      Hashtbl.replace queued cid ();
      Queue.add cid queue
    end
  in
  List.iter push seeds;
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    Hashtbl.remove queued cid;
    match D.comp_opt st.ai_design cid with
    | None -> ()
    | Some c ->
        List.iter
          (fun (nid, v) ->
            if not (Hashtbl.mem st.poisoned nid) then begin
              let refined =
                match (net_value_raw st nid, v) with
                | Top, ((Zero | One) as nv) -> Some nv
                | Zero, One | One, Zero -> Some Top (* conflict: poison *)
                | _ -> None
              in
              match refined with
              | None -> ()
              | Some nv ->
                  note nid (net_value_raw st nid);
                  Hashtbl.replace st.values nid nv;
                  if nv = Top then Hashtbl.replace st.poisoned nid ();
                  List.iter
                    (fun (scid, _) -> push scid)
                    (D.sinks ~resolve:st.ai_resolve st.ai_design nid)
            end)
          (transfer st c)
  done

(* --- Liveness ----------------------------------------------------------- *)

(* A net is live when an output port reads it or a live component
   does; a component is live when it drives ([D.driver]) a live net. *)
let run_liveness st =
  Hashtbl.reset st.live_nets;
  Hashtbl.reset st.live_comps;
  let rec net nid =
    if not (Hashtbl.mem st.live_nets nid) then begin
      Hashtbl.replace st.live_nets nid ();
      match D.driver ~resolve:st.ai_resolve st.ai_design nid with
      | D.Src_comp (cid, _) -> comp cid
      | D.Src_port _ | D.Src_none -> ()
    end
  and comp cid =
    if not (Hashtbl.mem st.live_comps cid) then begin
      Hashtbl.replace st.live_comps cid ();
      match D.comp_opt st.ai_design cid with
      | None -> ()
      | Some c -> iter_input_nets st c net
    end
  in
  List.iter
    (fun (_, dir, nid) -> if dir = T.Output then net nid)
    (D.ports st.ai_design)

(* --- Observability ------------------------------------------------------ *)

(* Does toggling input pin [p] of [c] ever change one of the
   observable outputs [obs]?  Proved-constant side inputs are held at
   their constants (that is where the don't-cares come from); the
   remaining ⊤ side inputs are enumerated.  An evaluator exception
   answers [true]. *)
let pin_propagates st (c : D.comp) inputs obs p =
  let vals = List.map (fun (q, net) -> (q, input_value st net)) inputs in
  let others = List.filter (fun (q, _) -> q <> p) vals in
  let n = unknowns others in
  if n > max_enum then true
  else
    let key = query_key st c vals ~toggled:(Some p) in
    Buffer.add_char key '/';
    List.iter
      (fun out ->
        Buffer.add_string key out;
        Buffer.add_char key ' ')
      (List.sort_uniq String.compare obs);
    memoised st.ai_memo.propagates_memo (Buffer.contents key) (fun () ->
        try
          let differs = ref false in
          let m = ref 0 in
          while (not !differs) && !m < 1 lsl n do
            let pvs = assignment others !m in
            st.ai_stats.transfers <- st.ai_stats.transfers + 2;
            let lo = comb_eval st c ((p, false) :: pvs)
            and hi = comb_eval st c ((p, true) :: pvs) in
            if List.exists (fun out -> Eval.get lo out <> Eval.get hi out) obs
            then differs := true;
            incr m
          done;
          !differs
        with _ -> true)

(* The output pins through which [c] makes its inputs observable: those
   on an observable net it drives.  (The pass below reaches a component
   only through a net it drives, so counting its other outputs would
   make the result depend on the visiting order.) *)
let observed_outputs st (c : D.comp) =
  List.filter_map
    (fun (pin, nid) ->
      if Hashtbl.mem st.obs_nets nid && drives st c.D.id nid then Some pin
      else None)
    (output_conns st c)

let run_observability st =
  Hashtbl.reset st.obs_nets;
  let queue = Queue.create () in
  let queued = Hashtbl.create 64 in
  let push cid =
    if not (Hashtbl.mem queued cid) then begin
      Hashtbl.replace queued cid ();
      Queue.add cid queue
    end
  in
  let mark nid =
    if not (Hashtbl.mem st.obs_nets nid) then begin
      Hashtbl.replace st.obs_nets nid ();
      match D.driver ~resolve:st.ai_resolve st.ai_design nid with
      | D.Src_comp (cid, _) -> push cid
      | D.Src_port _ | D.Src_none -> ()
    end
  in
  List.iter
    (fun (_, dir, nid) -> if dir = T.Output then mark nid)
    (D.ports st.ai_design);
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    Hashtbl.remove queued cid;
    match D.comp_opt st.ai_design cid with
    | None -> ()
    | Some c ->
        let obs_outs = observed_outputs st c in
        if obs_outs <> [] then begin
          let conservative () = iter_input_nets st c mark in
          if comp_is_opaque st c then conservative ()
          else
            match comb_input_pins st c with
            | exception _ -> conservative ()
            | inputs ->
                List.iter
                  (fun (p, net) ->
                    match net with
                    | None -> ()
                    | Some nid ->
                        if
                          (not (Hashtbl.mem st.obs_nets nid))
                          && pin_propagates st c inputs obs_outs p
                        then mark nid)
                  inputs
        end
  done

(* --- Refresh ------------------------------------------------------------ *)

let run_full st =
  Hashtbl.reset st.values;
  Hashtbl.reset st.poisoned;
  Hashtbl.reset st.multi;
  List.iter (fun n -> init_net st n) (D.nets st.ai_design);
  run_const st (List.map (fun (c : D.comp) -> c.D.id) (D.comps st.ai_design));
  st.ai_stats.full_runs <- st.ai_stats.full_runs + 1

(* Was [nid]'s value derived, so that its readers' outputs may have been
   derived from it?  A constant, or a conflict poison (a constant came
   first); a multi-driver poison is ⊤ from the start. *)
let is_fact st nid =
  match net_value_raw st nid with
  | Zero | One -> true
  | Top -> Hashtbl.mem st.poisoned nid && not (Hashtbl.mem st.multi nid)

(* The nets the pending edits touch: the dirty nets and every net of a
   dirty component. *)
let touched_nets st =
  let touched = Hashtbl.copy st.dirty_nets in
  Hashtbl.iter
    (fun cid () ->
      match D.comp_opt st.ai_design cid with
      | Some c -> Hashtbl.iter (fun _ nid -> Hashtbl.replace touched nid ()) c.D.conns
      | None -> ())
    st.dirty_comps;
  touched

(* Change-driven constants.  The reset region is the touched nets,
   closed forward through every net whose old value was a fact, to the
   outputs of its readers.  A constant outside the region was derived
   without any net of it, so it still holds; re-deriving the region
   from its re-initialised values therefore reaches the fixpoint a fresh
   [analyze] reaches.  The fixpoint restarts from the dirty components,
   the drivers of the reset nets, and the readers of every reset net
   that was a fact or is not ⊤ after re-initialising (new nets
   included).  Returns the nets whose value moved. *)
let run_incremental st touched =
  let design = st.ai_design and resolve = st.ai_resolve in
  let before = Hashtbl.create 64 in
  let rec reset nid =
    if not (Hashtbl.mem before nid) then begin
      Hashtbl.replace before nid (net_value_raw st nid);
      if is_fact st nid && D.net_opt design nid <> None then
        List.iter
          (fun (cid, _) ->
            match D.comp_opt design cid with
            | Some c -> List.iter (fun (_, out) -> reset out) (output_conns st c)
            | None -> ())
          (D.sinks ~resolve design nid)
    end
  in
  Hashtbl.iter (fun nid () -> reset nid) touched;
  let seeds = Hashtbl.copy st.dirty_comps in
  let seed cid = Hashtbl.replace seeds cid () in
  Hashtbl.iter
    (fun nid _ ->
      match D.net_opt design nid with
      | None ->
          Hashtbl.remove st.values nid;
          Hashtbl.remove st.poisoned nid;
          Hashtbl.remove st.multi nid
      | Some n ->
          let fact = is_fact st nid in
          init_net st n;
          (match D.driver ~resolve design nid with
          | D.Src_comp (cid, _) -> seed cid
          | D.Src_port _ | D.Src_none -> ());
          if fact || net_value_raw st nid <> Top then
            List.iter (fun (cid, _) -> seed cid) (D.sinks ~resolve design nid))
    before;
  let note nid v = if not (Hashtbl.mem before nid) then Hashtbl.replace before nid v in
  run_const ~note st (Hashtbl.fold (fun cid () acc -> cid :: acc) seeds []);
  st.ai_stats.incremental_runs <- st.ai_stats.incremental_runs + 1;
  Hashtbl.fold
    (fun nid v acc ->
      if D.net_opt design nid <> None && net_value_raw st nid <> v then nid :: acc
      else acc)
    before []

(* --- Component order ---------------------------------------------------- *)

(* [f] on each component an edge of the component graph leads to from
   [c] ([`Succ]: [c]'s readers) or from which one leads to [c]
   ([`Pred]: its drivers). *)
let iter_neighbours st (c : D.comp) side f =
  let mine, theirs =
    match side with `Succ -> (is_output, is_input) | `Pred -> (is_input, is_output)
  in
  Hashtbl.iter
    (fun pin nid ->
      if mine st c.D.id pin then
        match D.net_opt st.ai_design nid with
        | Some n -> List.iter (fun (cid, p) -> if theirs st cid p then f cid) n.D.npins
        | None -> ())
    c.D.conns

exception Cycle

(* One depth-first search over the component graph: a topological
   index, or [None] on a cycle. *)
let build_order st =
  let design = st.ai_design in
  let open_ = Hashtbl.create (D.num_comps design) in
  let finished = ref [] in
  let rec visit cid =
    match Hashtbl.find_opt open_ cid with
    | Some false -> ()
    | Some true -> raise Cycle
    | None ->
        Hashtbl.replace open_ cid true;
        (match D.comp_opt design cid with
        | Some c -> iter_neighbours st c `Succ visit
        | None -> ());
        Hashtbl.replace open_ cid false;
        finished := cid :: !finished
  in
  match List.iter (fun (c : D.comp) -> visit c.D.id) (D.comps design) with
  | () ->
      let idx = Hashtbl.create (D.num_comps design) in
      List.iteri (fun i cid -> Hashtbl.replace idx cid (float_of_int i)) !finished;
      Some idx
  | exception Cycle -> None

(* Keep [idx] topological over the dirty components' edits.  Each dirty
   component keeps its index while every edge it has still climbs
   through it, and otherwise moves between its drivers and its readers.
   Every new edge has a dirty end, so this checks them all.  [false]
   when a component has no room: a cycle, or the floats between its
   neighbours ran out. *)
let place st idx =
  let fits = ref true in
  Hashtbl.iter
    (fun cid () ->
      match D.comp_opt st.ai_design cid with
      | None -> Hashtbl.remove idx cid
      | Some c when !fits -> (
          let lo = ref neg_infinity and hi = ref infinity in
          let bound side f =
            iter_neighbours st c side (fun o ->
                if o = cid then fits := false
                else Option.iter f (Hashtbl.find_opt idx o))
          in
          bound `Pred (fun i -> lo := Float.max !lo i);
          bound `Succ (fun i -> hi := Float.min !hi i);
          let lo = !lo and hi = !hi in
          match Hashtbl.find_opt idx cid with
          | Some i when lo < i && i < hi -> ()
          | Some _ | None ->
              let at =
                if lo = neg_infinity && hi = infinity then 0.0
                else if lo = neg_infinity then hi -. 1.0
                else if hi = infinity then lo +. 1.0
                else (lo +. hi) /. 2.0
              in
              if lo < at && at < hi then Hashtbl.replace idx cid at
              else fits := false)
      | Some _ -> ())
    st.dirty_comps;
  !fits

(* Is the component graph acyclic?  Brings the index up to date with the
   dirty components first, rebuilding it when they do not fit (or it
   is missing: a cycle is searched for again at every refresh until a
   rebuild finds none). *)
let acyclic st =
  (match st.order with
  | Some idx when place st idx -> ()
  | Some _ | None -> st.order <- build_order st);
  Option.is_some st.order

(* --- Change-driven liveness and observability --------------------------- *)

(* Re-decide a monotone fact after an edit, starting from the fixpoint
   of before it.  [holds x] recomputes [x]'s fact from its neighbours
   with the full pass's rule; [depends x f] calls [f] on every item
   whose fact reads [x]'s.  [seeds] must hold every item whose rule, or
   whose inputs other than these facts, the edit changed.

   Two phases: the first applies only off→on flips, the second only
   on→off ones.  After the first, every fact that is on outside the
   seeds still holds, so the second only withdraws support and ends on
   a fixpoint.  On an acyclic graph the fixpoint is unique, so it is
   the one the full pass computes; on a cyclic one the second phase
   keeps a self-supporting loop, which the full pass's least fixpoint
   drops.  A single mixed worklist is also exact on an acyclic graph,
   but it switches a new reader's inputs off before the reader is
   switched on, and the switch-off cascades up the fan-in. *)
let settle ~mem ~set ~holds ~depends seeds =
  let phase on =
    let queue = Queue.create () and queued = Hashtbl.create 64 in
    let push x =
      if not (Hashtbl.mem queued x) then begin
        Hashtbl.replace queued x ();
        Queue.add x queue
      end
    in
    List.iter push seeds;
    while not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      Hashtbl.remove queued x;
      if mem x <> on && holds x = on then begin
        set x on;
        depends x push
      end
    done
  in
  phase true;
  phase false

let set_in tbl k on = if on then Hashtbl.replace tbl k () else Hashtbl.remove tbl k

type item = Net of int | Comp of int

(* [run_liveness]'s rules, one fact at a time. *)
let live_holds st = function
  | Net nid -> (
      match D.net_opt st.ai_design nid with
      | None -> false
      | Some n ->
          port_output n
          || List.exists
               (fun (cid, pin) -> Hashtbl.mem st.live_comps cid && is_input st cid pin)
               n.D.npins)
  | Comp cid -> (
      match D.comp_opt st.ai_design cid with
      | None -> false
      | Some c ->
          Hashtbl.fold
            (fun _ nid found ->
              found || (Hashtbl.mem st.live_nets nid && drives st cid nid))
            c.D.conns false)

let live_depends st x push =
  match x with
  | Net nid -> (
      match D.driver ~resolve:st.ai_resolve st.ai_design nid with
      | D.Src_comp (cid, _) -> push (Comp cid)
      | D.Src_port _ | D.Src_none -> ())
  | Comp cid -> (
      match D.comp_opt st.ai_design cid with
      | Some c -> iter_input_nets st c (fun nid -> push (Net nid))
      | None -> ())

(* [run_observability]'s rule: does [c] make its input pin [pin]
   observable? *)
let supports st (c : D.comp) pin =
  match observed_outputs st c with
  | [] -> false
  | obs -> (
      if comp_is_opaque st c then is_input st c.D.id pin
      else
        match comb_input_pins st c with
        | exception _ -> is_input st c.D.id pin
        | inputs -> List.mem_assoc pin inputs && pin_propagates st c inputs obs pin)

let obs_holds st nid =
  match D.net_opt st.ai_design nid with
  | None -> false
  | Some n ->
      port_output n
      || List.exists
           (fun (cid, pin) ->
             match D.comp_opt st.ai_design cid with
             | Some c -> supports st c pin
             | None -> false)
           n.D.npins

let obs_depends st nid push =
  match D.driver ~resolve:st.ai_resolve st.ai_design nid with
  | D.Src_comp (cid, _) -> (
      match D.comp_opt st.ai_design cid with
      | Some c -> iter_input_nets st c push
      | None -> ())
  | D.Src_port _ | D.Src_none -> ()

(* Liveness re-decides the touched nets, the dirty components and every
   driver of a touched net (it may have stopped being the net's
   [D.driver]).  Observability re-decides the touched nets, the inputs
   of every driver of a touched net, and the inputs of every reader of a
   moved net: a moved side input can mask or unmask a pin. *)
let run_backward st touched moved =
  let design = st.ai_design in
  Hashtbl.iter
    (fun cid () ->
      if D.comp_opt design cid = None then Hashtbl.remove st.live_comps cid)
    st.dirty_comps;
  let live = ref [] and obs = ref [] in
  let inputs_of cid =
    match D.comp_opt design cid with
    | Some c -> iter_input_nets st c (fun m -> obs := m :: !obs)
    | None -> ()
  in
  Hashtbl.iter (fun cid () -> live := Comp cid :: !live) st.dirty_comps;
  Hashtbl.iter
    (fun nid () ->
      live := Net nid :: !live;
      obs := nid :: !obs;
      match D.net_opt design nid with
      | Some n ->
          List.iter
            (fun (cid, pin) ->
              if is_output st cid pin then begin
                live := Comp cid :: !live;
                inputs_of cid
              end)
            n.D.npins
      | None ->
          Hashtbl.remove st.live_nets nid;
          Hashtbl.remove st.obs_nets nid)
    touched;
  List.iter
    (fun nid ->
      List.iter
        (fun (cid, pin) -> if is_input st cid pin then inputs_of cid)
        (D.net design nid).D.npins)
    moved;
  settle
    ~mem:(function
      | Net nid -> Hashtbl.mem st.live_nets nid
      | Comp cid -> Hashtbl.mem st.live_comps cid)
    ~set:(fun x on ->
      match x with
      | Net nid -> set_in st.live_nets nid on
      | Comp cid -> set_in st.live_comps cid on)
    ~holds:(live_holds st) ~depends:(live_depends st) !live;
  settle ~mem:(Hashtbl.mem st.obs_nets) ~set:(set_in st.obs_nets)
    ~holds:(obs_holds st) ~depends:(obs_depends st) !obs

let refresh_stale st =
  if st.full_needed then begin
    run_full st;
    st.order <- None;
    run_liveness st;
    run_observability st
  end
  else begin
    let touched = touched_nets st in
    let moved = run_incremental st touched in
    if acyclic st then run_backward st touched moved
    else begin
      st.ai_stats.fallback_runs <- st.ai_stats.fallback_runs + 1;
      run_liveness st;
      run_observability st
    end
  end

(* A refresh that raises leaves half-updated facts: the next one starts
   over. *)
let refresh st =
  if not st.fresh then begin
    (match refresh_stale st with
    | () -> ()
    | exception e ->
        st.full_needed <- true;
        raise e);
    Hashtbl.reset st.dirty_nets;
    Hashtbl.reset st.dirty_comps;
    st.full_needed <- false;
    st.fresh <- true
  end

(* --- Construction / invalidation --------------------------------------- *)

let analyze ?memo ?resolve env design =
  let resolve =
    match resolve with
    | Some r -> r
    | None ->
        Simulator.resolver_of_env
          {
            Simulator.find_macro =
              (fun n ->
                match env n with Some m -> m | None -> raise Not_found);
          }
  in
  let st =
    {
      ai_design = design;
      ai_env = env;
      ai_resolve = resolve;
      ai_memo = (match memo with Some m -> m | None -> new_memo ());
      values = Hashtbl.create 256;
      poisoned = Hashtbl.create 16;
      multi = Hashtbl.create 16;
      obs_nets = Hashtbl.create 256;
      live_nets = Hashtbl.create 256;
      live_comps = Hashtbl.create 256;
      dirty_nets = Hashtbl.create 16;
      dirty_comps = Hashtbl.create 16;
      order = None;
      fresh = false;
      full_needed = true;
      ai_stats =
        { full_runs = 0; incremental_runs = 0; fallback_runs = 0; transfers = 0 };
    }
  in
  refresh st;
  st

let invalidate st =
  st.fresh <- false;
  st.full_needed <- true

let advance st entries =
  if entries <> [] then begin
    st.fresh <- false;
    List.iter
      (fun e ->
        match e with
        | D.E_add_comp (cid, _, _) | D.E_set_kind (cid, _, _) ->
            Hashtbl.replace st.dirty_comps cid ()
        | D.E_remove_comp (cid, _, _, conns) ->
            Hashtbl.replace st.dirty_comps cid ();
            List.iter (fun (_, nid) -> Hashtbl.replace st.dirty_nets nid ()) conns
        | D.E_connect (cid, _, prev, _) -> (
            Hashtbl.replace st.dirty_comps cid ();
            match prev with
            | Some nid -> Hashtbl.replace st.dirty_nets nid ()
            | None -> ())
        | D.E_add_net (nid, _) | D.E_remove_net (nid, _, _) ->
            Hashtbl.replace st.dirty_nets nid ())
      entries
  end

(* --- Queries ------------------------------------------------------------ *)

let net_value st nid =
  refresh st;
  match D.net_opt st.ai_design nid with
  | None -> Top
  | Some _ -> net_value_raw st nid

let net_const st nid =
  match net_value st nid with Zero -> Some false | One -> Some true | Top -> None

let net_observable st nid =
  refresh st;
  Hashtbl.mem st.obs_nets nid

let comp_live st cid =
  refresh st;
  Hashtbl.mem st.live_comps cid

let comp_observable st cid =
  refresh st;
  match D.comp_opt st.ai_design cid with
  | None -> false
  | Some c ->
      List.exists
        (fun (_, nid) -> Hashtbl.mem st.obs_nets nid)
        (output_conns st c)

let const_nets st =
  refresh st;
  List.filter_map
    (fun (n : D.net) ->
      match net_value_raw st n.D.nid with
      | Zero -> Some (n.D.nid, false)
      | One -> Some (n.D.nid, true)
      | Top -> None)
    (D.nets st.ai_design)

let dead_comps st =
  refresh st;
  List.filter_map
    (fun (c : D.comp) ->
      if Hashtbl.mem st.live_comps c.D.id then None else Some c.D.id)
    (D.comps st.ai_design)

let unobservable_comps st =
  refresh st;
  List.filter_map
    (fun (c : D.comp) ->
      if
        Hashtbl.mem st.live_comps c.D.id
        && not
             (List.exists
                (fun (_, nid) -> Hashtbl.mem st.obs_nets nid)
                (output_conns st c))
      then Some c.D.id
      else None)
    (D.comps st.ai_design)

let stuck_pins st =
  refresh st;
  List.concat_map
    (fun (c : D.comp) ->
      Hashtbl.fold
        (fun pin nid acc ->
          match D.pin_dir ~resolve:st.ai_resolve st.ai_design c.D.id pin with
          | T.Input -> (
              match net_value_raw st nid with
              | Zero -> (c.D.id, pin, false) :: acc
              | One -> (c.D.id, pin, true) :: acc
              | Top -> acc)
          | T.Output -> acc
          | exception _ -> acc)
        c.D.conns [])
    (D.comps st.ai_design)

let floating_inputs st =
  refresh st;
  List.concat_map
    (fun (c : D.comp) ->
      if not (Hashtbl.mem st.live_comps c.D.id) then []
      else
        let pins =
          match comp_macro st c with
          | Some mac -> List.map (fun p -> (p, T.Input)) mac.Macro.inputs
          | None -> (
              try T.pins_of_kind ~resolve:st.ai_resolve c.D.kind
              with _ -> [])
        in
        List.filter_map
          (fun (p, dir) ->
            if dir = T.Input && not (Hashtbl.mem c.D.conns p) then
              Some (c.D.id, p)
            else None)
          pins)
    (D.comps st.ai_design)

let multi_driven st =
  refresh st;
  List.sort compare (Hashtbl.fold (fun nid () acc -> nid :: acc) st.multi [])

(* --- Summary ------------------------------------------------------------ *)

type summary = {
  sum_comps : int;
  sum_nets : int;
  sum_const0 : int;
  sum_const1 : int;
  sum_stuck_pins : int;
  sum_dead_comps : int;
  sum_unobservable_comps : int;
  sum_floating_inputs : int;
  sum_multi_driven : int;
  sum_transfers : int;
}

let summary st =
  refresh st;
  let consts = const_nets st in
  {
    sum_comps = D.num_comps st.ai_design;
    sum_nets = D.num_nets st.ai_design;
    sum_const0 = List.length (List.filter (fun (_, v) -> not v) consts);
    sum_const1 = List.length (List.filter (fun (_, v) -> v) consts);
    sum_stuck_pins = List.length (stuck_pins st);
    sum_dead_comps = List.length (dead_comps st);
    sum_unobservable_comps = List.length (unobservable_comps st);
    sum_floating_inputs = List.length (floating_inputs st);
    sum_multi_driven = List.length (multi_driven st);
    sum_transfers = st.ai_stats.transfers;
  }

let summary_to_json name s =
  Printf.sprintf
    "{\"design\": \"%s\", \"comps\": %d, \"nets\": %d, \"const0\": %d, \
     \"const1\": %d, \"stuck_pins\": %d, \"dead_comps\": %d, \
     \"unobservable_comps\": %d, \"floating_inputs\": %d, \"multi_driven\": \
     %d, \"transfers\": %d}"
    (Milo_trace.Export.json_escape name)
    s.sum_comps s.sum_nets s.sum_const0 s.sum_const1 s.sum_stuck_pins
    s.sum_dead_comps s.sum_unobservable_comps s.sum_floating_inputs
    s.sum_multi_driven s.sum_transfers

let pp_summary ppf s =
  Format.fprintf ppf
    "%d comps, %d nets: %d const (%d low, %d high), %d stuck pins, %d dead \
     comps, %d unobservable comps, %d floating inputs, %d multi-driven nets"
    s.sum_comps s.sum_nets (s.sum_const0 + s.sum_const1) s.sum_const0
    s.sum_const1 s.sum_stuck_pins s.sum_dead_comps s.sum_unobservable_comps
    s.sum_floating_inputs s.sum_multi_driven
