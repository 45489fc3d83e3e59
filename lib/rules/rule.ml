(* First-class rewrite rules over netlists.

   A rule has an antecedent ([find]: all match sites in the design) and
   a consequent ([apply]: perform the local transformation, recording
   its changelog so the engine can measure and backtrack — the paper's
   SOCRATES keeps exactly such a log).  Rules are grouped in classes
   mirroring the five experts of Figure 17 plus the cleanup class of the
   Logic Consultant and the microarchitecture critic's rules. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Macro = Milo_library.Macro
module Technology = Milo_library.Technology

type rule_class =
  | Logic  (** always improves both delay and area *)
  | Timing  (** speed at the expense of area/power *)
  | Area  (** area at the expense of speed *)
  | Power  (** power at the expense of speed *)
  | Electric  (** corrects electrical violations (fanout) *)
  | Cleanup  (** high-priority clean-up after other rules *)
  | Micro  (** microarchitecture-level transformation *)

let class_name = function
  | Logic -> "logic"
  | Timing -> "timing"
  | Area -> "area"
  | Power -> "power"
  | Electric -> "electric"
  | Cleanup -> "cleanup"
  | Micro -> "micro"

(* --- Engine session ------------------------------------------------------ *)

(* The engine's per-run state.  [Engine] owns the logic; the record
   lives here so every context of a run can carry it, and two runs in
   one process never share a quarantine. *)

type reason = Raised | Miscompiled

type rule_guard = {
  rg_policy : Milo_guard.Guard.policy;
  rg_budget : Budget.t option;
  rg_stats : Milo_guard.Guard.stats;
  rg_seen : (string, unit) Hashtbl.t;  (* rules checked at least once *)
  mutable rg_tick : int;  (* check opportunities, for sampling *)
  rg_tv : (string, int array) Hashtbl.t;  (* cone digest -> truth vector *)
}

type analysis = ..

(* A whole-design analysis, the state it was computed on, and how to
   carry it over committed edits.  Every design mutator bumps the
   generation (undo included), so equal keys mean the facts still
   hold. *)
type analysis_slot = {
  an_design : D.t;
  an_generation : int;
  an_tech : Technology.t;
  an_resolve : D.resolver;
  an_value : analysis;
  an_advance : D.entry list -> unit;
}

type session = {
  quarantine : (string, int * string * reason) Hashtbl.t;
  trapped : (string * string * reason) list ref option;
  mutable rule_guard : rule_guard option;
  mutable certified : string list;
  mutable last_verdict : Milo_netlist.Design.verdict;
  mutable debug_lint : bool;
  mutable analysis : analysis_slot option;
}

let new_session () =
  {
    quarantine = Hashtbl.create 16;
    trapped = None;
    rule_guard = None;
    certified = [];
    last_verdict = Milo_netlist.Design.Unguarded;
    debug_lint = false;
    analysis = None;
  }

(* A worker's session reads its parent's quarantine and collects its
   own failures; it never guards (only the coordinator's authoritative
   re-application is checked). *)
let fork_session s =
  {
    (new_session ()) with
    quarantine = s.quarantine;
    trapped = Some (ref []);
    debug_lint = s.debug_lint;
  }

type context = {
  design : D.t;
  tech : Technology.t;  (** library the design's macros come from *)
  set : Milo_compilers.Gate_comp.gate_set;
  resolve : D.resolver;
  focus : (int, unit) Hashtbl.t option ref;
      (** when set, [find] only examines these components — the
          Rete-style incremental matching of Section 2.2.1 *)
  measurer : Milo_measure.Measure.t option ref;
      (** when set, the engine keeps this incremental measurer in
          lock-step with every apply/undo/commit, and measurer-aware
          cost functions read it instead of recomputing *)
  session : session;
}

let make_context ?session ?(extra_resolve : D.resolver option) tech set design =
  let resolve kind nm =
    let unresolved () =
      match extra_resolve with
      | Some f -> f kind nm
      | None -> invalid_arg (Printf.sprintf "Rule.context: unresolved %s" nm)
    in
    match kind with
    | T.Macro _ -> (
        match Technology.find_opt tech nm with
        | Some m -> m.Macro.pins
        | None -> unresolved ())
    | T.Instance _ -> unresolved ()
    | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _
    | T.Logic_unit _ | T.Arith_unit _ | T.Register _ | T.Counter _
    | T.Constant _ ->
        T.pins_of_kind kind
  in
  let session = match session with Some s -> s | None -> new_session () in
  { design; tech; set; resolve; focus = ref None; measurer = ref None; session }

(* Fork for a parallel oracle worker: an id-preserving snapshot of the
   design (so sites — bare component/net ids — found on the original
   resolve identically on the fork), sharing the immutable technology,
   gate set and resolver, with a fresh focus slot, a fork of the
   measurer if there is one, and a forked session.  The worker
   evaluates candidates on the copy and throws it away; nothing it does
   is visible through the original context. *)
let fork_context ctx =
  let design = D.copy ctx.design in
  {
    ctx with
    design;
    focus = ref None;
    measurer =
      ref
        (Option.map
           (fun m -> Milo_measure.Measure.fork m design)
           !(ctx.measurer));
    session = fork_session ctx.session;
  }

let find_macro ctx name = Technology.find_opt ctx.tech name

(* The shared-analysis slot: whoever finds it empty or out of date
   computes and stores a fresh analysis. *)
let keyed ctx ~generation a =
  a.an_design == ctx.design
  && a.an_generation = generation
  && a.an_tech == ctx.tech && a.an_resolve == ctx.resolve

let analysis ctx =
  match ctx.session.analysis with
  | Some a when keyed ctx ~generation:(D.generation ctx.design) a ->
      Some a.an_value
  | Some _ | None -> None

let latest_analysis session tech =
  match session.analysis with
  | Some a when a.an_tech == tech -> Some a.an_value
  | Some _ | None -> None

let set_analysis ctx v ~advance =
  ctx.session.analysis <-
    Some
      {
        an_design = ctx.design;
        an_generation = D.generation ctx.design;
        an_tech = ctx.tech;
        an_resolve = ctx.resolve;
        an_value = v;
        an_advance = advance;
      }

(* Carry an analysis of the state at [generation] over the entries
   committed since, so it describes the current state again.  Any
   other slot is left to go stale. *)
let advance_analysis ctx ~generation entries =
  match ctx.session.analysis with
  | Some a when keyed ctx ~generation a ->
      a.an_advance entries;
      ctx.session.analysis <-
        Some { a with an_generation = D.generation ctx.design }
  | Some _ | None -> ()

let macro_of ctx (c : D.comp) =
  match c.D.kind with
  | T.Macro m -> Technology.find_opt ctx.tech m
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Constant _ | T.Instance _
    ->
      None

type site = {
  site_comps : int list;
  site_data : int list;
  descr : string;
  anchor : int;  (** the scanned component [find] matched the site at *)
}

let site ?anchor ?(data = []) ~comps descr =
  let anchor =
    match (anchor, comps) with
    | Some a, _ -> a
    | None, first :: _ -> first
    | None, [] -> -1
  in
  { site_comps = comps; site_data = data; descr; anchor }

type t = {
  rule_name : string;
  rule_class : rule_class;
  find : context -> site list;
  apply : context -> site -> D.log -> bool;
      (** returns false if the site is stale (no longer matches) *)
  local : bool;  (** keeps the locality contract (see rule.mli) *)
}

let make ?(local = false) ~name ~cls ~find ~apply () =
  { rule_name = name; rule_class = cls; find; apply; local }

(* --- Helpers shared by rule implementations -------------------------- *)

(* Components eligible for matching: all of them, or just the live
   members of the focus set.  Both come in id order, so a focused [find]
   lists its sites in the order a full scan would. *)
let scan_comps ctx =
  match !(ctx.focus) with
  | None -> D.comps ctx.design
  | Some tbl ->
      Hashtbl.fold
        (fun cid () acc ->
          match D.comp_opt ctx.design cid with
          | Some c -> c :: acc
          | None -> acc)
        tbl []
      |> List.sort (fun (a : D.comp) b -> compare a.D.id b.D.id)

(* All components whose kind is a macro satisfying [pred]. *)
let macro_comps ctx pred =
  List.filter_map
    (fun (c : D.comp) ->
      match macro_of ctx c with
      | Some m when pred c m -> Some c
      | Some _ | None -> None)
    (scan_comps ctx)

(* A rule that re-kinds one macro component to the variant [target]
   names, when the technology has it: the power-level and adder
   swaps.  [verb] starts each site's description. *)
let retarget ~name ~cls ~verb target =
  let variant ctx (m : Macro.t) =
    match target ctx.tech m.Macro.mname with
    | Some t when Technology.mem ctx.tech t -> Some t
    | Some _ | None -> None
  in
  make ~name ~cls
    ~find:(fun ctx ->
      macro_comps ctx (fun _ m -> variant ctx m <> None)
      |> List.map (fun (c : D.comp) ->
             site ~comps:[ c.D.id ] (verb ^ " " ^ c.D.cname)))
    ~apply:(fun ctx s log ->
      match s.site_comps with
      | [ cid ] -> (
          match
            Option.bind (D.comp_opt ctx.design cid) (fun c ->
                Option.bind (macro_of ctx c) (variant ctx))
          with
          | Some t ->
              D.set_kind ~log ctx.design cid (T.Macro t);
              true
          | None -> false)
      | _ -> false)
    ()

(* The component driving a net, of any kind, with its output pin. *)
let driver_comp ctx nid =
  match D.driver ~resolve:ctx.resolve ctx.design nid with
  | D.Src_comp (cid, pin) -> Some (D.comp ctx.design cid, pin)
  | D.Src_port _ | D.Src_none -> None

let fanout ctx nid = D.fanout ~resolve:ctx.resolve ctx.design nid

(* Replace component [cid] by macro [mname], rewiring pins through
   [pin_map : new_pin -> old_pin].  Pins absent from the map are left
   unconnected. *)
let replace_macro ctx log cid mname pin_map =
  let old_conns = D.connections ctx.design cid in
  List.iter (fun (pin, _) -> D.disconnect ~log ctx.design cid pin) old_conns;
  D.set_kind ~log ctx.design cid (T.Macro mname);
  let m = Technology.find ctx.tech mname in
  List.iter
    (fun (new_pin, _) ->
      match pin_map new_pin with
      | Some old_pin -> (
          match List.assoc_opt old_pin old_conns with
          | Some nid -> D.connect ~log ctx.design cid new_pin nid
          | None -> ())
      | None -> ())
    m.Macro.pins

(* Delete a component and any nets it leaves dangling (no pins, no
   port). *)
let remove_comp_and_dangling ctx log cid =
  let conns = D.connections ctx.design cid in
  D.remove_comp ~log ctx.design cid;
  List.iter
    (fun (_, nid) ->
      match D.net_opt ctx.design nid with
      | Some n when n.D.npins = [] && n.D.nport = None ->
          D.remove_net ~log ctx.design nid
      | Some _ | None -> ())
    conns

(* Move every pin (and port binding stays) from [src] onto [dst]. *)
let merge_net_into ctx log ~src ~dst =
  let pins = (D.net ctx.design src).D.npins in
  List.iter (fun (cid, pin) -> D.connect ~log ctx.design cid pin dst) pins;
  match D.net_opt ctx.design src with
  | Some n when n.D.npins = [] && n.D.nport = None ->
      D.remove_net ~log ctx.design src
  | Some _ | None -> ()

let net_is_port ctx nid = (D.net ctx.design nid).D.nport <> None

(* Route [signal]'s value to the consumers of [old_net].  Unlike a plain
   merge, this handles [signal] being an input-port net (whose "driver"
   cannot move): then the old net's pins move onto the signal net; if
   both nets are port-bound, a buffer bridges them. *)
let reroute ctx log ~signal ~old_net =
  if signal = old_net then ()
  else
    let comp_driven =
      match driver_comp ctx signal with Some _ -> true | None -> false
    in
    if comp_driven && not (net_is_port ctx signal) then
      merge_net_into ctx log ~src:signal ~dst:old_net
    else if not (net_is_port ctx old_net) then begin
      let pins = (D.net ctx.design old_net).D.npins in
      List.iter (fun (cid, pin) -> D.connect ~log ctx.design cid pin signal) pins;
      match D.net_opt ctx.design old_net with
      | Some n when n.D.npins = [] && n.D.nport = None ->
          D.remove_net ~log ctx.design old_net
      | Some _ | None -> ()
    end
    else begin
      (* Both port-bound: bridge with a buffer. *)
      let out =
        Milo_compilers.Gate_comp.build ~log ctx.design ctx.set
          Milo_netlist.Types.Buf [ signal ]
      in
      if out <> signal then merge_net_into ctx log ~src:out ~dst:old_net
    end

(* Does the site still refer to live components? *)
let site_alive ctx site =
  List.for_all (fun cid -> D.comp_opt ctx.design cid <> None) site.site_comps
