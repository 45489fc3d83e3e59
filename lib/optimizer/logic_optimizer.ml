(* The logic optimizer (Section 6.4, Figure 18): hierarchical,
   technology-specific optimization.

   Each compiled sub-design is mapped and optimized at the lowest level
   of the hierarchy first; then the next level up is expanded in terms
   of the already-optimized lower designs and optimized itself, until
   the whole design is one flat, optimized, technology-specific netlist.
   "Since the logic compilers produce near-optimal designs, little
   optimization is required -- for the most part a cleanup of the
   technology mapper's design (such as inverter elimination, or merging
   of components)." *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Database = Milo_compilers.Database
module Table_map = Milo_techmap.Table_map

type report_entry = {
  level_design : string;
  applications : int;
  area_before : float;
  area_after : float;
}

type report = {
  entries : report_entry list;
  timing : Time_opt.outcome option;
}

(* Sub-design names reachable from a design, deepest first. *)
let instance_order db design =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit d =
    List.iter
      (fun (c : D.comp) ->
        match c.D.kind with
        | T.Instance name ->
            if not (Hashtbl.mem seen name) then begin
              Hashtbl.replace seen name ();
              visit (Database.get db name);
              order := name :: !order
            end
        | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _
        | T.Logic_unit _ | T.Arith_unit _ | T.Register _ | T.Counter _
        | T.Constant _ | T.Macro _ ->
            ())
      (D.comps d)
  in
  visit design;
  List.rev !order

let make_ctx ~session tech_db target design =
  R.make_context ~session
    ~extra_resolve:(Database.resolver tech_db [ target.Table_map.tech ])
    target.Table_map.tech target.Table_map.set design

(* Greedy area/quality pass over one level of the hierarchy.  Uses a
   structural cost (macro area) so it applies to sub-designs with
   instances, where full STA is not yet meaningful: each component
   weighs its macro's area, or its already-optimized sub-design's.  An
   instance's weight is memoised, which is safe while [tech_db] is
   frozen: nothing registers into it while a level is optimized. *)
let level_weight target tech_db =
  let macro_area m =
    (Milo_library.Technology.find target.Table_map.tech m).Milo_library.Macro.area
  in
  let instances = Hashtbl.create 8 in
  fun (kind : T.kind) ->
    match kind with
    | T.Macro m -> macro_area m
    | T.Instance i -> (
        match Hashtbl.find_opt instances i with
        | Some w -> w
        | None ->
            (* Optimized sub-designs were measured when they were done. *)
            let w =
              List.fold_left
                (fun acc (sc : D.comp) ->
                  acc
                  +.
                  match sc.D.kind with
                  | T.Macro m -> macro_area m
                  | T.Instance _ | T.Gate _ | T.Multiplexor _ | T.Decoder _
                  | T.Comparator _ | T.Logic_unit _ | T.Arith_unit _
                  | T.Register _ | T.Counter _ | T.Constant _ ->
                      0.0)
                0.0
                (D.comps (Database.get tech_db i))
            in
            Hashtbl.replace instances i w;
            w)
    | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _
    | T.Logic_unit _ | T.Arith_unit _ | T.Register _ | T.Counter _
    | T.Constant _ ->
        0.0

let fold_weight weight design =
  List.fold_left (fun acc (c : D.comp) -> acc +. weight c.D.kind) 0.0 (D.comps design)

(* The fold the greedy pass's [Per_comp] cost replays.  Each context
   gets its own memo, so forks on other domains never share one. *)
let level_cost target tech_db ctx =
  let weight = level_weight target tech_db in
  fun () -> fold_weight weight ctx.R.design

let optimize_level ?budget ~exec ~session tech_db target design =
  Milo_trace.Trace.with_span ("level:" ^ D.name design) @@ fun () ->
  let ctx = make_ctx ~session tech_db target design in
  (* Nothing registers into [tech_db] while a level is optimized, so the
     run's plan may fan out here; the weight is read on this domain
     only. *)
  let weight = level_weight target tech_db in
  let before = fold_weight weight design in
  (* Per-level passes use only the logic critic's always-good rules
     ("for the most part a cleanup of the technology mapper's design");
     timing-sensitive area recovery happens on the flat design where the
     constraint can be enforced. *)
  let apps =
    Milo_rules.Engine.greedy_pass ?budget ~exec
      ~cost:(Milo_rules.Engine.Per_comp weight) ctx
      ~cleanups:Milo_critic.Critic.cleanup Milo_critic.Critic.logic
  in
  {
    level_design = D.name design;
    applications = List.length apps;
    area_before = before;
    area_after = fold_weight weight design;
  }

(* 1-2. Map and optimize every sub-design, deepest first; then map the
   top level and expand it one level at a time, optimizing after each
   expansion.  The result is flat: every [Instance] has been inlined. *)
let map_levels ~exec ~session ?budget db target design =
  let tech_db = Database.create () in
  let entries = ref [] in
  let level d =
    entries := optimize_level ?budget ~exec ~session tech_db target d :: !entries
  in
  List.iter
    (fun name ->
      let mapped =
        Table_map.map_design ~keep_instances:true target (Database.get db name)
      in
      level mapped;
      Database.register tech_db mapped)
    (instance_order db design);
  let top = ref (Table_map.map_design ~keep_instances:true target design) in
  let has_instances d =
    List.exists
      (fun (c : D.comp) ->
        match c.D.kind with
        | T.Instance _ -> true
        | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _
        | T.Logic_unit _ | T.Arith_unit _ | T.Register _ | T.Counter _
        | T.Constant _ | T.Macro _ ->
            false)
      (D.comps d)
  in
  level !top;
  while has_instances !top do
    top := Database.flatten_once tech_db !top;
    level !top
  done;
  (!top, List.rev !entries)

(* 3. Electric correctness, then timing against the constraint, then
   area recovery off the critical paths — everything that happens on the
   flat technology-mapped design, in place.  A flat design has no
   [Instance] kinds, so an empty technology database resolves every
   kind it can contain. *)
let flat_passes ~exec ~session ~required ~input_arrivals ?budget target d =
  let ctx = make_ctx ~session (Database.create ()) target d in
  let electric () =
    Milo_trace.Trace.with_span "electric" (fun () ->
        let log = D.new_log () in
        Milo_rules.Engine.run_cleanups ctx Milo_critic.Critic.electric log;
        D.commit ~label:"electric" ~design:d log)
  in
  electric ();
  (* One incremental measurer for the whole flat optimization stage:
     the timing and area passes below share it through the context (the
     timing pass tries its strategies on it in place, the area pass's
     workers fork it), so candidate evaluation costs a cone
     re-propagation instead of a full-design STA + estimate fold. *)
  ctx.R.measurer :=
    Some (Milo_measure.Measure.create ~input_arrivals target.Table_map.tech d);
  let timing =
    if required < infinity then
      Some
        (Time_opt.optimize ~required ?budget
           ~cleanups:Milo_critic.Critic.cleanup ctx)
    else None
  in
  let _ =
    Area_opt.optimize ~exec ~required ?budget
      ~rules:(Milo_critic.Critic.area @ Milo_critic.Critic.logic @ Milo_critic.Critic.power)
      ~cleanups:Milo_critic.Critic.cleanup ctx
  in
  ctx.R.measurer := None;
  electric ();
  timing

(* Figure 18's whole process under one session: the hierarchical
   design mapped and optimized level by level, then the flat passes. *)
let optimize ?(exec = Milo_parallel.Exec.inline ())
    ?(session = R.new_session ()) ?(required = infinity) ?(input_arrivals = [])
    ?budget db target design =
  let flat, entries = map_levels ~exec ~session ?budget db target design in
  let timing =
    flat_passes ~exec ~session ~required ~input_arrivals ?budget target flat
  in
  (flat, { entries; timing })
