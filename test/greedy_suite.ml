(* Greedy suite — the differential of record for the per-level pass.

   The per-level pass scores its candidates as a [Per_comp] cost: a
   candidate's effect (components removed, re-kinded, added) is kept in
   the pass's table across commits, and its gain is the replay of
   [level_cost]'s fold over the current design.  The same pass with
   [Measured level_cost] re-measures every candidate on its fork.

   - Both commit the same applications in the same order — rule, site
     and gain bits — and end on the same design: designs 1-8 under ECL
     and CMOS, random logic at 150, 300 and 600 gates.
   - Every candidate's replayed gain is bit-identical to a measurement,
     at the first step and after 3 steps (table hits included).
   - Invalidation is load-bearing: a hand-built design where a commit
     changes a cached candidate's cleanup cascade without touching its
     site.
   - A commit from a cleanup-quiet state cleans up near its own edits,
     and the pass reads the next state's quietness off its kept cleanup
     lists: the same passes with the cleanups rebuilt non-local (found
     in full every step, clean the whole design on every commit) commit
     the same sequence and end equal, on designs 1-8 and random logic
     at 150 and 300 gates, and the kept passes make fewer whole-design
     cleanup finds than one per cleanup and commit.
   - The extent meets a neighbour's re-kind with no net edit, and a
     net-only pin change.
   - The kept site lists: at every step of the level pass and of the
     area pass, on designs 1-8 and random logic at 150, 300 and 600
     gates, each local rule's list and each cleanup's as the table
     keeps them ([Engine.sites], what scoring reads) equal a full find,
     order included, so the step's cleanup-quiet answer equals a full
     find of every cleanup; every evaluation the table keeps read only
     components and nets of the state it was kept on (not the ids its
     candidate added, which the undo hands back to the next commit);
     and once the first step has found each local rule in full, no
     step of the pass finds one over the whole design again. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Engine = Milo_rules.Engine
module Table_map = Milo_techmap.Table_map
module Level = Milo_optimizer.Logic_optimizer

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let cleanups = Milo_critic.Critic.cleanup
let rules = Milo_critic.Critic.logic
let exec = Milo_parallel.Exec.inline ()

let ctx_of (target : Table_map.target) d =
  R.make_context target.Table_map.tech target.Table_map.set d

(* No live cleanup matches anywhere in the design. *)
let cleanup_quiet ctx cleanups =
  List.for_all (fun c -> Engine.guarded_find ctx c = []) cleanups

let ints l = String.concat "," (List.map string_of_int l)

let app_line (a : Engine.application) =
  Printf.sprintf "%s at %s [%s|%s] gain %h" a.Engine.rule.R.rule_name
    a.Engine.site.R.descr
    (ints a.Engine.site.R.site_comps)
    (ints a.Engine.site.R.site_data)
    a.Engine.gain

let gain_line = function
  | Ok g -> Printf.sprintf "%h" g
  | Error reason -> "refused " ^ reason

(* Run [greedy_pass] on two copies of [d] ([mk] makes their contexts),
   with [per] and with [measured] (each with its cleanups): the commits
   must agree line for line and the designs must end equal.  Returns
   the number of commits. *)
let differential ?(rules = rules) ?(per_cleanups = cleanups)
    ?(measured_cleanups = cleanups) ?(labels = ("per_comp", "measured")) name mk
    d ~per ~measured =
  let a = mk (D.copy d) and b = mk (D.copy d) in
  let apps_p = Engine.greedy_pass ~cost:per a ~cleanups:per_cleanups rules in
  let apps_m =
    Engine.greedy_pass ~cost:measured b ~cleanups:measured_cleanups rules
  in
  let lp = List.map app_line apps_p and lm = List.map app_line apps_m in
  let la, lb = labels in
  if List.length lp <> List.length lm then
    fail "%s: %d commits %s, %d %s" name (List.length lp) la (List.length lm) lb;
  let rec pairs i = function
    | p :: ps, m :: ms ->
        if p <> m then
          fail "%s: commit %d differs:\n  %s %s\n  %s %s" name i la p lb m;
        pairs (i + 1) (ps, ms)
    | _ -> ()
  in
  pairs 0 (lp, lm);
  if not (D.equal_structure a.R.design b.R.design) then
    fail "%s: final designs differ" name;
  List.length apps_m

let level_costs target =
  let db = Milo_compilers.Database.create () in
  ( Engine.Per_comp (Level.level_weight target db),
    Engine.Measured (Level.level_cost target db) )

(* --- 1. The differential on the workloads -------------------------------- *)

let workload_differential (name, target, d) =
  let per, measured = level_costs target in
  let t0 = Unix.gettimeofday () in
  let n = differential name (ctx_of target) d ~per ~measured in
  Printf.printf "ok   %s: %d commits identical (%.2f s)\n%!" name n
    (Unix.gettimeofday () -. t0)

(* --- 2. The replay itself ------------------------------------------------- *)

(* Every candidate's Per_comp gain (through [table]) against its gain
   measured in full on a fork of the same state. *)
let check_replay what target ctx table =
  let per, measured = level_costs target in
  let got = Engine.candidate_gains ~table ~exec ~cost:per ctx ~cleanups rules in
  let want = Engine.candidate_gains ~exec ~cost:measured ctx ~cleanups rules in
  if List.length got <> List.length want then
    fail "%s: %d candidates scored, %d measured" what (List.length got)
      (List.length want)
  else
    List.iter2
      (fun ((r : R.t), (s : R.site), g) ((r' : R.t), (s' : R.site), w) ->
        if r.R.rule_name <> r'.R.rule_name || s <> s' then
          fail "%s: candidate order differs at %s %s" what r.R.rule_name s.R.descr
        else if gain_line g <> gain_line w then
          fail "%s: %s at %s: replayed %s, measured %s" what r.R.rule_name
            s.R.descr (gain_line g) (gain_line w))
      got want;
  List.length got

let replay_pinned (name, target, d) =
  let ctx = ctx_of target (D.copy d) in
  let table = Engine.new_table () in
  let first = check_replay (name ^ " first step") target ctx table in
  let per, _ = level_costs target in
  let rec steps k =
    k = 3
    ||
    match Engine.greedy_step ~table ~exec ~cost:per ctx ~cleanups rules with
    | Engine.Committed _ -> steps (k + 1)
    | Engine.Refused | Engine.Quiescent -> false
  in
  let later =
    if steps 0 then check_replay (name ^ " after 3 steps") target ctx table else 0
  in
  (first, later)

(* --- 3. Invalidation is load-bearing ------------------------------------- *)

(* a, b3 -> c1 -> n1 -> c2 -> n2 -> c3 -> n3 -> s -> y, s also reads a;
   t = AND3(b, b2, b4) -> z, apart from the chain.  Every gate is an
   AND. *)
let cascade_design () =
  let d = D.create "cascade" in
  let port p dir = D.add_port d p dir in
  let a = port "A" T.Input and b = port "B" T.Input and b2 = port "B2" T.Input in
  let b3 = port "B3" T.Input and b4 = port "B4" T.Input in
  let y = port "Y" T.Output and z = port "Z" T.Output in
  let gate name kind ins out =
    let c = D.add_comp ~name d (T.Macro kind) in
    List.iteri (fun i nid -> D.connect d c (Printf.sprintf "A%d" i) nid) ins;
    D.connect d c "Y" out;
    c
  in
  let n1 = D.new_net ~name:"n1" d and n2 = D.new_net ~name:"n2" d in
  let n3 = D.new_net ~name:"n3" d in
  ignore (gate "c1" "AND2" [ a; b3 ] n1);
  ignore (gate "c2" "AND2" [ n1; b3 ] n2);
  ignore (gate "c3" "AND2" [ n2; b3 ] n3);
  ignore (gate "s" "AND2" [ n3; a ] y);
  ignore (gate "t" "AND3" [ b; b2; b4 ] z);
  d

let is_macro name (c : D.comp) = c.D.kind = T.Macro name

let has_macro ctx name cid =
  Option.fold ~none:false ~some:(is_macro name) (D.comp_opt ctx.R.design cid)

(* Local: an AND2 driving an output port becomes a buffer of its second
   input, which leaves the chain behind its first input dead. *)
let cut_rule =
  R.make ~local:true ~name:"cut" ~cls:R.Logic
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          match D.connection ctx.R.design c.D.id "Y" with
          | Some y when is_macro "AND2" c && R.net_is_port ctx y ->
              Some (R.site ~comps:[ c.D.id ] "cut")
          | Some _ | None -> None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ cid ] when has_macro ctx "AND2" cid ->
          R.replace_macro ctx log cid "BUF" (function
            | "A0" -> Some "A1"
            | "Y" -> Some "Y"
            | _ -> None);
          true
      | _ -> false)
    ()

(* Not local (it reads net n1 by name): the AND3 becomes a buffer of
   n1, a new reader far from the cut's site. *)
let tap_rule =
  R.make ~name:"tap" ~cls:R.Logic
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          if is_macro "AND3" c then Some (R.site ~comps:[ c.D.id ] "tap") else None)
        (R.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.R.site_comps with
      | [ cid ] when has_macro ctx "AND3" cid ->
          let n1 = List.find (fun (n : D.net) -> n.D.nname = "n1") (D.nets ctx.R.design) in
          R.replace_macro ctx log cid "BUF" (function "Y" -> Some "Y" | _ -> None);
          D.connect ~log ctx.R.design cid "A0" n1.D.nid;
          true
      | _ -> false)
    ()

let cascade_weight = function
  | T.Macro "AND3" -> 100.0
  | T.Macro "AND2" -> 10.0
  | T.Macro _ -> 1.0
  | _ -> 0.0

(* Step 1 scores the cut at 9 + 30 (c1..c3 go dead) and commits the tap
   (99), which gives n1 a reader again without touching anything the
   cut's site reads.  Step 2 must score the cut at 9 + 20: an entry kept
   across the tap's commit would still say 39. *)
let invalidation_load_bearing () =
  let lib = Milo_library.Generic.get () in
  let mk = R.make_context lib (Milo_compilers.Gate_comp.generic_set lib) in
  let d = cascade_design () in
  if not (cleanup_quiet (mk d) cleanups) then
    fail "cascade: the design is not cleanup-quiet, so nothing would be kept";
  let measured (ctx : R.context) () =
    List.fold_left (fun acc (c : D.comp) -> acc +. cascade_weight c.D.kind) 0.0
      (D.comps ctx.R.design)
  in
  let rules = [ tap_rule; cut_rule ] in
  ignore
    (differential ~rules "cascade" mk d ~per:(Engine.Per_comp cascade_weight)
       ~measured:(Engine.Measured measured));
  let ctx = mk (D.copy d) in
  match
    List.map
      (fun (a : Engine.application) -> (a.Engine.rule.R.rule_name, a.Engine.gain))
      (Engine.greedy_pass ~cost:(Engine.Per_comp cascade_weight) ctx ~cleanups rules)
  with
  | [ ("tap", 99.0); ("cut", 29.0) ] ->
      Printf.printf "ok   cascade: the tap's commit re-scores the cut (39 -> 29)\n"
  | apps ->
      fail "cascade: committed [%s], expected tap 99 then cut 29"
        (String.concat "; " (List.map (fun (r, g) -> Printf.sprintf "%s %g" r g) apps))

(* [r] with its [find] counting into [count] the calls made over the
   whole design (no focus). *)
let counting count (r : R.t) =
  {
    r with
    R.find =
      (fun ctx ->
        if Option.is_none !(ctx.R.focus) then incr count;
        r.R.find ctx);
  }

(* --- 4. Kept cleanup lists ------------------------------------------------ *)

(* A commit from a cleanup-quiet state runs its cleanups near its own
   edits, and the pass keeps the cleanups' site lists, so the next step
   reads its quietness off them — but only when every cleanup is local.
   The same cleanups rebuilt non-local take the path that finds them in
   full every step and cleans the whole design on every commit; both
   must commit the same sequence and end equal.  Returns the number of
   commits and the whole-design cleanup [find]s each side made. *)
let kept_cleanups_differential (name, target, d) =
  let per, _ = level_costs target in
  let counted ~local count =
    List.map (fun r -> { (counting count r) with R.local }) cleanups
  in
  let near = ref 0 and in_full = ref 0 in
  let n =
    differential
      ~per_cleanups:(counted ~local:true near)
      ~measured_cleanups:(counted ~local:false in_full)
      ~labels:("kept", "found in full") name (ctx_of target) d ~per
      ~measured:per
  in
  (n, !near, !in_full)

(* --- 5. The extent ------------------------------------------------------- *)

(* x drives m, which u reads; w shares no net with x.  The extent of an
   edit must contain x when it re-kinds u in place, and when it only
   attaches a new pin to m; a re-kind of w must not. *)
let extent_unit () =
  let d = D.create "extent" in
  let a = D.add_port d "A" T.Input and y = D.add_port d "Y" T.Output in
  let q = D.add_port d "Q" T.Output and m = D.new_net ~name:"m" d in
  let x = D.add_comp ~name:"x" d (T.Macro "INV") in
  let u = D.add_comp ~name:"u" d (T.Macro "INV") in
  let w = D.add_comp ~name:"w" d (T.Macro "BUF") in
  D.connect d x "A0" a;
  D.connect d x "Y" m;
  D.connect d u "A0" m;
  D.connect d u "Y" y;
  D.connect d w "Y" q;
  let meets what log expected =
    let comps, _ = Engine.extent d (D.entries log) in
    if Hashtbl.mem comps x <> expected then
      fail "extent: %s %s x" what (if expected then "misses" else "takes in");
    D.undo d log
  in
  let log = D.new_log () in
  D.set_kind ~log d u (T.Macro "BUF");
  meets "a neighbour's re-kind with no net edit" log true;
  let log = D.new_log () in
  D.connect ~log d w "A0" m;
  meets "a net-only pin change" log true;
  let log = D.new_log () in
  D.set_kind ~log d w (T.Macro "INV");
  meets "a re-kind elsewhere" log false;
  Printf.printf "ok   extent meets re-kinds and net-only pin changes\n"

(* --- 6. The kept site lists ----------------------------------------------- *)

(* Every evaluation the table keeps must read only components and nets
   of the state it was kept on.  Checked on the current state: an
   evaluation that survived the refresh after a commit read nothing the
   commit added or removed, so what it read is on this state exactly
   when it was on its own.  Returns the evaluations checked. *)
let kept_reads_exist what step ctx table =
  let design = ctx.R.design in
  List.fold_left
    (fun n (comps, nets) ->
      (match
         ( List.find_opt (fun c -> D.comp_opt design c = None) comps,
           List.find_opt (fun m -> D.net_opt design m = None) nets )
       with
      | None, None -> ()
      | Some c, _ ->
          fail "%s: step %d: a kept evaluation read component %d, which the state has not"
            what step c
      | None, Some m ->
          fail "%s: step %d: a kept evaluation read net %d, which the state has not" what
            step m);
      n + 1)
    0 (Engine.kept_reads table)

(* One pass, step by step on one table until it quiesces: before each
   step, every local rule's kept list and every cleanup's must equal a
   full find of the same state (by the unwrapped rule), order included,
   and so must the cleanup-quiet answer read off them; every kept
   evaluation must read only what the state has, also after the last
   step; and the pass must make exactly one whole-design find per local
   rule, at its first step.  Returns the steps taken, the lists
   compared and the kept evaluations checked. *)
let kept_sites_pass what ~cost ctx rules =
  let reads = ref 0 in
  let finds = ref 0 in
  let watched =
    List.map (fun (r : R.t) -> if r.R.local then counting finds r else r) rules
  in
  let table = Engine.new_table () in
  let check step =
    let same (r : R.t) (w : R.t) =
      let kept = Engine.sites table ctx w in
      let full = Engine.guarded_find ctx r in
      if kept <> full then
        fail "%s: step %d: %s keeps %d sites, a full find has %d%s" what step
          r.R.rule_name (List.length kept) (List.length full)
          (if List.length kept = List.length full then
             " (in another order or with other sites)"
           else "")
    in
    List.iter (fun c -> same c c) cleanups;
    let kept_quiet = List.for_all (fun c -> Engine.sites table ctx c = []) cleanups in
    if kept_quiet <> cleanup_quiet ctx cleanups then
      fail "%s: step %d: the kept cleanup lists read %s" what step
        (if kept_quiet then "quiet on a state that is not"
         else "not quiet on a quiet state");
    List.fold_left2
      (fun n (r : R.t) (w : R.t) ->
        if not r.R.local then n
        else begin
          same r w;
          n + 1
        end)
      (List.length cleanups) rules watched
  in
  let rec go step lists =
    let lists = lists + check step in
    reads := !reads + kept_reads_exist what step ctx table;
    if step >= 200 then (step, lists)
    else
      match Engine.greedy_step ~table ~exec ~cost ctx ~cleanups watched with
      | Engine.Committed _ -> go (step + 1) lists
      | Engine.Refused ->
          fail "%s: step %d refused a commit" what step;
          (step, lists)
      | Engine.Quiescent ->
          reads := !reads + kept_reads_exist what (step + 1) ctx table;
          (step, lists)
  in
  let steps, lists = go 0 0 in
  let locals = List.length (List.filter (fun (r : R.t) -> r.R.local) rules) in
  if !finds <> locals then
    fail "%s: %d whole-design finds of %d local rules over %d steps" what !finds
      locals steps;
  (steps, lists, !reads)

(* The level pass on the mapped design, then the area pass (measured,
   as the flow's flat stage runs it) on its result. *)
let kept_sites (name, target, d) =
  let per, _ = level_costs target in
  let ctx = ctx_of target (D.copy d) in
  let s1, l1, r1 = kept_sites_pass (name ^ " level") ~cost:per ctx rules in
  ctx.R.measurer :=
    Some (Milo_measure.Measure.create target.Table_map.tech ctx.R.design);
  let s2, l2, r2 =
    kept_sites_pass (name ^ " area")
      ~cost:(Engine.Measured (fun c -> Milo_optimizer.Area_opt.cost_fn c))
      ctx
      Milo_critic.Critic.(area @ logic @ power)
  in
  (s1, s2, l1 + l2, r1 + r2)

let () =
  let t0 = Unix.gettimeofday () in
  extent_unit ();
  invalidation_load_bearing ();
  let cases =
    Mapped_cases.designs ()
    @ List.map Mapped_cases.random_logic [ 150; 300; 600 ]
  in
  List.iter workload_differential cases;
  let commits, near, in_full =
    List.fold_left
      (fun (c, n, p) ((name, _, _) as case) ->
        if String.starts_with ~prefix:"random_logic_600" name then (c, n, p)
        else
          let c', n', p' = kept_cleanups_differential case in
          (c + c', n + n', p + p'))
      (0, 0, 0) cases
  in
  Printf.printf
    "ok   kept cleanup lists: %d commits identical to finding them in full; \
     whole-design cleanup finds %d (in full: %d)\n"
    commits near in_full;
  (* finding them every step would take one find per cleanup per commit *)
  if near >= List.length cleanups * commits then
    fail "kept cleanup lists: %d whole-design cleanup finds over %d commits"
      near commits;
  (* The replay is pinned up to 300 gates: at 600, measuring every
     candidate twice would cost more than the rest of the suite. *)
  let first, later =
    List.fold_left
      (fun (f, l) ((name, _, _) as case) ->
        if String.starts_with ~prefix:"random_logic_600" name then (f, l)
        else
          let f', l' = replay_pinned case in
          (f + f', l + l'))
      (0, 0) cases
  in
  Printf.printf
    "ok   replay: %d candidates at the first step, %d after 3 steps, all \
     bit-identical to a measurement\n"
    first later;
  if later = 0 then fail "replay: no design took 3 steps";
  let level, area, lists, reads =
    List.fold_left
      (fun (s, a, l, r) case ->
        let s', a', l', r' = kept_sites case in
        (s + s', a + a', l + l', r + r'))
      (0, 0, 0, 0) cases
  in
  Printf.printf
    "ok   kept sites: %d lists (cleanups' included) equal to a full find \
     over %d level and %d area steps; one whole-design find per local rule \
     and pass; %d kept evaluations read only what their state has\n"
    lists level area reads;
  if area = 0 then fail "kept sites: no area pass took a step";
  if reads = 0 then fail "kept sites: no evaluation was kept";
  Printf.printf "greedy_suite: %.1f s\n" (Unix.gettimeofday () -. t0);
  if !failures > 0 then begin
    Printf.printf "greedy_suite: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "greedy_suite: all clean"
