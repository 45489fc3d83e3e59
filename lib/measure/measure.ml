(* Incremental cost evaluation: delta-STA plus streaming area/power.

   The measured disciplines evaluate thousands of candidate rewrites per
   step; recomputing a full-design STA and re-folding every component
   for each candidate makes evaluation cost O(design) when the rewrite
   touched three gates.  A measurer keeps the timing state and the
   running area/power totals of one design in lock-step with its change
   log: [advance] folds a log's entries into the state (re-propagating
   arrivals through the touched cone only, adjusting the totals by the
   entries' kind deltas), [retreat] restores the exact previous state
   after the design itself has been undone, and [commit] keeps it.
   Macro lookups are memoized, so the per-candidate [Technology.find]
   traffic collapses onto a hit-counted cache.  [fork] copies a
   measurer onto a copy of its design, so an oracle worker measures by
   delta too.

   Correctness is enforced by a differential oracle ([set_debug_check],
   the measurement twin of the engine's debug lint): every advance and
   retreat is cross-checked against a from-scratch recompute, and any
   divergence beyond 1e-9 (relative) raises {!Divergence}. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module M = Milo_library.Macro
module Technology = Milo_library.Technology
module Sta = Milo_timing.Sta
module Estimate = Milo_estimate.Estimate

type totals = { delay : float; area : float; power : float }

type stats = {
  advances : int;
  retreats : int;
  commits : int;
  resyncs : int;
  env_hits : int;
  env_misses : int;
  oracle_checks : int;
}

type counters = {
  mutable c_advances : int;
  mutable c_retreats : int;
  mutable c_commits : int;
  mutable c_resyncs : int;
  mutable c_env_hits : int;
  mutable c_env_misses : int;
  mutable c_oracle_checks : int;
}

type t = {
  design : D.t;
  tech : Technology.t;
  memo : (string, M.t) Hashtbl.t;  (* [env]'s macros, by name *)
  env : Sta.env;  (* memoized technology lookup *)
  input_arrivals : (string * float) list;
  mutable sta : Sta.t;
  mutable area : float;
  mutable power : float;
  ct : counters;
}

type token = { sta_tok : Sta.token; old_area : float; old_power : float }

exception Divergence of string

let () =
  Printexc.register_printer (function
    | Divergence msg -> Some ("Measure.Divergence: " ^ msg)
    | _ -> None)

let debug_check = ref false
let set_debug_check v = debug_check := v

(* Relative tolerance of the oracle (and of the equivalence suite). *)
let tolerance = 1e-9

let new_counters () =
  {
    c_advances = 0;
    c_retreats = 0;
    c_commits = 0;
    c_resyncs = 0;
    c_env_hits = 0;
    c_env_misses = 0;
    c_oracle_checks = 0;
  }

(* The hit-counted lookup through [memo]. *)
let memo_env tech memo ct name =
  match Hashtbl.find_opt memo name with
  | Some m ->
      ct.c_env_hits <- ct.c_env_hits + 1;
      m
  | None ->
      let m = Technology.find tech name in
      ct.c_env_misses <- ct.c_env_misses + 1;
      Hashtbl.replace memo name m;
      m

let create ?(input_arrivals = []) tech design =
  let ct = new_counters () and memo = Hashtbl.create 64 in
  let env = memo_env tech memo ct in
  {
    design;
    tech;
    memo;
    env;
    input_arrivals;
    sta = Sta.analyze ~input_arrivals env design;
    area = Estimate.area env design;
    power = Estimate.power env design;
    ct;
  }

(* The memo is an unlocked [Hashtbl], so a fork that may run on another
   domain gets its own, seeded with a copy of the parent's.  Forking
   only reads the parent. *)
let fork t design =
  let ct = new_counters () and memo = Hashtbl.copy t.memo in
  let env = memo_env t.tech memo ct in
  {
    t with
    design;
    memo;
    env;
    sta = Sta.copy t.sta ~design ~env;
    ct;
  }

let design t = t.design
let env t = t.env
let sta t = t.sta

let current t =
  { delay = Sta.worst_delay t.sta; area = t.area; power = t.power }

let stats t =
  {
    advances = t.ct.c_advances;
    retreats = t.ct.c_retreats;
    commits = t.ct.c_commits;
    resyncs = t.ct.c_resyncs;
    env_hits = t.ct.c_env_hits;
    env_misses = t.ct.c_env_misses;
    oracle_checks = t.ct.c_oracle_checks;
  }

let resync t =
  t.ct.c_resyncs <- t.ct.c_resyncs + 1;
  t.sta <- Sta.analyze ~input_arrivals:t.input_arrivals t.env t.design;
  t.area <- Estimate.area t.env t.design;
  t.power <- Estimate.power t.env t.design

(* --- Differential oracle ---------------------------------------------- *)

let close got want =
  Float.abs (got -. want) <= tolerance *. Float.max 1.0 (Float.abs want)

let check ~where t =
  t.ct.c_oracle_checks <- t.ct.c_oracle_checks + 1;
  let full = Sta.analyze ~input_arrivals:t.input_arrivals t.env t.design in
  let fd = Sta.worst_delay full in
  let fa = Estimate.area t.env t.design in
  let fp = Estimate.power t.env t.design in
  let d = Sta.worst_delay t.sta in
  if not (close d fd && close t.area fa && close t.power fp) then
    raise
      (Divergence
         (Printf.sprintf
            "%s on %s: incremental delay=%.12g area=%.12g power=%.12g vs full \
             delay=%.12g area=%.12g power=%.12g"
            where (D.name t.design) d t.area t.power fd fa fp))

(* --- Change-log folding ----------------------------------------------- *)

(* The nets and comps whose timing may differ, read from the log
   entries against the post-application design.  A connect dirties the
   previous net (its load changed), the current net of that pin, and
   the component itself; structural entries dirty the object and its
   (saved or current) connections. *)
let touched t entries =
  let nets = Hashtbl.create 16 and comps = Hashtbl.create 16 in
  let add_net nid = Hashtbl.replace nets nid () in
  let add_comp cid = Hashtbl.replace comps cid () in
  let comp_nets cid =
    match D.comp_opt t.design cid with
    | Some c -> Hashtbl.iter (fun _ nid -> add_net nid) c.D.conns
    | None -> ()
  in
  List.iter
    (fun (e : D.entry) ->
      match e with
      | D.E_add_comp (cid, _, _) | D.E_set_kind (cid, _, _) ->
          add_comp cid;
          comp_nets cid
      | D.E_remove_comp (cid, _, _, saved) ->
          add_comp cid;
          List.iter (fun (_, nid) -> add_net nid) saved
      | D.E_connect (cid, pin, prev, _) -> (
          add_comp cid;
          (match prev with Some nid -> add_net nid | None -> ());
          match D.comp_opt t.design cid with
          | Some c -> (
              match Hashtbl.find_opt c.D.conns pin with
              | Some nid -> add_net nid
              | None -> ())
          | None -> ())
      | D.E_add_net (nid, _) | D.E_remove_net (nid, _, _) -> add_net nid)
    entries;
  ( Hashtbl.fold (fun nid () acc -> nid :: acc) nets [],
    Hashtbl.fold (fun cid () acc -> cid :: acc) comps [] )

(* Area/power delta of a log: for every component the log touched
   structurally, the first entry mentioning it tells its kind at the
   start of the log ([E_add_comp]: absent), and the design tells its
   kind now; the delta is the sum of the differences.  Connectivity
   entries carry no area/power. *)
let est_delta t entries =
  let initial : (int, T.kind option) Hashtbl.t = Hashtbl.create 16 in
  let note cid st =
    if not (Hashtbl.mem initial cid) then Hashtbl.replace initial cid st
  in
  List.iter
    (fun (e : D.entry) ->
      match e with
      | D.E_add_comp (cid, _, _) -> note cid None
      | D.E_remove_comp (cid, _, kind, _) -> note cid (Some kind)
      | D.E_set_kind (cid, old, _) -> note cid (Some old)
      | D.E_connect _ | D.E_add_net _ | D.E_remove_net _ -> ())
    entries;
  Hashtbl.fold
    (fun cid st (da, dp) ->
      let ba, bp =
        match st with
        | None -> (0.0, 0.0)
        | Some k -> (Estimate.kind_area t.env k, Estimate.kind_power t.env k)
      in
      let aa, ap =
        match D.comp_opt t.design cid with
        | Some c ->
            (Estimate.kind_area t.env c.D.kind, Estimate.kind_power t.env c.D.kind)
        | None -> (0.0, 0.0)
      in
      (da +. aa -. ba, dp +. ap -. bp))
    initial (0.0, 0.0)

let advance t entries =
  let touched_nets, touched_comps = touched t entries in
  if Milo_trace.Trace.enabled () then begin
    let cn = List.length touched_nets and cc = List.length touched_comps in
    Milo_trace.Trace.sample "measure.cone_nets" (float_of_int cn);
    Milo_trace.Trace.sample "measure.cone_comps" (float_of_int cc);
    let hits = t.ct.c_env_hits and misses = t.ct.c_env_misses in
    if hits + misses > 0 then
      Milo_trace.Trace.set_gauge "measure.env_hit_rate"
        (float_of_int hits /. float_of_int (hits + misses))
  end;
  let da, dp = est_delta t entries in
  let sta_tok = Sta.update t.sta ~touched_nets ~touched_comps in
  let tok = { sta_tok; old_area = t.area; old_power = t.power } in
  t.area <- t.area +. da;
  t.power <- t.power +. dp;
  t.ct.c_advances <- t.ct.c_advances + 1;
  if !debug_check then check ~where:"advance" t;
  tok

(* Restore the absolute pre-advance totals rather than subtracting the
   delta back out, so a retreat is exact (no float drift accumulates
   across evaluate/undo cycles). *)
let retreat t tok =
  Sta.rollback t.sta tok.sta_tok;
  t.area <- tok.old_area;
  t.power <- tok.old_power;
  t.ct.c_retreats <- t.ct.c_retreats + 1;
  if !debug_check then check ~where:"retreat" t

let commit t _tok = t.ct.c_commits <- t.ct.c_commits + 1
