(* Levelized logic simulation of mixed microarchitecture / macro designs.

   The clock is implicit and global: every sequential component updates
   on [step].  Undriven nets read as [false].

   A simulator observes a static design, so all structural analysis is
   done once in [create]: pin directions, macro lookups, a dense
   net-slot numbering, and — the heart of the engine — a levelized
   evaluation schedule (Kahn's topological order over the
   driver-to-sink edges).  Sequential state-only outputs and input
   ports are the order's sources; components that never become ready
   form a combinational loop, reported from [settle] (not [create]) so
   a simulator over a cyclic design can still be constructed and
   probed.

   Two engines share the schedule:

   - the scalar path ([settle]/[outputs]/[step]) evaluates one vector
     per pass through the reference semantics in [Eval];
   - the packed path ([settle_packed]/[outputs_packed]/[step_packed])
     evaluates [lanes] (= [Sys.int_size]) vectors per pass through the
     word-level semantics in [Eval.Packed], with each node compiled
     once at [create] into a closure over the dense value array.

   Sequential state is stored as bit-planes (one word per state bit,
   lanes in bit positions); the scalar API reads and writes lane 0,
   with [set_state] broadcasting to every lane so the two views stay
   consistent after a scalar initialization. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Macro = Milo_library.Macro

type env = { find_macro : string -> Macro.t }

let env_of_techs techs =
  let find_macro name =
    let rec go = function
      | [] ->
          invalid_arg (Printf.sprintf "Simulator: unknown macro %s" name)
      | t :: rest -> (
          match Milo_library.Technology.find_opt t name with
          | Some m -> m
          | None -> go rest)
    in
    go techs
  in
  { find_macro }

let resolver_of_env env : D.resolver =
 fun kind nm ->
  match kind with
  | T.Macro _ -> (env.find_macro nm).Macro.pins
  | T.Instance _ ->
      invalid_arg
        (Printf.sprintf
           "Simulator: hierarchical instance %s must be flattened first" nm)
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Constant _ ->
      T.pins_of_kind kind

let lanes = Eval.Packed.lanes

(* Per-component structure resolved once at [create].  Connections are
   expressed in dense net slots, not net ids. *)
type node = {
  comp : D.comp;
  node_seq : bool;
  node_macro : Macro.t option;  (* for [T.Macro] kinds *)
  conns : (string * int) list;  (* every pin -> slot *)
  out_conns : (string * int) list;  (* output pins -> slot *)
  state_only_conns : (string * int) list;
      (* output pins whose value is a function of the stored state
         alone (explicit [Eval.state_only_outputs] metadata): exactly
         the set seeded before the schedule runs *)
  wait_nids : int list;
      (* deduplicated driven input nets: the node is ready once all of
         them are solved (undriven inputs read as [false]) *)
}

type t = {
  design : D.t;
  env : env;
  nodes : node array;
  schedule : int array;  (* node indices in dependency order *)
  cyclic : string list;  (* names of unschedulable components *)
  slot_of_net : (int, int) Hashtbl.t;
  net_of_slot : int array;
  n_slots : int;
  state : (int, int array) Hashtbl.t;  (* seq comp id -> state bit-planes *)
  mutable last_vals : bool array option;  (* last scalar settle, by slot *)
  in_ports : (string * int) list;  (* port -> slot *)
  out_ports : (string * int) list;
  packed_vals : int array;  (* packed net values, by slot; scratch *)
  packed_ops : (unit -> unit) array;  (* per node, aligned with [nodes] *)
  packed_seed : (unit -> unit) array;  (* state-only seeding, seq nodes *)
  packed_next : (unit -> int array) array;  (* per seq node: next planes *)
  packed_next_ids : int array;  (* comp ids aligned with [packed_next] *)
}

let is_seq env (c : D.comp) =
  match c.D.kind with
  | T.Register _ | T.Counter _ -> true
  | T.Macro m -> Macro.is_sequential (env.find_macro m)
  | T.Instance i ->
      invalid_arg
        (Printf.sprintf "Simulator: hierarchical instance %s in design" i)
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Constant _ ->
      false

exception Combinational_loop of string list

(* --- Packed node compilation ------------------------------------------- *)

(* Compile one node into a closure over the packed value array.
   Combinational macros — the bulk of a mapped design — get a direct
   slot-array fast path around the cached sum-of-products truth-table
   plans; everything else goes through the generic word-level
   evaluators on a pin association list. *)
let compile_packed_op (vals : int array) planes_of (n : node) =
  let read slot = vals.(slot) in
  let write outs =
    List.iter
      (fun (pin, w) ->
        match List.assoc_opt pin n.out_conns with
        | Some slot -> vals.(slot) <- w
        | None -> ())
      outs
  in
  let pvs () = List.map (fun (pin, slot) -> (pin, read slot)) n.conns in
  match (n.node_macro, n.comp.D.kind) with
  | Some m, _ when not n.node_seq -> (
      match m.Macro.behavior with
      | Macro.Combinational outs ->
          let in_slots =
            Array.of_list
              (List.map
                 (fun pin ->
                   match List.assoc_opt pin n.conns with
                   | Some slot -> slot
                   | None -> -1)
                 m.Macro.inputs)
          in
          let ws = Array.make (Array.length in_slots) 0 in
          let plans =
            List.filter_map
              (fun (pin, tt) ->
                Option.map (fun slot -> (slot, tt))
                  (List.assoc_opt pin n.out_conns))
              outs
          in
          fun () ->
            Array.iteri
              (fun i slot -> ws.(i) <- (if slot >= 0 then vals.(slot) else 0))
              in_slots;
            List.iter
              (fun (slot, tt) -> vals.(slot) <- Eval.Packed.eval_tt tt ws)
              plans
      | _ -> fun () -> write (Eval.Packed.macro_comb_outputs m (pvs ())))
  | Some m, _ ->
      let planes = planes_of n.comp.D.id in
      fun () -> write (Eval.Packed.macro_seq_outputs m ~planes (pvs ()))
  | None, ((T.Register _ | T.Counter _) as kind) ->
      let planes = planes_of n.comp.D.id in
      fun () -> write (Eval.Packed.seq_outputs kind ~planes (pvs ()))
  | None, kind -> fun () -> write (Eval.Packed.comb_outputs kind (pvs ()))

let compile_packed_seed (vals : int array) planes_of (n : node) =
  let pvs () = List.map (fun (pin, slot) -> (pin, vals.(slot))) n.conns in
  let planes = planes_of n.comp.D.id in
  let outs () =
    match (n.node_macro, n.comp.D.kind) with
    | Some m, _ -> Eval.Packed.macro_seq_outputs m ~planes (pvs ())
    | None, ((T.Register _ | T.Counter _) as kind) ->
        Eval.Packed.seq_outputs kind ~planes (pvs ())
    | None, _ -> assert false
  in
  fun () ->
    let outs = outs () in
    List.iter
      (fun (pin, slot) ->
        vals.(slot) <-
          (match List.assoc_opt pin outs with Some w -> w | None -> 0))
      n.state_only_conns

let compile_packed_next (vals : int array) planes_of (n : node) =
  let pvs () = List.map (fun (pin, slot) -> (pin, vals.(slot))) n.conns in
  let planes = planes_of n.comp.D.id in
  match (n.node_macro, n.comp.D.kind) with
  | Some m, _ -> fun () -> Eval.Packed.macro_next_planes m ~planes (pvs ())
  | None, ((T.Register _ | T.Counter _) as kind) ->
      fun () -> Eval.Packed.next_planes kind ~planes (pvs ())
  | None, _ -> assert false

(* --- Construction ------------------------------------------------------ *)

let create env design =
  let resolve = resolver_of_env env in
  (* Nets with a driver: an input port, or some component output pin. *)
  let driven : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, dir, nid) -> if dir = T.Input then Hashtbl.replace driven nid ())
    (D.ports design);
  let with_dirs =
    List.map
      (fun (c : D.comp) ->
        ( c,
          List.map
            (fun (pin, nid) ->
              (pin, nid, D.pin_dir ~resolve design c.D.id pin))
            (D.connections design c.D.id) ))
      (D.comps design)
  in
  List.iter
    (fun (_, ds) ->
      List.iter
        (fun (_, nid, dir) ->
          if dir = T.Output then Hashtbl.replace driven nid ())
        ds)
    with_dirs;
  (* Dense net numbering. *)
  let all_nets = D.nets design in
  let n_slots = List.length all_nets in
  let slot_of_net = Hashtbl.create (max 16 n_slots) in
  let net_of_slot = Array.make (max 1 n_slots) (-1) in
  List.iteri
    (fun i (n : D.net) ->
      Hashtbl.replace slot_of_net n.D.nid i;
      net_of_slot.(i) <- n.D.nid)
    all_nets;
  let slot nid = Hashtbl.find slot_of_net nid in
  let nodes =
    Array.of_list
      (List.map
         (fun ((c : D.comp), ds) ->
           let node_seq = is_seq env c in
           let node_macro =
             match c.D.kind with
             | T.Macro m -> Some (env.find_macro m)
             | _ -> None
           in
           let state_only =
             if not node_seq then []
             else
               match node_macro with
               | Some m -> Macro.state_only_outputs m
               | None -> Eval.state_only_outputs c.D.kind
           in
           {
             comp = c;
             node_seq;
             node_macro;
             conns = List.map (fun (pin, nid, _) -> (pin, slot nid)) ds;
             out_conns =
               List.filter_map
                 (fun (pin, nid, dir) ->
                   if dir = T.Output then Some (pin, slot nid) else None)
                 ds;
             state_only_conns =
               List.filter_map
                 (fun (pin, nid, dir) ->
                   if dir = T.Output && List.mem pin state_only then
                     Some (pin, slot nid)
                   else None)
                 ds;
             wait_nids =
               List.sort_uniq compare
                 (List.filter_map
                    (fun (_, nid, dir) ->
                      if dir = T.Input && Hashtbl.mem driven nid then Some nid
                      else None)
                    ds);
           })
         with_dirs)
  in
  (* Levelized schedule: Kahn's order with input ports and sequential
     state-only outputs as sources. *)
  let resolved : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, dir, nid) ->
      if dir = T.Input then Hashtbl.replace resolved nid ())
    (D.ports design);
  Array.iter
    (fun n ->
      List.iter
        (fun (pin, s) ->
          ignore pin;
          Hashtbl.replace resolved net_of_slot.(s) ())
        n.state_only_conns)
    nodes;
  let waiters : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i n ->
      List.iter
        (fun nid ->
          if not (Hashtbl.mem resolved nid) then
            Hashtbl.replace waiters nid
              (i :: Option.value ~default:[] (Hashtbl.find_opt waiters nid)))
        n.wait_nids)
    nodes;
  let remaining =
    Array.map
      (fun n ->
        List.length
          (List.filter (fun nid -> not (Hashtbl.mem resolved nid)) n.wait_nids))
      nodes
  in
  let queue = Queue.create () in
  Array.iteri (fun i r -> if r = 0 then Queue.add i queue) remaining;
  let schedule = ref [] in
  let scheduled = Array.make (Array.length nodes) false in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    if not scheduled.(i) then begin
      scheduled.(i) <- true;
      schedule := i :: !schedule;
      List.iter
        (fun (_, s) ->
          let nid = net_of_slot.(s) in
          if not (Hashtbl.mem resolved nid) then begin
            Hashtbl.replace resolved nid ();
            List.iter
              (fun j ->
                remaining.(j) <- remaining.(j) - 1;
                if remaining.(j) = 0 then Queue.add j queue)
              (Option.value ~default:[] (Hashtbl.find_opt waiters nid))
          end)
        nodes.(i).out_conns
    end
  done;
  let schedule = Array.of_list (List.rev !schedule) in
  let cyclic =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun i ->
              if scheduled.(i) then None else Some nodes.(i).comp.D.cname)
            (Seq.init (Array.length nodes) Fun.id)))
  in
  let port_slots dir =
    List.filter_map
      (fun (p, d, nid) -> if d = dir then Some (p, slot nid) else None)
      (D.ports design)
  in
  let state = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      if n.node_seq then
        let bits =
          match n.node_macro with
          | Some m -> Macro.state_bits m
          | None -> Eval.state_bits n.comp.D.kind
        in
        Hashtbl.replace state n.comp.D.id (Array.make (max 1 bits) 0))
    nodes;
  let packed_vals = Array.make (max 1 n_slots) 0 in
  let planes_of cid = Hashtbl.find state cid in
  let packed_ops =
    Array.map (fun n -> compile_packed_op packed_vals planes_of n) nodes
  in
  let seq_nodes =
    Array.of_list (List.filter (fun n -> n.node_seq) (Array.to_list nodes))
  in
  let packed_seed =
    Array.map (fun n -> compile_packed_seed packed_vals planes_of n) seq_nodes
  in
  let packed_next =
    Array.map (fun n -> compile_packed_next packed_vals planes_of n) seq_nodes
  in
  let packed_next_ids = Array.map (fun n -> n.comp.D.id) seq_nodes in
  {
    design;
    env;
    nodes;
    schedule;
    cyclic;
    slot_of_net;
    net_of_slot;
    n_slots;
    state;
    last_vals = None;
    in_ports = port_slots T.Input;
    out_ports = port_slots T.Output;
    packed_vals;
    packed_ops;
    packed_seed;
    packed_next;
    packed_next_ids;
  }

(* --- State access ------------------------------------------------------ *)

let reset t = Hashtbl.iter (fun _ planes -> Array.fill planes 0 (Array.length planes) 0) t.state

(* Broadcast [v] to every lane, so a scalar initialization is seen
   identically by scalar (lane 0) and packed runs. *)
let set_state t cid v =
  match Hashtbl.find_opt t.state cid with
  | None -> Hashtbl.replace t.state cid (Eval.Packed.planes_of_state 1 v)
  | Some planes ->
      Array.iteri
        (fun b _ ->
          planes.(b) <-
            (if v land (1 lsl b) <> 0 then Eval.Packed.ones else 0))
        planes

(* --- Scalar engine ----------------------------------------------------- *)

let scalar_state t cid =
  Eval.Packed.state_of_planes (Hashtbl.find t.state cid) 0

let seq_outputs t (n : node) pvs =
  let state = scalar_state t n.comp.D.id in
  match (n.node_macro, n.comp.D.kind) with
  | Some m, _ -> Eval.macro_seq_outputs m ~state pvs
  | None, ((T.Register _ | T.Counter _) as kind) ->
      Eval.seq_outputs kind ~state pvs
  | None, _ -> assert false

let comb_outputs (n : node) pvs =
  match (n.node_macro, n.comp.D.kind) with
  | Some m, _ -> Eval.macro_comb_outputs m pvs
  | None, kind -> Eval.comb_outputs kind pvs

(* One scalar pass over the levelized schedule; returns the per-slot
   value array. *)
let settle_values t (inputs : (string * bool) list) =
  if t.cyclic <> [] then raise (Combinational_loop t.cyclic);
  let vals = Array.make (max 1 t.n_slots) false in
  List.iter
    (fun (p, s) ->
      vals.(s) <- Option.value ~default:false (List.assoc_opt p inputs))
    t.in_ports;
  (* Sequential state is known up front: seed exactly the state-only
     outputs ([Eval.state_only_outputs] metadata).  Input-dependent
     outputs (a bidirectional counter's COUT reads its UP pin) are
     computed in schedule order once their inputs are known. *)
  Array.iter
    (fun n ->
      if n.node_seq && n.state_only_conns <> [] then begin
        let pvs = List.map (fun (pin, s) -> (pin, vals.(s))) n.conns in
        let outs = seq_outputs t n pvs in
        List.iter
          (fun (pin, s) ->
            vals.(s) <-
              (match List.assoc_opt pin outs with
              | Some v -> v
              | None -> false))
          n.state_only_conns
      end)
    t.nodes;
  Array.iter
    (fun i ->
      let n = t.nodes.(i) in
      let pvs = List.map (fun (pin, s) -> (pin, vals.(s))) n.conns in
      let outs = if n.node_seq then seq_outputs t n pvs else comb_outputs n pvs in
      List.iter
        (fun (pin, v) ->
          match List.assoc_opt pin n.out_conns with
          | Some s -> vals.(s) <- v
          | None -> ())
        outs)
    t.schedule;
  t.last_vals <- Some vals;
  vals

let settle t inputs =
  let vals = settle_values t inputs in
  let nets : (int, bool) Hashtbl.t = Hashtbl.create (max 16 t.n_slots) in
  Array.iteri (fun s v -> Hashtbl.replace nets t.net_of_slot.(s) v) vals;
  nets

let outputs t inputs =
  let vals = settle_values t inputs in
  List.map (fun (p, s) -> (p, vals.(s))) t.out_ports

(* One clock edge: settle combinational logic, then update every
   sequential component synchronously (on lane 0; the packed lanes of
   the state planes are untouched by the scalar path). *)
let step t inputs =
  let vals = settle_values t inputs in
  let updates =
    List.filter_map
      (fun n ->
        if n.node_seq then begin
          let state = scalar_state t n.comp.D.id in
          let pvs = List.map (fun (pin, s) -> (pin, vals.(s))) n.conns in
          let next =
            match (n.node_macro, n.comp.D.kind) with
            | Some m, _ -> Eval.macro_next_state m ~state pvs
            | None, ((T.Register _ | T.Counter _) as kind) ->
                Eval.next_state kind ~state pvs
            | None, _ -> assert false
          in
          Some (n.comp.D.id, next)
        end
        else None)
      (Array.to_list t.nodes)
  in
  List.iter
    (fun (cid, v) ->
      let planes = Hashtbl.find t.state cid in
      Array.iteri
        (fun b w ->
          planes.(b) <-
            (w land lnot 1) lor (if v land (1 lsl b) <> 0 then 1 else 0))
        planes)
    updates

let net_value t nid =
  match t.last_vals with
  | None -> None
  | Some vals -> (
      match Hashtbl.find_opt t.slot_of_net nid with
      | Some s -> Some vals.(s)
      | None -> None)

(* --- Packed engine ----------------------------------------------------- *)

let settle_packed t (inputs : (string * int) list) =
  if t.cyclic <> [] then raise (Combinational_loop t.cyclic);
  Array.fill t.packed_vals 0 (Array.length t.packed_vals) 0;
  List.iter
    (fun (p, s) ->
      t.packed_vals.(s) <-
        Option.value ~default:0 (List.assoc_opt p inputs))
    t.in_ports;
  Array.iter (fun seed -> seed ()) t.packed_seed;
  Array.iter (fun i -> t.packed_ops.(i) ()) t.schedule

let outputs_packed t inputs =
  settle_packed t inputs;
  List.map (fun (p, s) -> (p, t.packed_vals.(s))) t.out_ports

let step_packed t inputs =
  settle_packed t inputs;
  let nexts = Array.map (fun f -> f ()) t.packed_next in
  Array.iteri
    (fun i planes ->
      let dst = Hashtbl.find t.state t.packed_next_ids.(i) in
      Array.blit planes 0 dst 0 (min (Array.length planes) (Array.length dst)))
    nexts
