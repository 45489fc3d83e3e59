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
   - the packed path ([settle_packed]/[outputs_packed]/[output_words]/
     [cycle_packed]) evaluates [lanes] (= [Sys.int_size]) vectors per
     pass through the word-level semantics in [Eval.Packed]: every node
     is compiled once at [create], its pins resolved to slots of the
     dense value array, so a pass is slot reads and word operations.

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
         alone (explicit [Eval.state_only_outputs] metadata): the
         schedule's sources, known before any input is *)
  wait_slots : int list;
      (* deduplicated driven input net slots, ascending: the node is
         ready once all of them are solved (undriven inputs read as
         [false]) *)
}

type t = {
  design : D.t;
  env : env;
  nodes : node array;
  schedule : int array;  (* node indices in dependency order *)
  cyclic : string list;  (* names of unschedulable components *)
  slot_of_net : int array;  (* net id -> slot, or -1 *)
  net_of_slot : int array;
  n_slots : int;
  state : (int, int array) Hashtbl.t;  (* seq comp id -> state bit-planes *)
  mutable last_vals : bool array option;  (* last scalar settle, by slot *)
  in_ports : (string * int) list;  (* port -> slot *)
  out_names : string array;  (* output ports, in the design's order *)
  out_slots : int array;  (* their slots, aligned with [out_names] *)
  packed_vals : int array;  (* [Eval.Packed.value_array], by slot; scratch *)
  packed_ops : (unit -> unit) array;  (* per node, aligned with [nodes] *)
  packed_seed : (unit -> unit) array;  (* the seq nodes' [packed_ops] *)
  packed_clock : (unit -> unit) array;  (* next state in place, seq nodes *)
}

(* A component's library macro (for [T.Macro] kinds) and whether it
   holds state. *)
let classify env (c : D.comp) =
  match c.D.kind with
  | T.Register _ | T.Counter _ -> (None, true)
  | T.Macro m ->
      let mac = env.find_macro m in
      (Some mac, Macro.is_sequential mac)
  | T.Instance i ->
      invalid_arg
        (Printf.sprintf "Simulator: hierarchical instance %s in design" i)
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Constant _ ->
      (None, false)

exception Combinational_loop of string list

(* --- Construction ------------------------------------------------------ *)

let create env design =
  let resolve = resolver_of_env env in
  (* Dense net numbering: slot [s] is the [s]-th net in id order. *)
  let all_nets = D.nets design in
  let n_slots = List.length all_nets in
  let net_of_slot = Array.make (max 1 n_slots) (-1) in
  List.iteri (fun i (n : D.net) -> net_of_slot.(i) <- n.D.nid) all_nets;
  let slot_of_net =
    Array.make (if n_slots = 0 then 0 else net_of_slot.(n_slots - 1) + 1) (-1)
  in
  for s = 0 to n_slots - 1 do
    slot_of_net.(net_of_slot.(s)) <- s
  done;
  let slot nid =
    if nid < 0 || nid >= Array.length slot_of_net || slot_of_net.(nid) < 0 then
      raise Not_found
    else slot_of_net.(nid)
  in
  let port_slots dir =
    List.filter_map
      (fun (p, d, nid) -> if d = dir then Some (p, slot nid) else None)
      (D.ports design)
  in
  let in_ports = port_slots T.Input and out_ports = port_slots T.Output in
  let with_dirs =
    List.map
      (fun (c : D.comp) ->
        ( c,
          List.map
            (fun (pin, nid) ->
              (pin, slot nid, D.pin_dir ~resolve design c.D.id pin))
            (D.connections design c.D.id) ))
      (D.comps design)
  in
  (* Slots with a driver: an input port, or some component output pin. *)
  let driven = Array.make (max 1 n_slots) false in
  List.iter (fun (_, s) -> driven.(s) <- true) in_ports;
  List.iter
    (fun (_, ds) ->
      List.iter
        (fun (_, s, dir) -> if dir = T.Output then driven.(s) <- true)
        ds)
    with_dirs;
  let nodes =
    Array.of_list
      (List.map
         (fun ((c : D.comp), ds) ->
           let node_macro, node_seq = classify env c in
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
             conns = List.map (fun (pin, s, _) -> (pin, s)) ds;
             out_conns =
               List.filter_map
                 (fun (pin, s, dir) ->
                   if dir = T.Output then Some (pin, s) else None)
                 ds;
             state_only_conns =
               List.filter_map
                 (fun (pin, s, dir) ->
                   if dir = T.Output && List.mem pin state_only then
                     Some (pin, s)
                   else None)
                 ds;
             wait_slots =
               List.sort_uniq Int.compare
                 (List.filter_map
                    (fun (_, s, dir) ->
                      if dir = T.Input && driven.(s) then Some s else None)
                    ds);
           })
         with_dirs)
  in
  (* Levelized schedule: Kahn's order with input ports and sequential
     state-only outputs as sources. *)
  let resolved = Array.make (max 1 n_slots) false in
  List.iter (fun (_, s) -> resolved.(s) <- true) in_ports;
  Array.iter
    (fun n -> List.iter (fun (_, s) -> resolved.(s) <- true) n.state_only_conns)
    nodes;
  let waiters = Array.make (max 1 n_slots) [] in
  Array.iteri
    (fun i n ->
      List.iter
        (fun s -> if not resolved.(s) then waiters.(s) <- i :: waiters.(s))
        n.wait_slots)
    nodes;
  let remaining =
    Array.map
      (fun n ->
        List.fold_left
          (fun k s -> if resolved.(s) then k else k + 1)
          0 n.wait_slots)
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
          if not resolved.(s) then begin
            resolved.(s) <- true;
            List.iter
              (fun j ->
                remaining.(j) <- remaining.(j) - 1;
                if remaining.(j) = 0 then Queue.add j queue)
              waiters.(s)
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
  (* Packed code: every node compiled once over the value array, its
     pins resolved to slots through the node's connection table. *)
  let packed_vals = Eval.Packed.value_array n_slots in
  let code =
    Array.map
      (fun n ->
        let slot pin =
          match Hashtbl.find_opt n.comp.D.conns pin with
          | Some nid -> slot nid
          | None -> -1
        in
        let planes =
          if n.node_seq then Hashtbl.find state n.comp.D.id else [||]
        in
        match n.node_macro with
        | Some m -> Eval.Packed.compile_macro packed_vals ~slot ~planes m
        | None -> Eval.Packed.compile packed_vals ~slot ~planes n.comp.D.kind)
      nodes
  in
  let seq_code =
    Array.of_list
      (List.filteri (fun i _ -> nodes.(i).node_seq) (Array.to_list code))
  in
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
    in_ports;
    out_names = Array.of_list (List.map fst out_ports);
    out_slots = Array.of_list (List.map snd out_ports);
    packed_vals;
    packed_ops = Array.map (fun (k : Eval.Packed.code) -> k.outputs) code;
    packed_seed = Array.map (fun (k : Eval.Packed.code) -> k.outputs) seq_code;
    packed_clock = Array.map (fun (k : Eval.Packed.code) -> k.clock) seq_code;
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
  Array.to_list (Array.map2 (fun p s -> (p, vals.(s))) t.out_names t.out_slots)

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
  | Some vals ->
      if nid < 0 || nid >= Array.length t.slot_of_net then None
      else
        let s = t.slot_of_net.(nid) in
        if s < 0 then None else Some vals.(s)

(* --- Packed engine ----------------------------------------------------- *)

(* Each input port's word is its first binding in [inputs], absent
   ports reading 0.  Callers usually list the ports in the design's
   order, so each port is looked for first where the previous one was
   found: every element before that point binds an earlier port, and
   port names are unique. *)
let load_inputs t inputs =
  let rec go ports rest =
    match (ports, rest) with
    | [], _ -> ()
    | (p, s) :: ports, (q, w) :: rest' when String.equal p q ->
        t.packed_vals.(s) <- w;
        go ports rest'
    | (p, s) :: ports, _ ->
        t.packed_vals.(s) <-
          Option.value ~default:0 (List.assoc_opt p inputs);
        go ports rest
  in
  go t.in_ports inputs

(* Sequential nodes are seeded by running their whole op ahead of the
   schedule.  Their state-only outputs read the planes alone, so they
   are final; any other output they write (a bidirectional counter's
   COUT reads its UP pin) is not a source, so every reader of its slot
   is scheduled after the node itself, whose op rewrites it. *)
let settle_packed t (inputs : (string * int) list) =
  if t.cyclic <> [] then raise (Combinational_loop t.cyclic);
  Array.fill t.packed_vals 0 (Array.length t.packed_vals) 0;
  load_inputs t inputs;
  Array.iter (fun seed -> seed ()) t.packed_seed;
  Array.iter (fun i -> t.packed_ops.(i) ()) t.schedule

let output_ports t = t.out_names

let output_words t inputs =
  settle_packed t inputs;
  Array.map (fun s -> t.packed_vals.(s)) t.out_slots

let outputs_packed t inputs =
  Array.to_list (Array.map2 (fun p w -> (p, w)) t.out_names (output_words t inputs))

(* Every sequential node reads only its own planes and the settled
   values, so updating each in place is a synchronous edge. *)
let cycle_packed t inputs =
  let words = output_words t inputs in
  Array.iter (fun clock -> clock ()) t.packed_clock;
  words
