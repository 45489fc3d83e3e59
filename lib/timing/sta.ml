(* Static timing analysis over macro-level designs.

   Arrival model: arrival(out pin) = max over inputs (arrival(in net) +
   arc(in,out)) + drive × load(out net).  Sources are input ports and
   sequential macro CLK→Q launches; endpoints are output ports and
   sequential macro data/control pins.  Sequential components break
   combinational paths, as in the paper's timing analyzer (Figure 8).

   [analyze] evaluates every combinational macro exactly once, in
   levelized (Kahn) topological order — O(comps + arcs) instead of the
   restart-until-quiescent worklist it replaced.  [update] re-levelizes
   only the forward cone of a set of touched nets and components and
   re-evaluates only its members whose inputs moved, recording every
   overwritten arrival in a {!token} so [rollback] can restore the
   previous state exactly; tokens must be rolled back in LIFO order. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module M = Milo_library.Macro

type env = string -> M.t

type endpoint = Ep_port of string | Ep_seq_pin of int * string

type t = {
  design : D.t;
  env : env;
  resolve : D.resolver;  (* [env]'s pin interfaces, for [D.driver] *)
  input_arrivals : (string * float) list;
  net_arrival : (int, float) Hashtbl.t;
  net_from : (int, int * string * string) Hashtbl.t;
      (* net -> (comp, in_pin, out_pin) that determined its arrival *)
  mutable ep_arrival : (endpoint, float) Hashtbl.t;
  mutable worst_cache : float option;
}

type token = {
  tk_net : (int, float option * (int * string * string) option) Hashtbl.t;
      (* first-touch previous (arrival, from) per net *)
  tk_ep : (endpoint, float option) Hashtbl.t;
  mutable tk_ep_order : (endpoint, float) Hashtbl.t option;
      (* the endpoint table before the update's first insertion or
         removal, the edits that can change its iteration order *)
}

let macro_of env (c : D.comp) =
  match c.D.kind with
  | T.Macro m -> Some (env m)
  | T.Constant _ -> None
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Instance _ ->
      invalid_arg
        (Printf.sprintf
           "Sta: component %s (%s) is not technology-mapped; compile first"
           c.D.cname (T.kind_name c.D.kind))

let net_load t nid =
  let n = D.net t.design nid in
  let pin_load (cid, pin) =
    let c = D.comp t.design cid in
    match macro_of t.env c with
    | None -> 0.0
    | Some m ->
        if List.mem pin m.M.inputs then m.M.load else 0.0
  in
  let port_load = match n.D.nport with Some (_, T.Output) -> 1.0 | _ -> 0.0 in
  List.fold_left (fun acc p -> acc +. pin_load p) port_load n.D.npins

(* --- State mutators (token-recording) --------------------------------- *)

let save_net tok t nid =
  match tok with
  | None -> ()
  | Some tk ->
      if not (Hashtbl.mem tk.tk_net nid) then
        Hashtbl.replace tk.tk_net nid
          (Hashtbl.find_opt t.net_arrival nid, Hashtbl.find_opt t.net_from nid)

let set ?tok t nid v from =
  save_net tok t nid;
  Hashtbl.replace t.net_arrival nid v;
  match from with
  | Some f -> Hashtbl.replace t.net_from nid f
  | None -> Hashtbl.remove t.net_from nid

let clear_net ?tok t nid =
  save_net tok t nid;
  Hashtbl.remove t.net_arrival nid;
  Hashtbl.remove t.net_from nid

(* Endpoints that tie on arrival are listed in the endpoint table's
   iteration order, so a rollback must restore that order too.
   Replacing a present key keeps it, and so does inserting a key and
   removing it again, unless the insertion grew the table; removing a
   present key and putting it back moves it.  So the first insertion or
   removal under a token keeps a copy of the table as it was. *)
let save_ep tok t ep ~present =
  match tok with
  | None -> ()
  | Some tk ->
      if not (Hashtbl.mem tk.tk_ep ep) then
        Hashtbl.replace tk.tk_ep ep (Hashtbl.find_opt t.ep_arrival ep);
      if tk.tk_ep_order = None && Hashtbl.mem t.ep_arrival ep <> present then
        tk.tk_ep_order <- Some (Hashtbl.copy t.ep_arrival)

let set_ep ?tok t ep v =
  save_ep tok t ep ~present:true;
  Hashtbl.replace t.ep_arrival ep v;
  t.worst_cache <- None

let remove_ep ?tok t ep =
  save_ep tok t ep ~present:false;
  Hashtbl.remove t.ep_arrival ep;
  t.worst_cache <- None

let arr_default t nid =
  Option.value ~default:0.0 (Hashtbl.find_opt t.net_arrival nid)

(* --- Evaluation ------------------------------------------------------- *)

let resolver env : D.resolver =
 fun kind nm ->
  match kind with
  | T.Macro _ -> (env nm).M.pins
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Register _ | T.Counter _ | T.Constant _ | T.Instance _
    ->
      T.pins_of_kind kind

(* Combinational macro driving [nid] (if any), or the seed class of the
   net's driver.  Undriven nets arrive at time 0 (absent from the
   table), as do unconnected pins. *)
type drv =
  | Drv_comb of int
  | Drv_seq of M.t * string
  | Drv_const
  | Drv_none

let driver_of t nid =
  match D.driver ~resolve:t.resolve t.design nid with
  | D.Src_comp (cid, pin) -> (
      match macro_of t.env (D.comp t.design cid) with
      | None -> Drv_const
      | Some m -> if M.is_sequential m then Drv_seq (m, pin) else Drv_comb cid)
  | D.Src_port _ | D.Src_none -> Drv_none

let seq_launch t m pin nid =
  let d =
    match M.arc_delay_opt m "CLK" pin with
    | Some d -> d
    | None -> M.worst_delay m
  in
  d +. (m.M.drive *. net_load t nid)

(* Does [nid] arrive at [v] from [from] already, to the bit? *)
let arrives t nid v from =
  (match Hashtbl.find_opt t.net_arrival nid with
  | Some old -> Int64.equal (Int64.bits_of_float old) (Int64.bits_of_float v)
  | None -> false)
  && Hashtbl.find_opt t.net_from nid = from

(* Evaluate one combinational macro: worst input arrival + arc delay,
   plus drive × load, per output net.  Each output net whose (arrival,
   from) this changes is added to [moved]. *)
let eval_comp ?tok ?moved t (c : D.comp) (m : M.t) =
  let in_arrs =
    List.map
      (fun pin ->
        match D.connection t.design c.D.id pin with
        | Some nid -> (pin, arr_default t nid)
        | None -> (pin, 0.0))
      m.M.inputs
  in
  List.iter
    (fun out ->
      match D.connection t.design c.D.id out with
      | None -> ()
      | Some onid ->
          let best =
            List.fold_left
              (fun acc (pin, a) ->
                match M.arc_delay_opt m pin out with
                | Some d -> (
                    let v = a +. d in
                    match acc with
                    | Some (bv, _) when bv >= v -> acc
                    | _ -> Some (v, pin))
                | None -> acc)
              None in_arrs
          in
          let v, from =
            match best with
            | Some (v, pin) -> (v, Some (c.D.id, pin, out))
            | None -> (0.0, None)
          in
          let v = v +. (m.M.drive *. net_load t onid) in
          (match moved with
          | Some mv when not (arrives t onid v from) -> Hashtbl.replace mv onid ()
          | Some _ | None -> ());
          set ?tok t onid v from)
    m.M.outputs

(* Combinational macros reading [nid] through an input pin — the
   forward edges of the propagation cone. *)
let comb_readers t nid =
  match D.net_opt t.design nid with
  | None -> []
  | Some n ->
      List.filter_map
        (fun (cid, pin) ->
          match D.comp_opt t.design cid with
          | None -> None
          | Some c -> (
              match macro_of t.env c with
              | Some m
                when (not (M.is_sequential m)) && List.mem pin m.M.inputs ->
                  Some cid
              | Some _ | None -> None))
        n.D.npins

(* Kahn levelization over [members] (comp id -> ()): visit each member
   exactly once in dependency order; any leftover means a combinational
   loop.  Every member is evaluated, or with [seeds] only the seeds and
   the members reading a net whose (arrival, from) an evaluation
   earlier in this call changed: any other member would recompute its
   outputs from unchanged inputs, to the same bits. *)
let propagate ?tok ?seeds t members =
  let indeg = Hashtbl.create (Hashtbl.length members * 2) in
  let consumers = Hashtbl.create (Hashtbl.length members * 2) in
  Hashtbl.iter
    (fun cid () ->
      let c = D.comp t.design cid in
      let m = Option.get (macro_of t.env c) in
      let deg = ref 0 in
      List.iter
        (fun pin ->
          match D.connection t.design cid pin with
          | None -> ()
          | Some nid -> (
              match driver_of t nid with
              | Drv_comb did when Hashtbl.mem members did ->
                  incr deg;
                  Hashtbl.replace consumers nid
                    (cid
                    :: Option.value ~default:[]
                         (Hashtbl.find_opt consumers nid))
              | Drv_comb _ | Drv_seq _ | Drv_const | Drv_none -> ()))
        m.M.inputs;
      Hashtbl.replace indeg cid !deg)
    members;
  let queue = Queue.create () in
  Hashtbl.iter (fun cid () -> if Hashtbl.find indeg cid = 0 then Queue.add cid queue) members;
  let moved = Option.map (fun _ -> Hashtbl.create 16) seeds in
  let stale cid m =
    match (seeds, moved) with
    | Some sd, Some mv ->
        Hashtbl.mem sd cid
        || List.exists
             (fun pin ->
               match D.connection t.design cid pin with
               | Some nid -> Hashtbl.mem mv nid
               | None -> false)
             m.M.inputs
    | _ -> true
  in
  let visited = ref 0 in
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    incr visited;
    let c = D.comp t.design cid in
    let m = Option.get (macro_of t.env c) in
    if stale cid m then eval_comp ?tok ?moved t c m;
    List.iter
      (fun out ->
        match D.connection t.design cid out with
        | None -> ()
        | Some onid ->
            List.iter
              (fun cid' ->
                let dg = Hashtbl.find indeg cid' - 1 in
                Hashtbl.replace indeg cid' dg;
                if dg = 0 then Queue.add cid' queue)
              (Option.value ~default:[] (Hashtbl.find_opt consumers onid)))
      m.M.outputs
  done;
  if !visited < Hashtbl.length members then
    let stuck =
      Hashtbl.fold
        (fun cid () acc ->
          if Hashtbl.find indeg cid > 0 then
            (D.comp t.design cid).D.cname :: acc
          else acc)
        members []
    in
    invalid_arg
      (Printf.sprintf "Sta.analyze: combinational loop through %s"
         (String.concat ", " (List.sort compare stuck)))

(* Endpoint refresh for one net: the output port bound to it and the
   sequential data/control pins reading it. *)
let refresh_net_endpoints ?tok t nid =
  match D.net_opt t.design nid with
  | None -> ()
  | Some n ->
      (match n.D.nport with
      | Some (p, T.Output) -> set_ep ?tok t (Ep_port p) (arr_default t nid)
      | Some _ | None -> ());
      List.iter
        (fun (cid, pin) ->
          match D.comp_opt t.design cid with
          | None -> ()
          | Some c -> (
              match macro_of t.env c with
              | Some m
                when M.is_sequential m && pin <> "CLK"
                     && List.mem pin m.M.inputs ->
                  set_ep ?tok t (Ep_seq_pin (cid, pin)) (arr_default t nid)
              | Some _ | None -> ()))
        n.D.npins

(* Input arrival offsets, e.g. late-arriving primary inputs. *)
let analyze ?(input_arrivals = []) env design =
  let t =
    {
      design;
      env;
      resolve = resolver env;
      input_arrivals;
      net_arrival = Hashtbl.create 64;
      net_from = Hashtbl.create 64;
      ep_arrival = Hashtbl.create 32;
      worst_cache = None;
    }
  in
  (* Seed: input ports and constants at their arrival, sequential
     launches at clk->q + drive*load. *)
  List.iter
    (fun (p, dir, nid) ->
      if dir = T.Input then
        set t nid (Option.value ~default:0.0 (List.assoc_opt p input_arrivals)) None)
    (D.ports design);
  let members = Hashtbl.create 64 in
  List.iter
    (fun (c : D.comp) ->
      match macro_of env c with
      | None ->
          (* constants arrive at time 0 *)
          List.iter
            (fun (pin, nid) -> if pin = "Y" then set t nid 0.0 None)
            (D.connections design c.D.id)
      | Some m ->
          if M.is_sequential m then
            List.iter
              (fun (pin, nid) ->
                if List.mem pin m.M.outputs then
                  set t nid (seq_launch t m pin nid) None)
              (D.connections design c.D.id)
          else Hashtbl.replace members c.D.id ())
    (D.comps design);
  propagate t members;
  (* Endpoints. *)
  List.iter
    (fun (p, dir, nid) ->
      if dir = T.Output then set_ep t (Ep_port p) (arr_default t nid))
    (D.ports design);
  List.iter
    (fun (c : D.comp) ->
      match macro_of env c with
      | Some m when M.is_sequential m ->
          List.iter
            (fun pin ->
              if pin <> "CLK" then
                match D.connection design c.D.id pin with
                | Some nid -> set_ep t (Ep_seq_pin (c.D.id, pin)) (arr_default t nid)
                | None -> ())
            m.M.inputs
      | Some _ | None -> ())
    (D.comps design);
  t

(* An independent copy over [design], a [D.copy] of [t]'s design (ids
   are preserved, so every table key still names the same net or
   endpoint).  [Hashtbl.copy] keeps each table's iteration order, so
   endpoint ties break on the copy as they do on [t]. *)
let copy t ~design ~env =
  {
    design;
    env;
    resolve = resolver env;
    input_arrivals = t.input_arrivals;
    net_arrival = Hashtbl.copy t.net_arrival;
    net_from = Hashtbl.copy t.net_from;
    ep_arrival = Hashtbl.copy t.ep_arrival;
    worst_cache = t.worst_cache;
  }

let worst_delay t =
  match t.worst_cache with
  | Some w -> w
  | None ->
      let w = Hashtbl.fold (fun _ v acc -> Float.max acc v) t.ep_arrival 0.0 in
      t.worst_cache <- Some w;
      w

let endpoints t =
  Hashtbl.fold (fun ep v acc -> (ep, v) :: acc) t.ep_arrival []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let net_arrival t nid = Hashtbl.find_opt t.net_arrival nid

(* --- Incremental update ----------------------------------------------- *)

let rollback t tok =
  Option.iter (fun order -> t.ep_arrival <- order) tok.tk_ep_order;
  Hashtbl.iter
    (fun nid (oa, ofrom) ->
      (match oa with
      | Some v -> Hashtbl.replace t.net_arrival nid v
      | None -> Hashtbl.remove t.net_arrival nid);
      match ofrom with
      | Some f -> Hashtbl.replace t.net_from nid f
      | None -> Hashtbl.remove t.net_from nid)
    tok.tk_net;
  Hashtbl.iter
    (fun ep oa ->
      match oa with
      | Some v -> Hashtbl.replace t.ep_arrival ep v
      | None -> Hashtbl.remove t.ep_arrival ep)
    tok.tk_ep;
  t.worst_cache <- None

let update t ~touched_nets ~touched_comps =
  let design = t.design in
  let tok =
    { tk_net = Hashtbl.create 32; tk_ep = Hashtbl.create 16; tk_ep_order = None }
  in
  try
    (* Dirty nets: the touched nets plus everything still connected to a
       touched component. *)
    let dirty = Hashtbl.create 32 in
    let add_dirty nid = Hashtbl.replace dirty nid () in
    List.iter add_dirty touched_nets;
    List.iter
      (fun cid ->
        match D.comp_opt design cid with
        | Some c -> Hashtbl.iter (fun _ nid -> add_dirty nid) c.D.conns
        | None -> ())
      touched_comps;
    (* Re-seed every dirty net from its driver class; collect the
       combinational comps that must re-evaluate (dirty drivers, dirty
       readers, and the touched comps themselves). *)
    let seeds = Hashtbl.create 32 in
    let add_seed cid = Hashtbl.replace seeds cid () in
    List.iter
      (fun cid ->
        match D.comp_opt design cid with
        | None -> ()
        | Some c -> (
            match macro_of t.env c with
            | Some m when not (M.is_sequential m) -> add_seed cid
            | Some _ | None -> ()))
      touched_comps;
    Hashtbl.iter
      (fun nid () ->
        match D.net_opt design nid with
        | None -> clear_net ~tok t nid
        | Some n ->
            (match driver_of t nid with
            | Drv_comb cid -> add_seed cid
            | Drv_const -> set ~tok t nid 0.0 None
            | Drv_seq (m, pin) -> set ~tok t nid (seq_launch t m pin nid) None
            | Drv_none -> (
                match n.D.nport with
                | Some (p, T.Input) ->
                    set ~tok t nid
                      (Option.value ~default:0.0
                         (List.assoc_opt p t.input_arrivals))
                      None
                | Some _ | None -> clear_net ~tok t nid));
            List.iter add_seed (comb_readers t nid))
      dirty;
    (* Forward closure of the seeds: the cone that re-propagates. *)
    let members = Hashtbl.create 64 in
    let stack = ref [] in
    Hashtbl.iter (fun cid () -> stack := cid :: !stack) seeds;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | cid :: rest ->
          stack := rest;
          if not (Hashtbl.mem members cid) then begin
            Hashtbl.replace members cid ();
            let c = D.comp design cid in
            let m = Option.get (macro_of t.env c) in
            List.iter
              (fun out ->
                match D.connection design cid out with
                | None -> ()
                | Some onid ->
                    List.iter
                      (fun cid' ->
                        if not (Hashtbl.mem members cid') then
                          stack := cid' :: !stack)
                      (comb_readers t onid))
              m.M.outputs
          end
    done;
    if Milo_trace.Trace.enabled () then begin
      Milo_trace.Trace.sample "sta.update.dirty_nets"
        (float_of_int (Hashtbl.length dirty));
      Milo_trace.Trace.sample "sta.update.cone"
        (float_of_int (Hashtbl.length members))
    end;
    propagate ~tok ~seeds t members;
    (* Endpoints: every net whose arrival was rewritten, every dirty
       net, and the endpoint pins of touched comps (which may have been
       added, removed or re-kinded). *)
    Hashtbl.iter (fun nid _ -> refresh_net_endpoints ~tok t nid) tok.tk_net;
    Hashtbl.iter
      (fun nid () ->
        if not (Hashtbl.mem tok.tk_net nid) then refresh_net_endpoints ~tok t nid)
      dirty;
    List.iter
      (fun cid ->
        let existing =
          Hashtbl.fold
            (fun ep _ acc ->
              match ep with
              | Ep_seq_pin (c, _) when c = cid -> ep :: acc
              | Ep_seq_pin _ | Ep_port _ -> acc)
            t.ep_arrival []
        in
        List.iter (fun ep -> remove_ep ~tok t ep) existing;
        match D.comp_opt design cid with
        | None -> ()
        | Some c -> (
            match macro_of t.env c with
            | Some m when M.is_sequential m ->
                List.iter
                  (fun pin ->
                    if pin <> "CLK" then
                      match D.connection design cid pin with
                      | Some nid ->
                          set_ep ~tok t (Ep_seq_pin (cid, pin))
                            (arr_default t nid)
                      | None -> ())
                  m.M.inputs
            | Some _ | None -> ()))
      touched_comps;
    tok
  with e ->
    (* Leave the analysis state exactly as before the failed update. *)
    rollback t tok;
    raise e

(* --- Paths ------------------------------------------------------------ *)

type hop = { comp : int; in_pin : string; out_pin : string }

type path = {
  path_endpoint : endpoint;
  path_delay : float;
  hops : hop list;  (* from input side to endpoint *)
}

let endpoint_net t = function
  | Ep_port p -> Some (D.port_net t.design p)
  | Ep_seq_pin (cid, pin) -> D.connection t.design cid pin

(* Trace back the worst path into an endpoint. *)
let path_to t ep delay =
  let rec back nid acc =
    match Hashtbl.find_opt t.net_from nid with
    | None -> acc
    | Some (cid, in_pin, out_pin) -> (
        let hop = { comp = cid; in_pin; out_pin } in
        match D.connection t.design cid in_pin with
        | Some prev -> back prev (hop :: acc)
        | None -> hop :: acc)
  in
  let hops = match endpoint_net t ep with Some nid -> back nid [] | None -> [] in
  { path_endpoint = ep; path_delay = delay; hops }

let critical_path t =
  match endpoints t with
  | [] -> None
  | (ep, d) :: _ -> Some (path_to t ep d)

let critical_paths ?(count = 4) t =
  endpoints t
  |> List.filteri (fun i _ -> i < count)
  |> List.map (fun (ep, d) -> path_to t ep d)

(* Slack of each endpoint against a required time. *)
let slacks ~required t =
  List.map (fun (ep, d) -> (ep, required -. d)) (endpoints t)

let endpoint_name t = function
  | Ep_port p -> p
  | Ep_seq_pin (cid, pin) ->
      Printf.sprintf "%s.%s" (D.comp t.design cid).D.cname pin
