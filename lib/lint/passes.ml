(* The lint/DRC analysis passes over the netlist IR.

   Each pass is a pure query over [Design.t] producing diagnostics; none
   mutates the design.  Passes degrade gracefully on partial
   information: a component whose Macro/Instance reference cannot be
   resolved is reported once by [unknown-ref] and skipped by the
   pin-level passes instead of raising. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

type ctx = {
  design : D.t;
  resolve : D.resolver option;
  is_sequential : T.kind -> bool;
      (* classifies Macro/Instance kinds too; [Types.is_sequential_kind]
         only knows the micro components *)
}

type pass = { pass_name : string; pass_doc : string; pass_run : ctx -> Diagnostic.t list }

(* --- shared helpers --------------------------------------------------- *)

let ckind (c : D.comp) = T.kind_name c.D.kind
let comp_loc c = Diagnostic.Comp { cname = c.D.cname; ckind = ckind c }
let pin_loc c pin = Diagnostic.Pin { cname = c.D.cname; ckind = ckind c; pin }
let net_loc (n : D.net) = Diagnostic.Net { nname = n.D.nname }

(* The resolved pin interface of a component; [None] when the
   Macro/Instance reference is unknown. *)
let pins_of ctx (c : D.comp) =
  match c.D.kind with
  | T.Macro name | T.Instance name -> (
      match ctx.resolve with
      | None -> None
      | Some f -> (
          try Some (f c.D.kind name)
          with Invalid_argument _ | Not_found -> None))
  | k -> Some (T.pins_of_kind k)

let resolved ctx c = pins_of ctx c <> None

let pin_dir ctx c pin =
  match pins_of ctx c with
  | None -> None
  | Some pins -> List.assoc_opt pin pins

(* Pins of a net grouped by direction, skipping unresolved components
   (those are reported by [unknown-ref], and guessing their pin
   directions would only produce noise). *)
let net_endpoints ctx (n : D.net) =
  List.fold_left
    (fun (drivers, sinks, unresolved) (cid, pin) ->
      match D.comp_opt ctx.design cid with
      | None -> (drivers, sinks, unresolved)
      | Some c -> (
          match pin_dir ctx c pin with
          | Some T.Output -> ((c, pin) :: drivers, sinks, unresolved)
          | Some T.Input -> (drivers, (c, pin) :: sinks, unresolved)
          | None -> (drivers, sinks, true)))
    ([], [], false) n.D.npins

let collect f =
  let acc = ref [] in
  f (fun d -> acc := d :: !acc);
  List.rev !acc

(* --- structural graph consistency ------------------------------------ *)

(* [D.driver] and [D.fanout] answer from memos; recompute both from
   lint's own endpoint walk.  [None] when the walk cannot give the whole
   answer (an endpoint did not resolve). *)
let walked_driver_and_fanout ctx (n : D.net) =
  let drivers, sinks, unresolved = net_endpoints ctx n in
  if unresolved then None
  else
    let driver =
      (* [net_endpoints] lists drivers last pin first *)
      match List.rev drivers with
      | (c, pin) :: _ -> D.Src_comp (c.D.id, pin)
      | [] -> (
          match n.D.nport with
          | Some (p, T.Input) -> D.Src_port p
          | Some (_, T.Output) | None -> D.Src_none)
    in
    let port_load = match n.D.nport with Some (_, T.Output) -> 1 | _ -> 0 in
    Some (driver, List.length sinks + port_load)

let source_to_string d = function
  | D.Src_comp (cid, pin) -> (
      match D.comp_opt d cid with
      | Some c -> c.D.cname ^ "." ^ pin
      | None -> Printf.sprintf "comp %d.%s" cid pin)
  | D.Src_port p -> "port " ^ p
  | D.Src_none -> "none"

(* Connections reference live nets, the comp-pin / net-pin indexes
   agree in both directions (the invariants the undo log relies on),
   and the netlist's driver index agrees with the pins.  The index is
   compared only on nets with no other finding here, every endpoint
   resolved and a resolver given, where the walk is the whole truth. *)
let run_net_consistency ctx =
  let d = ctx.design in
  let flagged = Hashtbl.create 8 in
  collect (fun add ->
      let add_net (n : D.net) diag =
        Hashtbl.replace flagged n.D.nid ();
        add diag
      in
      List.iter
        (fun (c : D.comp) ->
          List.iter
            (fun (pin, nid) ->
              match D.net_opt d nid with
              | None ->
                  add
                    (Diagnostic.make ~rule:"net-consistency"
                       ~severity:Diagnostic.Error ~loc:(pin_loc c pin)
                       "connected to dangling net %d" nid)
              | Some n ->
                  if not (List.mem (c.D.id, pin) n.D.npins) then
                    add_net n
                      (Diagnostic.make ~rule:"net-consistency"
                         ~severity:Diagnostic.Error ~loc:(net_loc n)
                         "missing back-reference to %s.%s" c.D.cname pin))
            (D.connections d c.D.id))
        (D.comps d);
      List.iter
        (fun (n : D.net) ->
          List.iter
            (fun (cid, pin) ->
              match D.comp_opt d cid with
              | None ->
                  add_net n
                    (Diagnostic.make ~rule:"net-consistency"
                       ~severity:Diagnostic.Error ~loc:(net_loc n)
                       "pin of removed comp %d.%s" cid pin)
              | Some c ->
                  if D.connection d cid pin <> Some n.D.nid then
                    add_net n
                      (Diagnostic.make ~rule:"net-consistency"
                         ~severity:Diagnostic.Error ~loc:(net_loc n)
                         "stale pin %s.%s" c.D.cname pin))
            n.D.npins)
        (D.nets d);
      match ctx.resolve with
      | None -> ()
      | Some resolve ->
          List.iter
            (fun (n : D.net) ->
              if not (Hashtbl.mem flagged n.D.nid) then
                match walked_driver_and_fanout ctx n with
                | None -> ()
                | Some (driver, fanout) ->
                    let indexed =
                      try
                        Ok
                          ( D.driver ~resolve d n.D.nid,
                            D.fanout ~resolve d n.D.nid )
                      with D.Error e -> Error (D.error_to_string e)
                    in
                    if indexed <> Ok (driver, fanout) then
                      add
                        (Diagnostic.make ~rule:"net-consistency"
                           ~severity:Diagnostic.Error ~loc:(net_loc n)
                           "stale driver index: %s; the pins give driver \
                            %s, fanout %d"
                           (match indexed with
                           | Ok (s, f) ->
                               Printf.sprintf "driver %s, fanout %d"
                                 (source_to_string d s) f
                           | Error e -> e)
                           (source_to_string d driver) fanout))
            (D.nets d))

(* Port list and net port-bindings agree. *)
let run_port_consistency ctx =
  let d = ctx.design in
  collect (fun add ->
      List.iter
        (fun (p, dir, nid) ->
          match D.net_opt d nid with
          | None ->
              add
                (Diagnostic.make ~rule:"port-consistency"
                   ~severity:Diagnostic.Error ~loc:(Diagnostic.Port p)
                   "bound to nonexistent net %d" nid)
          | Some n ->
              if n.D.nport <> Some (p, dir) then
                add
                  (Diagnostic.make ~rule:"port-consistency"
                     ~severity:Diagnostic.Error ~loc:(Diagnostic.Port p)
                     "net %s does not carry the port binding back" n.D.nname))
        (D.ports d);
      List.iter
        (fun (n : D.net) ->
          match n.D.nport with
          | Some (p, dir) ->
              if
                not
                  (List.exists
                     (fun (p', dir', nid') ->
                       p' = p && dir' = dir && nid' = n.D.nid)
                     (D.ports d))
              then
                add
                  (Diagnostic.make ~rule:"port-consistency"
                     ~severity:Diagnostic.Error ~loc:(net_loc n)
                     "claims port %s absent from the port list" p)
          | None -> ())
        (D.nets d))

(* --- reference and pin-interface validity ----------------------------- *)

let run_unknown_ref ctx =
  collect (fun add ->
      List.iter
        (fun (c : D.comp) ->
          match c.D.kind with
          | (T.Macro name | T.Instance name) when not (resolved ctx c) ->
              add
                (Diagnostic.make ~rule:"unknown-ref"
                   ~severity:Diagnostic.Error ~loc:(comp_loc c)
                   "unresolved %s reference %s"
                   (match c.D.kind with
                   | T.Macro _ -> "macro"
                   | _ -> "instance")
                   name)
          | _ -> ())
        (D.comps ctx.design))

let run_unknown_pin ctx =
  collect (fun add ->
      List.iter
        (fun (c : D.comp) ->
          match pins_of ctx c with
          | None -> ()
          | Some pins ->
              List.iter
                (fun (pin, _) ->
                  if not (List.mem_assoc pin pins) then
                    add
                      (Diagnostic.make ~rule:"unknown-pin"
                         ~severity:Diagnostic.Error ~loc:(pin_loc c pin)
                         "connection on a pin absent from the %s interface"
                         (ckind c)))
                (D.connections ctx.design c.D.id))
        (D.comps ctx.design))

(* --- drivers ---------------------------------------------------------- *)

let run_multiple_drivers ctx =
  collect (fun add ->
      List.iter
        (fun (n : D.net) ->
          let drivers, _, _ = net_endpoints ctx n in
          let names =
            List.rev_map
              (fun ((c : D.comp), pin) -> c.D.cname ^ "." ^ pin)
              drivers
          in
          let names =
            match n.D.nport with
            | Some (p, T.Input) -> ("port " ^ p) :: names
            | Some (_, T.Output) | None -> names
          in
          if List.length names > 1 then
            add
              (Diagnostic.make ~rule:"multiple-drivers"
                 ~severity:Diagnostic.Error ~loc:(net_loc n)
                 "multiple drivers: %s" (String.concat ", " names)))
        (D.nets ctx.design))

let run_undriven_net ctx =
  collect (fun add ->
      List.iter
        (fun (n : D.net) ->
          let drivers, sinks, unresolved = net_endpoints ctx n in
          let port_drives =
            match n.D.nport with
            | Some (_, T.Input) -> true
            | Some (_, T.Output) | None -> false
          in
          if drivers = [] && (not port_drives) && (not unresolved)
             && sinks <> []
          then
            add
              (Diagnostic.make ~rule:"undriven-net"
                 ~severity:Diagnostic.Warning ~loc:(net_loc n)
                 "feeds %d input pin%s but has no driver" (List.length sinks)
                 (if List.length sinks = 1 then "" else "s")))
        (D.nets ctx.design))

let run_undriven_port ctx =
  collect (fun add ->
      List.iter
        (fun (p, dir, nid) ->
          match (dir, D.net_opt ctx.design nid) with
          | T.Output, Some n ->
              let drivers, _, unresolved = net_endpoints ctx n in
              if drivers = [] && not unresolved then
                add
                  (Diagnostic.make ~rule:"undriven-port"
                     ~severity:Diagnostic.Warning ~loc:(Diagnostic.Port p)
                     "output port is not driven by any component")
          | _ -> ())
        (D.ports ctx.design))

let run_dangling_output ctx =
  collect (fun add ->
      List.iter
        (fun (n : D.net) ->
          let drivers, sinks, unresolved = net_endpoints ctx n in
          let port_reads =
            match n.D.nport with
            | Some (_, T.Output) -> true
            | Some (_, T.Input) | None -> false
          in
          if
            drivers <> [] && sinks = [] && (not port_reads)
            && (not unresolved)
            && n.D.nport = None
          then
            let (c : D.comp), pin = List.hd drivers in
            add
              (Diagnostic.make ~rule:"dangling-output"
                 ~severity:Diagnostic.Warning ~loc:(net_loc n)
                 "driven by %s.%s but read by nothing" c.D.cname pin))
        (D.nets ctx.design))

(* --- floating pins and clocks ----------------------------------------- *)

let is_clock_pin pin = pin = "CLK"

let run_floating_input ctx =
  collect (fun add ->
      List.iter
        (fun (c : D.comp) ->
          match pins_of ctx c with
          | None -> ()
          | Some pins ->
              let seq = ctx.is_sequential c.D.kind in
              List.iter
                (fun (pin, dir) ->
                  match dir with
                  | T.Input
                    when D.connection ctx.design c.D.id pin = None
                         && not (seq && is_clock_pin pin) ->
                      (* unconnected CLK has its own, sharper rule *)
                      add
                        (Diagnostic.make ~rule:"floating-input"
                           ~severity:Diagnostic.Error ~loc:(pin_loc c pin)
                           "input pin is unconnected")
                  | T.Input | T.Output -> ())
                pins)
        (D.comps ctx.design))

let run_unconnected_clock ctx =
  collect (fun add ->
      List.iter
        (fun (c : D.comp) ->
          if ctx.is_sequential c.D.kind then
            match pins_of ctx c with
            | Some pins
              when List.mem_assoc "CLK" pins
                   && D.connection ctx.design c.D.id "CLK" = None ->
                add
                  (Diagnostic.make ~rule:"unconnected-clock"
                     ~severity:Diagnostic.Error ~loc:(pin_loc c "CLK")
                     "sequential component has no clock")
            | Some _ | None -> ())
        (D.comps ctx.design))

(* --- combinational loops ---------------------------------------------- *)

(* DFS over the combinational component graph; sequential components
   (per [ctx.is_sequential], so mapped flip-flop/counter macros count)
   and unresolved references break paths.  Each distinct cycle is
   reported once. *)
let run_comb_loop ctx =
  let d = ctx.design in
  let comb (c : D.comp) = resolved ctx c && not (ctx.is_sequential c.D.kind) in
  (* successor comp ids through each output pin's net *)
  let succs (c : D.comp) =
    List.concat_map
      (fun (pin, nid) ->
        match (pin_dir ctx c pin, D.net_opt d nid) with
        | Some T.Output, Some n ->
            List.filter_map
              (fun (cid', pin') ->
                match D.comp_opt d cid' with
                | Some c'
                  when comb c' && pin_dir ctx c' pin' = Some T.Input ->
                    Some cid'
                | Some _ | None -> None)
              n.D.npins
        | _ -> [])
      (D.connections d c.D.id)
  in
  let color = Hashtbl.create 64 in
  (* 1 = on stack, 2 = done *)
  let reported = Hashtbl.create 4 in
  let diags = ref [] in
  let rec visit path cid =
    match Hashtbl.find_opt color cid with
    | Some 2 -> ()
    | Some _ ->
        (* back edge: the cycle is the path suffix from [cid] *)
        let rec cycle = function
          | [] -> []
          | x :: rest -> if x = cid then [ x ] else x :: cycle rest
        in
        let members = List.rev (cycle path) in
        let key = List.sort compare members in
        if not (Hashtbl.mem reported key) then begin
          Hashtbl.replace reported key ();
          let names =
            List.map (fun id -> (D.comp d id).D.cname) (members @ [ cid ])
          in
          let c = D.comp d cid in
          diags :=
            Diagnostic.make ~rule:"comb-loop" ~severity:Diagnostic.Error
              ~loc:(comp_loc c) "combinational loop: %s"
              (String.concat " -> " names)
            :: !diags
        end
    | None ->
        Hashtbl.replace color cid 1;
        List.iter (visit (cid :: path)) (succs (D.comp d cid));
        Hashtbl.replace color cid 2
  in
  List.iter
    (fun (c : D.comp) -> if comb c then visit [] c.D.id)
    (D.comps d);
  List.rev !diags

(* --- dead logic ------------------------------------------------------- *)

(* Backward reachability from the output ports: a component none of
   whose outputs (transitively) reaches an output port is dead.  Designs
   without output ports are skipped — there is nothing to be live for. *)
let run_dead_logic ctx =
  let d = ctx.design in
  let out_ports =
    List.filter (fun (_, dir, _) -> dir = T.Output) (D.ports d)
  in
  if out_ports = [] then []
  else begin
    let live_comp = Hashtbl.create 64 in
    let live_net = Hashtbl.create 64 in
    let rec mark_net nid =
      if not (Hashtbl.mem live_net nid) then begin
        Hashtbl.replace live_net nid ();
        match D.net_opt d nid with
        | None -> ()
        | Some n ->
            List.iter
              (fun (cid, pin) ->
                match D.comp_opt d cid with
                | Some c -> (
                    match pin_dir ctx c pin with
                    | Some T.Output | None -> mark_comp cid
                    | Some T.Input -> ())
                | None -> ())
              n.D.npins
      end
    and mark_comp cid =
      if not (Hashtbl.mem live_comp cid) then begin
        Hashtbl.replace live_comp cid ();
        let c = D.comp d cid in
        List.iter
          (fun (pin, nid) ->
            match pin_dir ctx c pin with
            | Some T.Input | None -> mark_net nid
            | Some T.Output -> ())
          (D.connections d cid)
      end
    in
    List.iter (fun (_, _, nid) -> mark_net nid) out_ports;
    collect (fun add ->
        List.iter
          (fun (c : D.comp) ->
            if not (Hashtbl.mem live_comp c.D.id) then
              add
                (Diagnostic.make ~rule:"dead-logic"
                   ~severity:Diagnostic.Info ~loc:(comp_loc c)
                   "not reachable from any output port"))
          (D.comps d))
  end

(* --- constant inputs -------------------------------------------------- *)

let constant_macro name =
  name = "VDD" || name = "VSS"
  || (String.length name > 4
      && let suffix = String.sub name (String.length name - 4) 4 in
         suffix = "_VDD" || suffix = "_VSS")

let run_const_input ctx =
  let d = ctx.design in
  let const_driver (n : D.net) =
    let drivers, _, _ = net_endpoints ctx n in
    List.exists
      (fun ((c : D.comp), _) ->
        match c.D.kind with
        | T.Constant _ -> true
        | T.Macro m -> constant_macro m
        | _ -> false)
      drivers
  in
  collect (fun add ->
      List.iter
        (fun (c : D.comp) ->
          let skip =
            match c.D.kind with
            | T.Constant _ -> true
            | T.Macro m -> constant_macro m
            | _ -> false
          in
          if not skip then
            List.iter
              (fun (pin, nid) ->
                match (pin_dir ctx c pin, D.net_opt d nid) with
                | Some T.Input, Some n when const_driver n ->
                    add
                      (Diagnostic.make ~rule:"const-input"
                         ~severity:Diagnostic.Info ~loc:(pin_loc c pin)
                         "tied to a constant; candidate for constant \
                          propagation")
                | _ -> ())
              (D.connections d c.D.id))
        (D.comps d))

(* --- registry --------------------------------------------------------- *)

let all : pass list =
  [
    { pass_name = "net-consistency";
      pass_doc =
        "comp/net connectivity indexes agree; no dangling references; the \
         driver index matches the pins";
      pass_run = run_net_consistency };
    { pass_name = "port-consistency";
      pass_doc = "port list and net port-bindings agree";
      pass_run = run_port_consistency };
    { pass_name = "unknown-ref";
      pass_doc = "every Macro/Instance reference resolves";
      pass_run = run_unknown_ref };
    { pass_name = "unknown-pin";
      pass_doc = "connections only on pins the component interface declares";
      pass_run = run_unknown_pin };
    { pass_name = "multiple-drivers";
      pass_doc = "at most one driver per net";
      pass_run = run_multiple_drivers };
    { pass_name = "comb-loop";
      pass_doc = "no combinational feedback loops";
      pass_run = run_comb_loop };
    { pass_name = "floating-input";
      pass_doc = "every input pin is connected";
      pass_run = run_floating_input };
    { pass_name = "unconnected-clock";
      pass_doc = "sequential components have their CLK connected";
      pass_run = run_unconnected_clock };
    { pass_name = "undriven-net";
      pass_doc = "nets feeding inputs have a driver";
      pass_run = run_undriven_net };
    { pass_name = "undriven-port";
      pass_doc = "output ports are driven";
      pass_run = run_undriven_port };
    { pass_name = "dangling-output";
      pass_doc = "driven nets are read by something";
      pass_run = run_dangling_output };
    { pass_name = "dead-logic";
      pass_doc = "components reach an output port";
      pass_run = run_dead_logic };
    { pass_name = "const-input";
      pass_doc = "inputs tied to constants (simplification opportunities)";
      pass_run = run_const_input };
  ]

let find name = List.find_opt (fun p -> p.pass_name = name) all
