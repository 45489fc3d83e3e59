(* Mutable netlist with an undo log.

   SOCRATES-style optimization applies a rule, measures the result and
   backtracks by replaying a log of changes (Section 2.2.2 of the paper).
   Every mutator here optionally records inverse information into a [log];
   [undo] restores the design exactly. *)

type resolver = Types.kind -> string -> (string * Types.dir) list

type source = Src_comp of int * string | Src_port of string | Src_none

(* Pin directions depend only on a component's kind, so they are
   resolved once and memoised next to the data they derive from (the
   paper's "re-test only when a change occurs upon which the attribute
   is dependent", Section 2.2.1).  Each memo is one mutable field
   holding an immutable record and validated by physical identity with
   its key, so a reader in another domain can only race into a
   recompute; the shared sentinels below stand for "unknown". *)
type comp = {
  id : int;
  mutable cname : string;
  mutable kind : Types.kind;
  conns : (string, int) Hashtbl.t;
  mutable iface : iface;
}

(* The resolved pin list of [if_kind]; valid while [kind == if_kind]. *)
and iface = { if_kind : Types.kind; if_pins : (string * Types.dir) list }

type net = {
  nid : int;
  mutable nname : string;
  mutable npins : (int * string) list;
  mutable nport : (string * Types.dir) option;
  mutable drive : drive;
}

(* The first output pin of [dr_pins] ([Src_none] if none) and the number
   of its input pins; valid while [npins == dr_pins].  The port binding
   is read live. *)
and drive = { dr_pins : (int * string) list; dr_comp : source; dr_sinks : int }

(* [if_kind] is a constant private to this module, so no component's
   kind is ever physically equal to it. *)
let no_iface = { if_kind = Types.Macro ""; if_pins = [] }

(* Keyed on [], which every empty net shares: the answer it holds is
   exactly the empty net's. *)
let no_drive = { dr_pins = []; dr_comp = Src_none; dr_sinks = 0 }

let make_comp id cname kind =
  { id; cname; kind; conns = Hashtbl.create 8; iface = no_iface }

let make_net nid nname nport =
  { nid; nname; npins = []; nport; drive = no_drive }

type entry =
  | E_add_comp of int * string * Types.kind
  | E_remove_comp of int * string * Types.kind * (string * int) list
  | E_connect of int * string * int option * int option
  | E_add_net of int * string
  | E_remove_net of int * string * (string * Types.dir) option
  | E_set_kind of int * Types.kind * Types.kind

type log = entry list ref

(* Typed mutator errors.  A failing edit names the offending object so
   checkpoint/error reports up the stack can say *what* broke, not just
   that something did. *)
type error = {
  err_op : string;
  err_design : string;
  err_comp : string option;
  err_net : string option;
  err_pin : string option;
  err_reason : string;
}

exception Error of error

let error_to_string e =
  let ctx =
    List.filter_map
      (fun (label, v) -> Option.map (fun v -> label ^ " " ^ v) v)
      [ ("comp", e.err_comp); ("net", e.err_net); ("pin", e.err_pin) ]
  in
  Printf.sprintf "Design.%s (%s%s): %s" e.err_op e.err_design
    (match ctx with [] -> "" | l -> ", " ^ String.concat ", " l)
    e.err_reason

let () =
  Printexc.register_printer (function
    | Error e -> Some (error_to_string e)
    | _ -> None)

let design_error ~op ~design ?comp ?net ?pin fmt =
  Printf.ksprintf
    (fun reason ->
      raise
        (Error
           {
             err_op = op;
             err_design = design;
             err_comp = comp;
             err_net = net;
             err_pin = pin;
             err_reason = reason;
           }))
    fmt

type verdict = Certified | Checked | Skipped | Unguarded

let verdict_name = function
  | Certified -> "certified"
  | Checked -> "checked"
  | Skipped -> "skipped"
  | Unguarded -> "unguarded"

let verdict_of_name = function
  | "certified" -> Some Certified
  | "checked" -> Some Checked
  | "skipped" -> Some Skipped
  | "unguarded" -> Some Unguarded
  | _ -> None

type attribution = {
  at_site : string option;
  at_verdict : verdict option;
  at_before : Milo_trace.Trace.cost option;
  at_after : Milo_trace.Trace.cost option;
}

type t = {
  dname : string;
  comps : (int, comp) Hashtbl.t;
  nets : (int, net) Hashtbl.t;
  mutable ports : (string * Types.dir * int) list;
  mutable next_comp : int;
  mutable next_net : int;
  mutable generation : int;
      (* bumped on every structural mutation; lets observers (e.g.
         Hashcons digests) cache per-design derived data and detect
         staleness in O(1).  Over-bumping is harmless — it only costs a
         recompute — so every low-level mutator touches it. *)
  mutable on_commit :
    (string option -> attribution -> entry list -> unit) option;
      (* observer fired by [commit ~design] with the committed entries;
         deliberately per-design (scratch copies stay silent) and not
         propagated by [copy]. *)
  mutable comp_list : int * comp list;
  mutable net_list : int * net list;
      (* [comps] and [nets] as of the generation they were listed at
         ([unlisted] before the first call) *)
}

(* Generations start at 0, so no design is ever at this one. *)
let unlisted = -1

let new_log () : log = ref []
let record log e = match log with None -> () | Some l -> l := e :: !l

let create dname =
  {
    dname;
    comps = Hashtbl.create 64;
    nets = Hashtbl.create 64;
    ports = [];
    next_comp = 0;
    next_net = 0;
    generation = 0;
    on_commit = None;
    comp_list = (unlisted, []);
    net_list = (unlisted, []);
  }

let name t = t.dname
let generation t = t.generation
let touch t = t.generation <- t.generation + 1
let comp t id = Hashtbl.find t.comps id
let comp_opt t id = Hashtbl.find_opt t.comps id
let net t id = Hashtbl.find t.nets id
let net_opt t id = Hashtbl.find_opt t.nets id
let ports t = List.rev t.ports

(* Every mutation of the tables bumps the generation, so a listing is
   valid exactly while the generation is the one it was made at.  Like
   the pin-direction memos below, each is one mutable field holding an
   immutable pair: two domains reading one design race only into a
   recompute. *)
let comps t =
  match t.comp_list with
  | g, l when g = t.generation -> l
  | _ ->
      let l =
        Hashtbl.fold (fun _ c acc -> c :: acc) t.comps []
        |> List.sort (fun a b -> compare a.id b.id)
      in
      t.comp_list <- (t.generation, l);
      l

let nets t =
  match t.net_list with
  | g, l when g = t.generation -> l
  | _ ->
      let l =
        Hashtbl.fold (fun _ n acc -> n :: acc) t.nets []
        |> List.sort (fun a b -> compare a.nid b.nid)
      in
      t.net_list <- (t.generation, l);
      l

let num_comps t = Hashtbl.length t.comps
let num_nets t = Hashtbl.length t.nets

let find_comp t cname =
  let found =
    Hashtbl.fold
      (fun _ c acc -> if c.cname = cname then Some c else acc)
      t.comps None
  in
  match found with Some c -> c | None -> raise Not_found

let fresh_net_raw t nname =
  touch t;
  let nid = t.next_net in
  t.next_net <- nid + 1;
  let nname = if nname = "" then Printf.sprintf "n%d" nid else nname in
  let n = make_net nid nname None in
  Hashtbl.replace t.nets nid n;
  nid

let new_net ?log ?(name = "") t =
  let nid = fresh_net_raw t name in
  record log (E_add_net (nid, (Hashtbl.find t.nets nid).nname));
  nid

let add_port ?net:reuse t pname dir =
  touch t;
  if List.exists (fun (p, _, _) -> p = pname) t.ports then
    design_error ~op:"add_port" ~design:t.dname "duplicate port %s" pname;
  let nid = match reuse with Some nid -> nid | None -> fresh_net_raw t pname in
  let n = Hashtbl.find t.nets nid in
  (match n.nport with
  | Some (p, _) ->
      design_error ~op:"add_port" ~design:t.dname ~net:n.nname
        "net already bound to port %s" p
  | None -> n.nport <- Some (pname, dir));
  t.ports <- (pname, dir, nid) :: t.ports;
  nid

let port_net t pname =
  let rec go = function
    | [] -> raise Not_found
    | (p, _, nid) :: _ when p = pname -> nid
    | _ :: rest -> go rest
  in
  go t.ports

let add_comp ?log ?(name = "") t kind =
  touch t;
  let id = t.next_comp in
  t.next_comp <- id + 1;
  let cname = if name = "" then Printf.sprintf "u%d" id else name in
  let c = make_comp id cname kind in
  Hashtbl.replace t.comps id c;
  record log (E_add_comp (id, cname, kind));
  id

let detach_pin t cid pin =
  touch t;
  let c = Hashtbl.find t.comps cid in
  match Hashtbl.find_opt c.conns pin with
  | None -> None
  | Some nid ->
      Hashtbl.remove c.conns pin;
      (match Hashtbl.find_opt t.nets nid with
      | Some n -> n.npins <- List.filter (fun p -> p <> (cid, pin)) n.npins
      | None -> ());
      Some nid

let attach_pin t cid pin nid =
  touch t;
  let c = Hashtbl.find t.comps cid in
  let n = Hashtbl.find t.nets nid in
  Hashtbl.replace c.conns pin nid;
  n.npins <- (cid, pin) :: n.npins

let connect ?log t cid pin nid =
  let prev = detach_pin t cid pin in
  attach_pin t cid pin nid;
  record log (E_connect (cid, pin, prev, Some nid))

let disconnect ?log t cid pin =
  match detach_pin t cid pin with
  | None -> ()
  | Some prev -> record log (E_connect (cid, pin, Some prev, None))

let connection t cid pin = Hashtbl.find_opt (comp t cid).conns pin

let connections t cid =
  Hashtbl.fold (fun pin nid acc -> (pin, nid) :: acc) (comp t cid).conns []
  |> List.sort compare

let remove_comp ?log t cid =
  touch t;
  let c = Hashtbl.find t.comps cid in
  let saved = connections t cid in
  List.iter (fun (pin, _) -> ignore (detach_pin t cid pin)) saved;
  Hashtbl.remove t.comps cid;
  record log (E_remove_comp (cid, c.cname, c.kind, saved))

let remove_net ?log t nid =
  touch t;
  let n = Hashtbl.find t.nets nid in
  if n.npins <> [] then begin
    let (cid, pin) = List.hd n.npins in
    design_error ~op:"remove_net" ~design:t.dname ~net:n.nname
      ?comp:(Option.map (fun c -> c.cname) (Hashtbl.find_opt t.comps cid))
      ~pin "net still has %d pin(s)" (List.length n.npins)
  end;
  if n.nport <> None then
    design_error ~op:"remove_net" ~design:t.dname ~net:n.nname
      "net is bound to a port";
  Hashtbl.remove t.nets nid;
  record log (E_remove_net (nid, n.nname, n.nport))

(* A new kind can give a pin the other direction while every net's
   [npins] stays the same, so the nets it is connected to forget their
   drive memo.  The component's own memo is keyed on the kind. *)
let change_kind t c kind =
  c.kind <- kind;
  Hashtbl.iter
    (fun _ nid ->
      match Hashtbl.find_opt t.nets nid with
      | Some n -> n.drive <- no_drive
      | None -> ())
    c.conns

let set_kind ?log t cid kind =
  touch t;
  let c = Hashtbl.find t.comps cid in
  let old = c.kind in
  change_kind t c kind;
  record log (E_set_kind (cid, old, kind))

(* Undoing the addition of the newest id hands the id back, so a whole
   log undone (newest entry first) leaves the fresh-id counters where
   they were.  An older id stays spent: an id committed after it is
   still live. *)
let undo_entry t =
  touch t;
  function
  | E_add_comp (cid, _, _) ->
      let c = Hashtbl.find t.comps cid in
      let pins = Hashtbl.fold (fun pin _ acc -> pin :: acc) c.conns [] in
      List.iter (fun pin -> ignore (detach_pin t cid pin)) pins;
      Hashtbl.remove t.comps cid;
      if cid = t.next_comp - 1 then t.next_comp <- cid
  | E_remove_comp (cid, cname, kind, saved) ->
      Hashtbl.replace t.comps cid (make_comp cid cname kind);
      List.iter (fun (pin, nid) -> attach_pin t cid pin nid) saved
  | E_connect (cid, pin, prev, _) -> (
      ignore (detach_pin t cid pin);
      match prev with None -> () | Some nid -> attach_pin t cid pin nid)
  | E_add_net (nid, _) ->
      Hashtbl.remove t.nets nid;
      if nid = t.next_net - 1 then t.next_net <- nid
  | E_remove_net (nid, nname, nport) ->
      Hashtbl.replace t.nets nid (make_net nid nname nport)
  | E_set_kind (cid, old, _) -> change_kind t (Hashtbl.find t.comps cid) old

let undo t (log : log) =
  List.iter (undo_entry t) !log;
  log := []

let entries (log : log) = List.rev !log

let no_attribution =
  { at_site = None; at_verdict = None; at_before = None; at_after = None }

let commit ?label ?(attr = no_attribution) ?design (log : log) =
  (match design with
  | Some t when !log <> [] -> (
      match t.on_commit with
      | Some f -> f label attr (entries log)
      | None -> ())
  | Some _ | None -> ());
  log := []

let set_commit_hook t h = t.on_commit <- h
let has_commit_hook t = Option.is_some t.on_commit

(* Forward replay of committed entries: every entry carries enough
   information to re-apply it (the redo half of the change log), so a
   recorded trajectory can be re-executed decision-for-decision on a
   restored snapshot.  Ids are preserved exactly — [next_comp]/
   [next_net] advance past replayed ids so later fresh allocations
   cannot collide. *)
let redo_entry t =
  touch t;
  function
  | E_add_comp (cid, cname, kind) ->
      Hashtbl.replace t.comps cid (make_comp cid cname kind);
      if cid >= t.next_comp then t.next_comp <- cid + 1
  | E_remove_comp (cid, _, _, saved) ->
      List.iter (fun (pin, _) -> ignore (detach_pin t cid pin)) saved;
      Hashtbl.remove t.comps cid
  | E_connect (cid, pin, _, now) -> (
      ignore (detach_pin t cid pin);
      match now with None -> () | Some nid -> attach_pin t cid pin nid)
  | E_add_net (nid, nname) ->
      Hashtbl.replace t.nets nid (make_net nid nname None);
      if nid >= t.next_net then t.next_net <- nid + 1
  | E_remove_net (nid, _, _) -> Hashtbl.remove t.nets nid
  | E_set_kind (cid, _, knew) -> change_kind t (Hashtbl.find t.comps cid) knew

let redo t es = List.iter (redo_entry t) es

(* Id-exact reconstruction primitives for snapshot restore: unlike
   [add_comp]/[new_net], these insert at a caller-chosen id so a
   deserialized design is structurally identical (same ids, same
   [signature]) to the one that was serialized. *)
let restore_net t ~id ~name:nname =
  touch t;
  if Hashtbl.mem t.nets id then
    design_error ~op:"restore_net" ~design:t.dname ~net:nname
      "net id %d already present" id;
  Hashtbl.replace t.nets id (make_net id nname None);
  if id >= t.next_net then t.next_net <- id + 1

let restore_comp t ~id ~name:cname kind =
  touch t;
  if Hashtbl.mem t.comps id then
    design_error ~op:"restore_comp" ~design:t.dname ~comp:cname
      "comp id %d already present" id;
  Hashtbl.replace t.comps id (make_comp id cname kind);
  if id >= t.next_comp then t.next_comp <- id + 1

let set_counters t ~next_comp ~next_net =
  t.next_comp <- max t.next_comp next_comp;
  t.next_net <- max t.next_net next_net

let counters t = (t.next_comp, t.next_net)

(* --- Queries -------------------------------------------------------- *)

(* The pin list of [c]'s kind, resolved on a memo miss only. *)
let iface ?resolve c =
  let kind = c.kind in
  let m = c.iface in
  if m.if_kind == kind then m.if_pins
  else
    let pins = Types.pins_of_kind ?resolve kind in
    c.iface <- { if_kind = kind; if_pins = pins };
    pins

(* [List.assoc] with [String.equal] instead of the polymorphic
   compare: a wide component's pins are resolved one by one, a scan
   each. *)
let rec pin_assoc pin = function
  | [] -> raise Not_found
  | (p, d) :: rest -> if String.equal p pin then d else pin_assoc pin rest

let pin_dir ?resolve t cid pin =
  let c = comp t cid in
  match pin_assoc pin (iface ?resolve c) with
  | d -> d
  | exception Not_found ->
      design_error ~op:"pin_dir" ~design:t.dname ~comp:c.cname ~pin
        "%s has no pin %s" (Types.kind_name c.kind) pin

let drive ?resolve t n =
  let pins = n.npins in
  let m = n.drive in
  if m.dr_pins == pins then m
  else
    let rec walk drv sinks = function
      | [] -> { dr_pins = pins; dr_comp = drv; dr_sinks = sinks }
      | (cid, pin) :: rest -> (
          match pin_dir ?resolve t cid pin with
          | Types.Output ->
              walk (if drv == Src_none then Src_comp (cid, pin) else drv)
                sinks rest
          | Types.Input -> walk drv (sinks + 1) rest)
    in
    let m = walk Src_none 0 pins in
    n.drive <- m;
    m

let driver ?resolve t nid =
  let n = net t nid in
  match (drive ?resolve t n).dr_comp with
  | Src_comp _ as s -> s
  | Src_port _ | Src_none -> (
      match n.nport with
      | Some (p, Types.Input) -> Src_port p
      | Some (_, Types.Output) | None -> Src_none)

let sinks ?resolve t nid =
  let n = net t nid in
  List.filter (fun (cid, pin) -> pin_dir ?resolve t cid pin = Types.Input)
    n.npins

let fanout ?resolve t nid =
  let n = net t nid in
  let port_load =
    match n.nport with Some (_, Types.Output) -> 1 | _ -> 0
  in
  (drive ?resolve t n).dr_sinks + port_load

(* The copy shares each kind value and [npins] list with the original,
   so the memos keyed on them carry over as they are. *)
let copy t =
  let t' = create t.dname in
  t'.next_comp <- t.next_comp;
  t'.next_net <- t.next_net;
  Hashtbl.iter
    (fun nid n ->
      Hashtbl.replace t'.nets nid
        {
          nid;
          nname = n.nname;
          npins = n.npins;
          nport = n.nport;
          drive = n.drive;
        })
    t.nets;
  Hashtbl.iter
    (fun cid c ->
      Hashtbl.replace t'.comps cid { c with conns = Hashtbl.copy c.conns })
    t.comps;
  t'.ports <- t.ports;
  t'

let signature t =
  let comp_sig c =
    (c.id, c.cname, Types.kind_name c.kind, connections t c.id)
  in
  let net_sig n = (n.nid, n.nname, List.sort compare n.npins, n.nport) in
  ( List.map comp_sig (comps t),
    List.map net_sig (nets t),
    ports t )

let equal_structure a b = signature a = signature b
