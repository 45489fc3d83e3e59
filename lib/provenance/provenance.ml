module D = Milo_netlist.Design
module J = Milo_journal.Journal
module Sta = Milo_timing.Sta

type cost = Milo_trace.Trace.cost

type tag = { tag_stage : string; tag_label : string option; tag_step : int }

type t = {
  mutable records_rev : J.record list;
  mutable sinks : (J.record -> unit) list;  (* reverse install order *)
}

let create () = { records_rev = []; sinks = [] }

let add_sink t f = t.sinks <- f :: t.sinks

let observe t r =
  t.records_rev <- r :: t.records_rev;
  List.iter (fun f -> f r) (List.rev t.sinks)

let events t = List.rev t.records_rev

(* --- object tags --------------------------------------------------- *)

let fold_entry tag comp_tags net_tags = function
  | D.E_add_comp (cid, _, _) | D.E_set_kind (cid, _, _) ->
      Hashtbl.replace comp_tags cid tag
  | D.E_connect (cid, _, prev, next) ->
      Hashtbl.replace comp_tags cid tag;
      let touch = function
        | Some nid -> Hashtbl.replace net_tags nid tag
        | None -> ()
      in
      touch prev;
      touch next
  | D.E_remove_comp (cid, _, _, saved) ->
      Hashtbl.remove comp_tags cid;
      List.iter (fun (_, nid) -> Hashtbl.replace net_tags nid tag) saved
  | D.E_add_net (nid, _) -> Hashtbl.replace net_tags nid tag
  | D.E_remove_net (nid, _, _) -> Hashtbl.remove net_tags nid

(* The (component, net) tag tables at the end of the stream. *)
let tags t =
  let comps = Hashtbl.create 256 and nets = Hashtbl.create 256 in
  let step = ref 0 in
  List.iter
    (function
      | J.Stage _ ->
          Hashtbl.reset comps;
          Hashtbl.reset nets
      | J.Delta d ->
          let tag =
            { tag_stage = d.d_stage; tag_label = d.d_label; tag_step = !step }
          in
          incr step;
          List.iter (fold_entry tag comps nets) d.d_entries
      | J.Header _ | J.Checkpoint _ | J.Finish _ -> ())
    (events t);
  (comps, nets)

let comp_tag t id = Hashtbl.find_opt (fst (tags t)) id
let net_tag t id = Hashtbl.find_opt (snd (tags t)) id

let tag_count t =
  let comps, nets = tags t in
  (Hashtbl.length comps, Hashtbl.length nets)

let blame t (path : Sta.path) =
  let comps, _ = tags t in
  List.map
    (fun (h : Sta.hop) -> (h, Hashtbl.find_opt comps h.Sta.comp))
    path.Sta.hops

(* --- attribution ledger -------------------------------------------- *)

(* Every delta of the stream as its stage, label and measured
   before/after totals, when it carries both. *)
let commits t =
  List.filter_map
    (function
      | J.Delta d ->
          let measured =
            match (d.d_attr.D.at_before, d.d_attr.D.at_after) with
            | Some b, Some a -> Some (b, a)
            | _ -> None
          in
          Some (d.d_stage, d.d_label, measured)
      | J.Header _ | J.Stage _ | J.Checkpoint _ | J.Finish _ -> None)
    (events t)

type row = {
  row_stage : string;
  row_label : string;
  row_applies : int;
  row_measured : int;
  row_delay : float;
  row_area : float;
  row_power : float;
}

let ledger t =
  let order = ref [] and rows = Hashtbl.create 32 in
  List.iter
    (fun (stage, label, measured) ->
      let label = Option.value label ~default:"(unlabeled)" in
      let key = (stage, label) in
      let r =
        match Hashtbl.find_opt rows key with
        | Some r -> r
        | None ->
            order := key :: !order;
            {
              row_stage = stage;
              row_label = label;
              row_applies = 0;
              row_measured = 0;
              row_delay = 0.0;
              row_area = 0.0;
              row_power = 0.0;
            }
      in
      let r = { r with row_applies = r.row_applies + 1 } in
      Hashtbl.replace rows key
        (match measured with
        | Some ((b : cost), (a : cost)) ->
            {
              r with
              row_measured = r.row_measured + 1;
              row_delay = r.row_delay +. (a.delay -. b.delay);
              row_area = r.row_area +. (a.area -. b.area);
              row_power = r.row_power +. (a.power -. b.power);
            }
        | None -> r))
    (commits t);
  List.rev_map (Hashtbl.find rows) !order

(* --- conservation -------------------------------------------------- *)

type conservation = {
  co_stage : string;
  co_commits : int;
  co_measured : int;
  co_breaks : int;
  co_sum : cost;
  co_end : cost;
  co_residual : cost;
}

let zero_cost : cost = { delay = 0.0; area = 0.0; power = 0.0 }

let cost_sub (a : cost) (b : cost) : cost =
  { delay = a.delay -. b.delay; area = a.area -. b.area; power = a.power -. b.power }

let cost_add (a : cost) (b : cost) : cost =
  { delay = a.delay +. b.delay; area = a.area +. b.area; power = a.power +. b.power }

(* Bitwise equality: conservation is about the measurer handing the
   exact same totals to consecutive deltas, not about float tolerance. *)
let cost_identical (a : cost) (b : cost) =
  Int64.equal (Int64.bits_of_float a.delay) (Int64.bits_of_float b.delay)
  && Int64.equal (Int64.bits_of_float a.area) (Int64.bits_of_float b.area)
  && Int64.equal (Int64.bits_of_float a.power) (Int64.bits_of_float b.power)

let conservation t =
  let commits = commits t in
  let stages =
    List.fold_left
      (fun acc (stage, _, _) ->
        if List.mem stage acc then acc else stage :: acc)
      [] commits
  in
  List.rev_map
    (fun stage ->
      let mine = List.filter (fun (s, _, _) -> s = stage) commits in
      let measured = List.filter_map (fun (_, _, m) -> m) mine in
      let co_sum =
        List.fold_left (fun acc (b, a) -> cost_add acc (cost_sub a b)) zero_cost
          measured
      in
      let co_breaks, last =
        List.fold_left
          (fun (breaks, prev) (b, a) ->
            match prev with
            | Some p when not (cost_identical p b) -> (breaks + 1, Some a)
            | _ -> (breaks, Some a))
          (0, None) measured
      in
      let co_end =
        match (measured, last) with
        | (first, _) :: _, Some last -> cost_sub last first
        | _ -> zero_cost
      in
      {
        co_stage = stage;
        co_commits = List.length mine;
        co_measured = List.length measured;
        co_breaks;
        co_sum;
        co_end;
        co_residual = cost_sub co_sum co_end;
      })
    stages
