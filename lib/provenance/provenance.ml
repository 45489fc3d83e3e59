module D = Milo_netlist.Design
module J = Milo_journal.Journal
module Sta = Milo_timing.Sta

type cost = Milo_trace.Trace.cost

type tag = { tag_stage : string; tag_label : string option; tag_step : int }

type step = {
  st_step : int;
  st_stage : string;
  st_label : string option;
  st_site : string option;
  st_verdict : D.verdict option;
  st_entries : int;
  st_hash : string;
  st_before : cost option;
  st_after : cost option;
  st_comps : int;
  st_nets : int;
  st_budget : (int * int * float) option;
}

type event =
  | Run of { run_design : string; run_tech : string; run_hash : string }
  | Stage of string
  | Step of step
  | Check of { ck_stage : string; ck_hash : string; ck_comps : int; ck_nets : int }
  | Finish of { fin_outcome : string; fin_cost : cost }

type t = {
  mutable events_rev : event list;
  mutable next_step : int;
  comp_tags : (int, tag) Hashtbl.t;
  net_tags : (int, tag) Hashtbl.t;
  mutable sinks : (event -> unit) list;  (* reverse install order *)
}

let create () =
  {
    events_rev = [];
    next_step = 0;
    comp_tags = Hashtbl.create 256;
    net_tags = Hashtbl.create 256;
    sinks = [];
  }

let add_sink t f = t.sinks <- f :: t.sinks

let record t ev =
  t.events_rev <- ev :: t.events_rev;
  List.iter (fun f -> f ev) (List.rev t.sinks)

let fold_entry tags comp_tags net_tags = function
  | D.E_add_comp (cid, _, _) | D.E_set_kind (cid, _, _) ->
      Hashtbl.replace comp_tags cid tags
  | D.E_connect (cid, _, prev, next) ->
      Hashtbl.replace comp_tags cid tags;
      let touch = function
        | Some nid -> Hashtbl.replace net_tags nid tags
        | None -> ()
      in
      touch prev;
      touch next
  | D.E_remove_comp (cid, _, _, saved) ->
      Hashtbl.remove comp_tags cid;
      List.iter (fun (_, nid) -> Hashtbl.replace net_tags nid tags) saved
  | D.E_add_net (nid, _) -> Hashtbl.replace net_tags nid tags
  | D.E_remove_net (nid, _, _) -> Hashtbl.remove net_tags nid

let observe t (r : J.record) =
  match r with
  | J.Header h ->
      record t
        (Run
           {
             run_design = h.J.h_design;
             run_tech = h.J.h_tech;
             run_hash = h.J.h_hash;
           })
  | J.Stage s ->
      Hashtbl.reset t.comp_tags;
      Hashtbl.reset t.net_tags;
      record t (Stage s)
  | J.Delta d ->
      let step = t.next_step in
      t.next_step <- step + 1;
      let tag =
        { tag_stage = d.d_stage; tag_label = d.d_label; tag_step = step }
      in
      List.iter (fold_entry tag t.comp_tags t.net_tags) d.d_entries;
      let comps, nets = Option.value d.d_shape ~default:(0, 0) in
      record t
        (Step
           {
             st_step = step;
             st_stage = d.d_stage;
             st_label = d.d_label;
             st_site = d.d_attr.D.at_site;
             st_verdict = d.d_attr.D.at_verdict;
             st_entries = List.length d.d_entries;
             st_hash = Option.value d.d_hash ~default:"";
             st_before = d.d_attr.D.at_before;
             st_after = d.d_attr.D.at_after;
             st_comps = comps;
             st_nets = nets;
             st_budget = d.d_budget;
           })
  | J.Checkpoint ck ->
      record t
        (Check
           {
             ck_stage = ck.J.ck_stage;
             ck_hash = J.design_hash ck.J.ck_design;
             ck_comps = D.num_comps ck.J.ck_design;
             ck_nets = D.num_nets ck.J.ck_design;
           })
  | J.Finish f ->
      record t
        (Finish
           {
             fin_outcome = f.f_outcome;
             fin_cost =
               { delay = f.f_delay; area = f.f_area; power = f.f_power };
           })

(* --- queries ------------------------------------------------------- *)

let events t = List.rev t.events_rev

let comp_tag t id = Hashtbl.find_opt t.comp_tags id
let net_tag t id = Hashtbl.find_opt t.net_tags id
let tag_count t = (Hashtbl.length t.comp_tags, Hashtbl.length t.net_tags)

(* --- attribution ledger -------------------------------------------- *)

type row = {
  row_stage : string;
  row_label : string;
  row_applies : int;
  row_measured : int;
  row_delay : float;
  row_area : float;
  row_power : float;
}

let unlabeled = "(unlabeled)"

let ledger t =
  let order = ref [] and rows = Hashtbl.create 32 in
  List.iter
    (function
      | Step s ->
          let label = Option.value s.st_label ~default:unlabeled in
          let key = (s.st_stage, label) in
          let r =
            match Hashtbl.find_opt rows key with
            | Some r -> r
            | None ->
                let r =
                  ref
                    {
                      row_stage = s.st_stage;
                      row_label = label;
                      row_applies = 0;
                      row_measured = 0;
                      row_delay = 0.0;
                      row_area = 0.0;
                      row_power = 0.0;
                    }
                in
                Hashtbl.replace rows key r;
                order := key :: !order;
                r
          in
          let v = !r in
          let v = { v with row_applies = v.row_applies + 1 } in
          let v =
            match (s.st_before, s.st_after) with
            | Some b, Some a ->
                {
                  v with
                  row_measured = v.row_measured + 1;
                  row_delay = v.row_delay +. (a.delay -. b.delay);
                  row_area = v.row_area +. (a.area -. b.area);
                  row_power = v.row_power +. (a.power -. b.power);
                }
            | _ -> v
          in
          r := v
      | _ -> ())
    (events t);
  List.rev_map (fun key -> !(Hashtbl.find rows key)) !order

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
   exact same totals to consecutive steps, not about float tolerance. *)
let cost_identical (a : cost) (b : cost) =
  Int64.equal (Int64.bits_of_float a.delay) (Int64.bits_of_float b.delay)
  && Int64.equal (Int64.bits_of_float a.area) (Int64.bits_of_float b.area)
  && Int64.equal (Int64.bits_of_float a.power) (Int64.bits_of_float b.power)

type co_acc = {
  mutable a_commits : int;
  mutable a_measured : int;
  mutable a_breaks : int;
  mutable a_sum : cost;
  mutable a_first : cost option;
  mutable a_last : cost option;  (* previous measured step's [after] *)
}

let conservation t =
  let order = ref [] and accs = Hashtbl.create 8 in
  let acc stage =
    match Hashtbl.find_opt accs stage with
    | Some a -> a
    | None ->
        let a =
          {
            a_commits = 0;
            a_measured = 0;
            a_breaks = 0;
            a_sum = zero_cost;
            a_first = None;
            a_last = None;
          }
        in
        Hashtbl.replace accs stage a;
        order := stage :: !order;
        a
  in
  List.iter
    (function
      | Step s -> (
          let a = acc s.st_stage in
          a.a_commits <- a.a_commits + 1;
          match (s.st_before, s.st_after) with
          | Some b, Some af ->
              a.a_measured <- a.a_measured + 1;
              a.a_sum <- cost_add a.a_sum (cost_sub af b);
              (match a.a_first with None -> a.a_first <- Some b | Some _ -> ());
              (match a.a_last with
              | Some prev when not (cost_identical prev b) ->
                  a.a_breaks <- a.a_breaks + 1
              | _ -> ());
              a.a_last <- Some af
          | _ -> ())
      | _ -> ())
    (events t);
  List.rev_map
    (fun stage ->
      let a = Hashtbl.find accs stage in
      let co_end =
        match (a.a_first, a.a_last) with
        | Some first, Some last -> cost_sub last first
        | _ -> zero_cost
      in
      {
        co_stage = stage;
        co_commits = a.a_commits;
        co_measured = a.a_measured;
        co_breaks = a.a_breaks;
        co_sum = a.a_sum;
        co_end;
        co_residual = cost_sub a.a_sum co_end;
      })
    !order

(* --- critical-path blame ------------------------------------------- *)

let blame t (path : Sta.path) =
  List.map (fun (h : Sta.hop) -> (h, comp_tag t h.Sta.comp)) path.Sta.hops
