(* Single-output combinational cones: the unit of the hash-table macro
   selection (strategies 4/6), the two-level collapse (strategy 7) and
   the mux duplication (strategy 8).

   A cone is the transitive combinational fanin of a net, cut off at
   ports, sequential outputs, multi-output macros and the leaf budget.
   Its function is computed by packed local evaluation, as a truth
   table (≤ 6 leaves) or a minterm cover. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Rule
module Macro = Milo_library.Macro
open Milo_boolfunc

type t = {
  out_net : int;
  leaves : int list;  (* nets, in variable order *)
  comps : int list;  (* cone components, any order *)
}

(* The driving comb single-output macro of a net, if expandable, with
   its truth table. *)
let expandable ctx nid =
  match R.driver_comp ctx nid with
  | Some (c, _) -> (
      match R.macro_of ctx c with
      | Some m -> Option.map (fun tt -> (c, m, tt)) (Macro.single_output_tt m)
      | None -> None)
  | None -> None

(* Extract a cone rooted at [out_net].  Expansion is breadth-first and
   stops when adding a component would exceed the leaf budget. *)
let extract ctx ~max_leaves out_net =
  let leaves = ref [] in
  let comps = ref [] in
  let rec grow frontier =
    match frontier with
    | [] -> ()
    | nid :: rest -> (
        match expandable ctx nid with
        | None ->
            if not (List.mem nid !leaves) then leaves := nid :: !leaves;
            grow rest
        | Some (c, m, _) ->
            if List.mem c.D.id !comps then grow rest
            else begin
              let ins =
                List.filter_map
                  (fun pin -> D.connection ctx.R.design c.D.id pin)
                  m.Macro.inputs
              in
              (* Conservative budget check. *)
              let new_leaves =
                List.filter
                  (fun n -> (not (List.mem n !leaves)) && expandable ctx n = None)
                  (List.sort_uniq compare ins)
              in
              if
                List.length !leaves + List.length new_leaves > max_leaves
                && !comps <> []
              then begin
                (* Treat this net as a leaf instead of expanding. *)
                if not (List.mem nid !leaves) then leaves := nid :: !leaves;
                grow rest
              end
              else begin
                comps := c.D.id :: !comps;
                grow (ins @ rest)
              end
            end)
  in
  grow [ out_net ];
  let leaves = List.sort_uniq compare !leaves in
  if List.length leaves > max_leaves then None
  else Some { out_net; leaves; comps = !comps }

(* Canonical structural digest of the cone's logic: a DFS
   serialization from the output with leaves replaced by their
   variable index and component kinds replaced by interned kind ids,
   with backreferences for shared subtrees.  Two cones with equal
   digests compute the same function of their leaves (within one
   technology — macro kinds carry only the macro name, so cache keys
   must include the library).  This is what lets the guard's
   truth-vector snapshots be shared across structurally identical
   cones instead of re-simulated. *)
let digest ctx cone =
  let buf = Buffer.create 64 in
  let leaf_ix = List.mapi (fun i nid -> (nid, i)) cone.leaves in
  let memo = Hashtbl.create 16 in
  let counter = ref 0 in
  let rec go nid =
    match Hashtbl.find_opt memo nid with
    | Some l -> Buffer.add_string buf (Printf.sprintf "#%d" l)
    | None ->
        Hashtbl.replace memo nid !counter;
        incr counter;
        (match List.assoc_opt nid leaf_ix with
        | Some i -> Buffer.add_string buf (Printf.sprintf "L%d" i)
        | None -> (
            match expandable ctx nid with
            | Some (c, m, _) when List.mem c.D.id cone.comps ->
                Buffer.add_string buf
                  (Printf.sprintf "(%d"
                     (Milo_netlist.Hashcons.kind_id c.D.kind));
                List.iter
                  (fun pin ->
                    Buffer.add_char buf ' ';
                    match D.connection ctx.R.design c.D.id pin with
                    | Some n -> go n
                    | None -> Buffer.add_char buf '_')
                  m.Macro.inputs;
                Buffer.add_char buf ')'
            | Some _ | None -> Buffer.add_char buf '_'))
  in
  go cone.out_net;
  Buffer.contents buf

(* --- The cone check ------------------------------------------------------

   One packed evaluator serves every consumer of a cone's function: the
   engine's rule guard and the offline certifier (snapshot before an
   edit, re-check after it), the truth tables and minterms of
   strategies 4-8, and the constant re-proof of [absint-const-collapse].
   A vector set is an array of chunks, each a word per leaf (lane [l]
   of every word is one leaf assignment) with the mask of its live
   lanes. *)

exception Unverifiable

module P = Milo_sim.Eval.Packed

let lanes = P.lanes

(* Packed value of [nid0] under a leaf assignment, expanding through
   [expandable] drivers.  A net that is neither assigned nor expandable
   — or a combinational cycle — has no cone-local meaning:
   [Unverifiable].  Over a cone [extract] built, every net reached is a
   leaf or driven by a cone component, so before an edit this is the
   cone's function; after one, it is whatever now drives the net. *)
let eval ctx assignment nid0 =
  let memo = Hashtbl.create 16 in
  let visiting = Hashtbl.create 16 in
  let rec value nid =
    match Hashtbl.find_opt memo nid with
    | Some v -> v
    | None ->
        if Hashtbl.mem visiting nid then raise Unverifiable;
        Hashtbl.replace visiting nid ();
        let v =
          match List.assoc_opt nid assignment with
          | Some v -> v
          | None -> (
              match expandable ctx nid with
              | Some (c, m, tt) ->
                  P.eval_tt tt
                    (Array.of_list
                       (List.map
                          (fun pin ->
                            match D.connection ctx.R.design c.D.id pin with
                            | Some n -> value n
                            | None -> 0)
                          m.Macro.inputs))
              | None -> raise Unverifiable)
        in
        Hashtbl.remove visiting nid;
        Hashtbl.replace memo nid v;
        v
  in
  value nid0

type vectors = ((int * int) list * int) array

(* Minterm [c*lanes + l] sits in lane [l] of chunk [c]. *)
let exhaustive leaves =
  let total = 1 lsl List.length leaves in
  Array.init
    ((total + lanes - 1) / lanes)
    (fun c ->
      let base = c * lanes in
      (P.minterm_words leaves base, P.lane_mask (total - base)))

(* Mask [k] sits in lane [k mod lanes] of chunk [k / lanes]; leaf [i]
   takes bit [i] of its mask. *)
let of_masks leaves masks =
  let masks = Array.of_list masks in
  let n = Array.length masks in
  Array.init
    ((n + lanes - 1) / lanes)
    (fun c ->
      let base = c * lanes in
      let live = min lanes (n - base) in
      ( List.mapi
          (fun i leaf ->
            let w = ref 0 in
            for l = 0 to live - 1 do
              if masks.(base + l) lsr i land 1 <> 0 then w := !w lor (1 lsl l)
            done;
            (leaf, !w))
          leaves,
        P.lane_mask live ))

let chunks (v : vectors) = Array.length v
let sweep ctx (v : vectors) nid = Array.map (fun (ws, _) -> eval ctx ws nid) v

(* The first live lane where [nid] no longer computes [before], as a
   leaf assignment. *)
let recheck ctx (v : vectors) before nid =
  let rec go c =
    if c >= Array.length v then None
    else
      let ws, live = v.(c) in
      let diff = (eval ctx ws nid lxor before.(c)) land live in
      if diff = 0 then go (c + 1)
      else
        let l = P.first_lane diff in
        Some (List.map (fun (leaf, w) -> (leaf, w lsr l land 1 <> 0)) ws)
  in
  go 0

(* Output nets of the site's components: the signals whose function
   a rule may restructure but must not change. *)
let site_outputs ctx (site : R.site) =
  List.concat_map
    (fun cid ->
      match D.comp_opt ctx.R.design cid with
      | None -> []
      | Some c ->
          Hashtbl.fold
            (fun pin nid acc ->
              match D.pin_dir ~resolve:ctx.R.resolve ctx.R.design cid pin with
              | T.Output -> nid :: acc
              | T.Input -> acc
              | exception _ -> acc)
            c.D.conns [])
    site.R.site_comps
  |> List.sort_uniq compare

(* Whether the cone output is 1 under minterm [m], read off one
   exhaustive sweep. *)
let on_set ctx cone =
  let words = sweep ctx (exhaustive cone.leaves) cone.out_net in
  fun m -> words.(m / lanes) lsr (m mod lanes) land 1 <> 0

let truth_table ctx cone =
  let n = List.length cone.leaves in
  if n > Truth_table.max_vars then None
  else begin
    let on = on_set ctx cone in
    let bits = ref 0L in
    for m = 0 to (1 lsl n) - 1 do
      if on m then bits := Int64.logor !bits (Int64.shift_left 1L m)
    done;
    Some (Truth_table.create n !bits)
  end

(* On-set minterms, highest first (strategy 7's collapse). *)
let minterms ctx cone =
  let on = on_set ctx cone in
  let top = (1 lsl List.length cone.leaves) - 1 in
  List.filter on (List.init (top + 1) (fun i -> top - i))

(* Replace the cone's logic: disconnect the old driver from [out_net]
   and let [build] produce the replacement net from the leaves; dead old
   logic is left for the cleanup rules.  Returns false if the output has
   no driver. *)
let replace ctx log cone ~build =
  match R.driver_comp ctx cone.out_net with
  | None -> false
  | Some (old_driver, out_pin) ->
      D.disconnect ~log ctx.R.design old_driver.D.id out_pin;
      let src = build () in
      R.reroute ctx log ~signal:src ~old_net:cone.out_net;
      true

(* Estimated area of the cone's exclusive logic (components whose
   outputs stay inside the cone). *)
let area ctx cone =
  List.fold_left
    (fun acc cid ->
      match D.comp_opt ctx.R.design cid with
      | Some c -> (
          match R.macro_of ctx c with
          | Some m -> acc +. m.Macro.area
          | None -> acc)
      | None -> acc)
    0.0 cone.comps
