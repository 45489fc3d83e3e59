(* Point-of-optimization selection (Section 4, Figure 8):

   criterion 1: the component the most critical paths pass through;
   criterion 2: among ties, the one closest to an external input. *)

(* Paths whose endpoint misses the constraint (or the single worst path
   when everything meets it). *)
let critical_set ?required sta =
  match required with
  | None -> (
      match Sta.critical_path sta with None -> [] | Some p -> [ p ])
  | Some req ->
      let late =
        List.filter (fun (_, d) -> d > req) (Sta.endpoints sta)
      in
      if late = [] then []
      else
        Sta.critical_paths ~count:(List.length late) sta
        |> List.filter (fun p -> p.Sta.path_delay > req)

(* Components on a path, input side first. *)
let comps_of_path (p : Sta.path) =
  List.map (fun h -> h.Sta.comp) p.Sta.hops

let select_point ?required sta =
  let paths = critical_set ?required sta in
  if paths = [] then None
  else begin
    let counts = Hashtbl.create 16 in
    let position = Hashtbl.create 16 in
    List.iter
      (fun p ->
        List.iteri
          (fun i cid ->
            Hashtbl.replace counts cid
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts cid));
            (* remember the earliest (closest-to-input) position seen *)
            let prev = Option.value ~default:max_int (Hashtbl.find_opt position cid) in
            Hashtbl.replace position cid (min prev i))
          (comps_of_path p))
      paths;
    let best =
      Hashtbl.fold
        (fun cid n acc ->
          let pos = Hashtbl.find position cid in
          match acc with
          | Some (bn, bpos, _) when (bn, -bpos) >= (n, -pos) -> acc
          | _ -> Some (n, pos, cid))
        counts None
    in
    Option.map (fun (_, _, cid) -> cid) best
  end

(* The most critical path: the one whose delay is furthest beyond the
   requirement (or just the worst). *)
let most_critical ?required sta =
  match critical_set ?required sta with
  | [] -> None
  | p :: rest ->
      Some
        (List.fold_left
           (fun best q ->
             if q.Sta.path_delay > best.Sta.path_delay then q else best)
           p rest)
