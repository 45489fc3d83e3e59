(* Equivalence checking by simulation.  Designs are compared on their
   shared port interface: exhaustively when the input count is small,
   with random vectors otherwise; sequential designs are compared in
   lock-step from the reset state over random stimulus.

   Both checks run on the packed engine: each settle evaluates
   [Simulator.lanes] vectors at once, so a 2^12 exhaustive sweep costs
   ~65 packed passes instead of 4096 scalar ones.  Vectors are
   streamed chunk by chunk — nothing proportional to 2^n is ever
   materialized — and the exhaustive bound is clamped below the word
   size so [1 lsl n] cannot overflow.

   Port interfaces are validated symmetrically on both input and
   output sets, for sequential designs too: a candidate that drops or
   renames an output port is rejected up front rather than silently
   compared on the surviving ports. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

type result =
  | Equivalent
  | Mismatch of {
      inputs : (string * bool) list;
      ports : string list;
      cycle : int option;
    }

let input_ports d =
  List.filter_map
    (fun (p, dir, _) -> if dir = T.Input then Some p else None)
    (D.ports d)

let output_ports d =
  List.filter_map
    (fun (p, dir, _) -> if dir = T.Output then Some p else None)
    (D.ports d)

let validate_ports fname d1 d2 =
  if List.sort compare (input_ports d1) <> List.sort compare (input_ports d2)
  then invalid_arg (fname ^ ": input port mismatch");
  if List.sort compare (output_ports d1) <> List.sort compare (output_ports d2)
  then invalid_arg (fname ^ ": output port mismatch")

module P = Eval.Packed

(* The two simulators' output words compared port by port, in sorted
   port order: [index1.(k)]/[index2.(k)] is port [names.(k)]'s word in
   each simulator's output array.  Built once per pair of simulators
   ([validate_ports] guarantees both have the same ports, and port
   names are unique). *)
type alignment = {
  names : string array;
  index1 : int array;
  index2 : int array;
}

let align s1 s2 =
  let p1 = Simulator.output_ports s1 and p2 = Simulator.output_ports s2 in
  let names = Array.copy p1 in
  Array.sort compare names;
  let index ports p =
    let rec go i = if ports.(i) = p then i else go (i + 1) in
    go 0
  in
  {
    names;
    index1 = Array.map (index p1) names;
    index2 = Array.map (index p2) names;
  }

(* The first lane of [mask] where the output words differ, as a scalar
   counterexample. *)
let mismatch ~cycle al in_words o1 o2 mask =
  let all = ref 0 in
  for k = 0 to Array.length al.names - 1 do
    all := !all lor (o1.(al.index1.(k)) lxor o2.(al.index2.(k)))
  done;
  if !all land mask = 0 then None
  else
    let l = P.first_lane (!all land mask) in
    let bit w = w land (1 lsl l) <> 0 in
    Some
      (Mismatch
         {
           inputs = List.map (fun (p, w) -> (p, bit w)) in_words;
           ports =
             List.filteri
               (fun k _ -> bit (o1.(al.index1.(k)) lxor o2.(al.index2.(k))))
               (Array.to_list al.names);
           cycle;
         })

(* Random input words drawn lane-major then input-minor, matching the
   draw order of one scalar vector per lane. *)
let random_words rng ins chunk =
  let ws = Array.make (List.length ins) 0 in
  for l = 0 to chunk - 1 do
    List.iteri
      (fun i _ -> if Random.State.bool rng then ws.(i) <- ws.(i) lor (1 lsl l))
      ins
  done;
  List.mapi (fun i p -> (p, ws.(i))) ins

(* Combinational equivalence; [max_exhaustive] bounds the exhaustive
   sweep (default 2^12 vectors, clamped below the word size), beyond
   which [vectors] random vectors are used. *)
let combinational ?(max_exhaustive = 12) ?(vectors = 512) ?(seed = 0x5eed)
    env1 d1 env2 d2 =
  validate_ports "Equiv.combinational" d1 d2;
  let ins = input_ports d1 in
  let s1 = Simulator.create env1 d1 and s2 = Simulator.create env2 d2 in
  let al = align s1 s2 in
  let check_chunk in_words mask =
    mismatch ~cycle:None al in_words
      (Simulator.output_words s1 in_words)
      (Simulator.output_words s2 in_words)
      mask
  in
  let n = List.length ins in
  (* [1 lsl n] must stay a positive [int]; beyond that an exhaustive
     sweep is unrepresentable, so fall through to random vectors. *)
  let max_exhaustive = min max_exhaustive (Sys.int_size - 2) in
  if n <= max_exhaustive then begin
    let total = 1 lsl n in
    let rec sweep v0 =
      if v0 >= total then Equivalent
      else
        let in_words = P.minterm_words ins v0 in
        let mask = P.lane_mask (total - v0) in
        match check_chunk in_words mask with
        | Some m -> m
        | None -> sweep (v0 + P.lanes)
    in
    sweep 0
  end
  else begin
    let rng = Random.State.make [| seed |] in
    let rec sweep done_ =
      if done_ >= vectors then Equivalent
      else
        let chunk = min P.lanes (vectors - done_) in
        let in_words = random_words rng ins chunk in
        match check_chunk in_words (P.lane_mask chunk) with
        | Some m -> m
        | None -> sweep (done_ + chunk)
    in
    sweep 0
  end

(* Sequential equivalence over [cycles] random input vectors applied in
   lock-step from reset, comparing outputs before each edge.  Runs are
   packed into lanes: one chunk of up to [lanes] independent runs
   advances cycle by cycle in a single pair of simulators, one settle
   per cycle (the edge after a mismatch is harmless: the simulators
   are dropped). *)
let sequential ?(cycles = 256) ?(runs = 8) ?(seed = 0x5eed) env1 d1 env2 d2 =
  validate_ports "Equiv.sequential" d1 d2;
  let ins = input_ports d1 in
  let rng = Random.State.make [| seed |] in
  let rec run_chunk r0 =
    if r0 >= runs then Equivalent
    else begin
      let chunk = min P.lanes (runs - r0) in
      let mask = P.lane_mask chunk in
      let s1 = Simulator.create env1 d1 and s2 = Simulator.create env2 d2 in
      Simulator.reset s1;
      Simulator.reset s2;
      let al = align s1 s2 in
      let rec cycle c =
        if c >= cycles then None
        else
          let in_words = random_words rng ins chunk in
          let o1 = Simulator.cycle_packed s1 in_words in
          let o2 = Simulator.cycle_packed s2 in_words in
          match mismatch ~cycle:(Some c) al in_words o1 o2 mask with
          | Some m -> Some m
          | None -> cycle (c + 1)
      in
      match cycle 0 with None -> run_chunk (r0 + chunk) | Some m -> m
    end
  in
  run_chunk 0

let is_equivalent = function Equivalent -> true | Mismatch _ -> false

let pp_result ppf = function
  | Equivalent -> Format.fprintf ppf "equivalent"
  | Mismatch { inputs; ports; cycle } ->
      let where =
        match cycle with
        | None -> ""
        | Some c -> Printf.sprintf " at cycle %d" c
      in
      Format.fprintf ppf "mismatch on %s%s under {%s}"
        (String.concat ", " ports) where
        (String.concat "; "
           (List.map (fun (p, v) -> Printf.sprintf "%s=%b" p v) inputs))
