(* Behavioural semantics of the microarchitecture component kinds.

   These definitions are the reference the compiled (gate-level) designs
   are checked against: an Arith_unit *means* add/subtract/increment/
   decrement, independent of how the logic compilers expand it. *)

module T = Milo_netlist.Types

type pin_values = (string * bool) list

let get pins pin =
  match List.assoc_opt pin pins with Some v -> v | None -> false

let bus pins prefix bits =
  let v = ref 0 in
  for b = 0 to bits - 1 do
    if get pins (Printf.sprintf "%s%d" prefix b) then v := !v lor (1 lsl b)
  done;
  !v

let bus_out prefix bits v =
  List.init bits (fun b -> (Printf.sprintf "%s%d" prefix b, v land (1 lsl b) <> 0))

let mask bits = (1 lsl bits) - 1

let select pins prefix count =
  (* Decode a one-of-n select field of clog2 count bits. *)
  let s = T.clog2 count in
  let v = ref 0 in
  for i = 0 to s - 1 do
    if get pins (Printf.sprintf "%s%d" prefix i) then v := !v lor (1 lsl i)
  done;
  !v

let gate_inputs pins n = Array.init n (fun i -> get pins (Printf.sprintf "A%d" (i + 1)))

(* Outputs of a combinational micro component given its input pins. *)
let comb_outputs (kind : T.kind) (pins : pin_values) : pin_values =
  match kind with
  | T.Gate (fn, n) ->
      let n = T.gate_arity fn n in
      [ ("Y", Milo_library.Defs.gate_semantics fn (gate_inputs pins n)) ]
  | T.Constant T.Vdd -> [ ("Y", true) ]
  | T.Constant T.Vss -> [ ("Y", false) ]
  | T.Multiplexor { bits; inputs; enable } ->
      let en = (not enable) || get pins "EN" in
      let sel = select pins "S" inputs in
      List.init bits (fun b ->
          let v =
            en && sel < inputs && get pins (Printf.sprintf "D%d_%d" sel b)
          in
          (Printf.sprintf "Y%d" b, v))
  | T.Decoder { bits; enable } ->
      let en = (not enable) || get pins "EN" in
      let a = bus pins "A" bits in
      List.init (1 lsl bits) (fun j -> (Printf.sprintf "Y%d" j, en && a = j))
  | T.Comparator { bits; fns } ->
      let a = bus pins "A" bits and b = bus pins "B" bits in
      List.map
        (fun fn ->
          let v =
            match fn with
            | T.Eq -> a = b
            | T.Ne -> a <> b
            | T.Lt -> a < b
            | T.Gt -> a > b
            | T.Le -> a <= b
            | T.Ge -> a >= b
          in
          (T.cmp_fn_name fn, v))
        fns
  | T.Logic_unit { bits; fn; inputs } ->
      List.init bits (fun b ->
          let arr =
            Array.init inputs (fun i -> get pins (Printf.sprintf "D%d_%d" i b))
          in
          (Printf.sprintf "Y%d" b, Milo_library.Defs.gate_semantics fn arr))
  | T.Arith_unit { bits; fns; mode = _ } ->
      let a = bus pins "A" bits and b = bus pins "B" bits in
      let cin = if get pins "CIN" then 1 else 0 in
      let fi = select pins "F" (List.length fns) in
      let fn = List.nth fns (min fi (List.length fns - 1)) in
      let raw =
        match fn with
        | T.Add -> a + b + cin
        | T.Sub -> a + (lnot b land mask bits) + cin
        | T.Inc -> a + 1
        | T.Dec -> a + mask bits
      in
      bus_out "S" bits raw @ [ ("COUT", raw land (1 lsl bits) <> 0) ]
  | T.Register _ | T.Counter _ | T.Macro _ | T.Instance _ ->
      invalid_arg "Eval.comb_outputs: not a combinational micro component"

(* Next state of a sequential micro component.  [state] is the register
   contents as an integer; the implicit global clock has just risen. *)
let next_state (kind : T.kind) ~(state : int) (pins : pin_values) : int =
  match kind with
  | T.Register { bits; kind = _; fns; controls; inverting = _ } ->
      let ctl c = List.mem c controls in
      if ctl T.Set && get pins "SET" then mask bits
      else if ctl T.Reset && get pins "RST" then 0
      else if ctl T.Enable && not (get pins "EN") then state
      else
        let mi = select pins "M" (List.length fns) in
        let fn = List.nth fns (min mi (List.length fns - 1)) in
        (match fn with
        | T.Load -> bus pins "D" bits
        | T.Shift_right ->
            (state lsr 1)
            lor (if get pins "SIR" then 1 lsl (bits - 1) else 0)
        | T.Shift_left ->
            ((state lsl 1) land mask bits) lor (if get pins "SIL" then 1 else 0))
  | T.Counter { bits; fns; controls } ->
      let has f = List.mem f fns and ctl c = List.mem c controls in
      if ctl T.Set && get pins "SET" then mask bits
      else if ctl T.Reset && get pins "RST" then 0
      else if ctl T.Enable && not (get pins "EN") then state
      else if has T.Count_load && get pins "LD" then bus pins "D" bits
      else
        let up =
          if has T.Count_up && has T.Count_down then get pins "UP"
          else has T.Count_up
        in
        if up then (state + 1) land mask bits
        else (state - 1) land mask bits
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Constant _ | T.Macro _ | T.Instance _ ->
      invalid_arg "Eval.next_state: not a sequential micro component"

(* Present outputs of a sequential micro component from its state. *)
let seq_outputs (kind : T.kind) ~(state : int) (pins : pin_values) : pin_values
    =
  match kind with
  | T.Register { bits; inverting; _ } ->
      let v = if inverting then lnot state land mask bits else state in
      bus_out "Q" bits v
  | T.Counter { bits; fns; _ } ->
      let has f = List.mem f fns in
      let up =
        if has T.Count_up && has T.Count_down then get pins "UP"
        else has T.Count_up
      in
      let terminal = if up then state = mask bits else state = 0 in
      bus_out "Q" bits state @ [ ("COUT", terminal) ]
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Constant _ | T.Macro _ | T.Instance _ ->
      invalid_arg "Eval.seq_outputs: not a sequential micro component"

(* Macro semantics. *)

let macro_comb_outputs (m : Milo_library.Macro.t) (pins : pin_values) :
    pin_values =
  let input = Array.of_list (List.map (get pins) m.Milo_library.Macro.inputs) in
  let out = Milo_library.Macro.eval_comb m input in
  List.mapi (fun i o -> (o, out.(i))) m.Milo_library.Macro.outputs

let macro_next_state (m : Milo_library.Macro.t) ~(state : int)
    (pins : pin_values) : int =
  match m.Milo_library.Macro.behavior with
  | Milo_library.Macro.Seq_dff
      { data; latch = _; has_set; has_reset; has_enable; inverting = _ } ->
      if has_set && get pins "SET" then 1
      else if has_reset && get pins "RST" then 0
      else if has_enable && not (get pins "EN") then state
      else
        let d =
          match data with
          | Milo_library.Macro.Direct -> get pins "D"
          | Milo_library.Macro.Muxed n ->
              let sel = select pins "S" n in
              sel < n && get pins (Printf.sprintf "D%d" sel)
        in
        if d then 1 else 0
  | Milo_library.Macro.Seq_counter
      { bits; has_load; has_updown; has_reset; has_enable } ->
      if has_reset && get pins "RST" then 0
      else if has_enable && not (get pins "EN") then state
      else if has_load && get pins "LD" then bus pins "D" bits
      else
        let up = (not has_updown) || get pins "UP" in
        if up then (state + 1) land mask bits else (state - 1) land mask bits
  | Milo_library.Macro.Seq_custom { custom_next; _ } -> custom_next ~state pins
  | Milo_library.Macro.Combinational _ | Milo_library.Macro.Comb_eval _ ->
      invalid_arg "Eval.macro_next_state: combinational macro"

let macro_seq_outputs (m : Milo_library.Macro.t) ~(state : int)
    (pins : pin_values) : pin_values =
  match m.Milo_library.Macro.behavior with
  | Milo_library.Macro.Seq_dff { inverting; _ } ->
      [ ("Q", if inverting then state = 0 else state = 1) ]
  | Milo_library.Macro.Seq_counter { bits; has_updown; _ } ->
      let up = (not has_updown) || get pins "UP" in
      let terminal = if up then state = mask bits else state = 0 in
      bus_out "Q" bits state @ [ ("COUT", terminal) ]
  | Milo_library.Macro.Seq_custom { custom_outputs; _ } ->
      custom_outputs ~state pins
  | Milo_library.Macro.Combinational _ | Milo_library.Macro.Comb_eval _ ->
      invalid_arg "Eval.macro_seq_outputs: combinational macro"

(* --- State-only-output metadata ----------------------------------------- *)

(* The outputs of a sequential component that depend on the stored
   state alone.  The simulator seeds exactly these before the inputs
   are known; anything else (a bidirectional counter's COUT reads its
   UP pin) must wait for the levelized schedule.  This replaces the
   old "pin starts with Q" naming heuristic. *)
let state_only_outputs (kind : T.kind) : string list =
  match kind with
  | T.Register { bits; _ } -> List.init bits (fun b -> Printf.sprintf "Q%d" b)
  | T.Counter { bits; fns; _ } ->
      let has f = List.mem f fns in
      List.init bits (fun b -> Printf.sprintf "Q%d" b)
      @ (if has T.Count_up && has T.Count_down then [] else [ "COUT" ])
  | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _ | T.Logic_unit _
  | T.Arith_unit _ | T.Constant _ | T.Macro _ | T.Instance _ ->
      []

let state_bits (kind : T.kind) : int =
  match kind with
  | T.Register { bits; _ } | T.Counter { bits; _ } -> bits
  | _ -> 0

(* --- Bit-parallel (packed) semantics ------------------------------------ *)

(* Word-level mirror of the scalar evaluators above: every pin carries
   one native int word whose bit [l] is the value of simulation lane
   [l], so one evaluation pass settles [Packed.lanes] input vectors.
   Gates become single bitwise operations; truth-table macros are
   compiled once into a sum-of-products over the word literals (cached
   per table); arithmetic and comparison kinds ripple over bit-planes
   with word-wide carry/borrow.  Sequential state is stored as
   bit-planes: plane [b] holds bit [b] of every lane's register.

   The scalar functions remain the reference semantics; the
   differential fuzz suite (test/sim_suite.ml) holds the two in
   lock-step. *)

module Packed = struct
  module Macro = Milo_library.Macro

  let lanes = Sys.int_size
  let zero = 0
  let ones = -1

  type pin_words = (string * int) list

  let getw pins pin =
    match List.assoc_opt pin pins with Some w -> w | None -> 0

  let lane_mask n = if n >= lanes then ones else (1 lsl n) - 1

  let first_lane w =
    let rec go l = if w land (1 lsl l) <> 0 then l else go (l + 1) in
    go 0

  (* Lane [l] of key [i]'s word is bit [i] of minterm [base + l], on
     every lane: callers mask the lanes past the last minterm. *)
  let minterm_words keys base =
    List.mapi
      (fun i k ->
        let w = ref 0 in
        for l = 0 to lanes - 1 do
          if (base + l) lsr i land 1 <> 0 then w := !w lor (1 lsl l)
        done;
        (k, !w))
      keys

  (* (c & a) | (~c & b): per-lane if-then-else. *)
  let mux2 c a b = c land a lor (lnot c land b)

  let busw pins prefix bits =
    Array.init bits (fun b -> getw pins (Printf.sprintf "%s%d" prefix b))

  let bus_outw prefix (planes : int array) =
    Array.to_list
      (Array.mapi (fun b w -> (Printf.sprintf "%s%d" prefix b, w)) planes)

  (* Word where the [s]-bit select field [prefix0..] equals [v]. *)
  let field_match pins prefix s v =
    let w = ref ones in
    for i = 0 to s - 1 do
      let bit = getw pins (Printf.sprintf "%s%d" prefix i) in
      w := !w land (if v land (1 lsl i) <> 0 then bit else lnot bit)
    done;
    !w

  (* Per-function select words for a clamped function list (scalar
     semantics: [List.nth fns (min sel (len-1))]). *)
  let clamped_variants pins prefix fns =
    let nf = List.length fns in
    let s = T.clog2 nf in
    let acc = Array.make nf 0 in
    for v = 0 to (1 lsl s) - 1 do
      let k = min v (nf - 1) in
      acc.(k) <- acc.(k) lor field_match pins prefix s v
    done;
    List.mapi (fun k fn -> (fn, acc.(k))) fns

  let gate_fn_words (fn : T.gate_fn) (ws : int array) =
    let fold op init = Array.fold_left op init ws in
    match fn with
    | T.And -> fold ( land ) ones
    | T.Or -> fold ( lor ) zero
    | T.Nand -> lnot (fold ( land ) ones)
    | T.Nor -> lnot (fold ( lor ) zero)
    | T.Xor -> fold ( lxor ) zero
    | T.Xnor -> lnot (fold ( lxor ) zero)
    | T.Inv -> lnot ws.(0)
    | T.Buf -> ws.(0)

  (* Word-wide ripple adder over bit-planes: [d] is the effective
     addend per bit, [c0] the incoming carry word. *)
  let add_planes bits (a : int array) (d : int -> int) c0 =
    let s = Array.make bits 0 in
    let c = ref c0 in
    for b = 0 to bits - 1 do
      let ab = a.(b) and db = d b in
      s.(b) <- ab lxor db lxor !c;
      c := ab land db lor (!c land (ab lxor db))
    done;
    (s, !c)

  (* eq / lt words for two little-endian bus arrays. *)
  let compare_planes bits (a : int array) (b : int array) =
    let eq = ref ones and lt = ref 0 in
    for i = bits - 1 downto 0 do
      lt := !lt lor (!eq land lnot a.(i) land b.(i));
      eq := !eq land lnot (a.(i) lxor b.(i))
    done;
    (!eq, !lt)

  (* --- Truth-table compilation ------------------------------------------ *)

  (* A table compiles to a sum of minterm products over the word
     literals; when the on-set covers more than half the space the
     complement is compiled and the result negated.  Cached per table:
     a design evaluates the same macros every pass. *)
  type tt_plan = { neg : bool; terms : int list; tt_vars : int }

  let tt_plans : (Milo_boolfunc.Truth_table.t, tt_plan) Hashtbl.t =
    Hashtbl.create 256

  let compile_tt tt =
    match Hashtbl.find_opt tt_plans tt with
    | Some p -> p
    | None ->
        let module TT = Milo_boolfunc.Truth_table in
        let n = TT.vars tt in
        let size = 1 lsl n in
        let on = ref [] and off = ref [] in
        for m = size - 1 downto 0 do
          if TT.eval_index tt m then on := m :: !on else off := m :: !off
        done;
        let p =
          if List.length !on * 2 > size then
            { neg = true; terms = !off; tt_vars = n }
          else { neg = false; terms = !on; tt_vars = n }
        in
        Hashtbl.replace tt_plans tt p;
        p

  let eval_tt tt (ws : int array) =
    let { neg; terms; tt_vars } = compile_tt tt in
    let acc = ref 0 in
    List.iter
      (fun m ->
        let term = ref ones in
        for i = 0 to tt_vars - 1 do
          term :=
            !term land (if m land (1 lsl i) <> 0 then ws.(i) else lnot ws.(i))
        done;
        acc := !acc lor !term)
      terms;
    if neg then lnot !acc else !acc

  (* --- Lane plumbing ----------------------------------------------------- *)

  let lane_of_words (ws : int array) l =
    Array.map (fun w -> (w lsr l) land 1 = 1) ws

  let state_of_planes (planes : int array) l =
    let v = ref 0 in
    Array.iteri (fun b w -> if (w lsr l) land 1 = 1 then v := !v lor (1 lsl b)) planes;
    !v

  let planes_of_state bits v =
    Array.init bits (fun b -> if v land (1 lsl b) <> 0 then ones else zero)

  (* Per-lane fallback for behaviours with no word-level form
     ([Comb_eval], [Seq_custom]): still amortizes the netlist
     traversal over the whole word. *)
  let lanewise n_out eval_lane =
    let outw = Array.make n_out 0 in
    for l = 0 to lanes - 1 do
      let o = eval_lane l in
      for j = 0 to n_out - 1 do
        if o.(j) then outw.(j) <- outw.(j) lor (1 lsl l)
      done
    done;
    outw

  (* --- Combinational kinds ----------------------------------------------- *)

  let comb_outputs (kind : T.kind) (pins : pin_words) : pin_words =
    match kind with
    | T.Gate (fn, n) ->
        let n = T.gate_arity fn n in
        let ws =
          Array.init n (fun i -> getw pins (Printf.sprintf "A%d" (i + 1)))
        in
        [ ("Y", gate_fn_words fn ws) ]
    | T.Constant T.Vdd -> [ ("Y", ones) ]
    | T.Constant T.Vss -> [ ("Y", zero) ]
    | T.Multiplexor { bits; inputs; enable } ->
        let en = if enable then getw pins "EN" else ones in
        let s = T.clog2 inputs in
        let sel = Array.init inputs (fun j -> field_match pins "S" s j) in
        List.init bits (fun b ->
            let v = ref 0 in
            for j = 0 to inputs - 1 do
              v := !v lor (sel.(j) land getw pins (Printf.sprintf "D%d_%d" j b))
            done;
            (Printf.sprintf "Y%d" b, en land !v))
    | T.Decoder { bits; enable } ->
        let en = if enable then getw pins "EN" else ones in
        List.init (1 lsl bits) (fun j ->
            (Printf.sprintf "Y%d" j, en land field_match pins "A" bits j))
    | T.Comparator { bits; fns } ->
        let a = busw pins "A" bits and b = busw pins "B" bits in
        let eq, lt = compare_planes bits a b in
        List.map
          (fun fn ->
            let v =
              match fn with
              | T.Eq -> eq
              | T.Ne -> lnot eq
              | T.Lt -> lt
              | T.Gt -> lnot (lt lor eq)
              | T.Le -> lt lor eq
              | T.Ge -> lnot lt
            in
            (T.cmp_fn_name fn, v))
          fns
    | T.Logic_unit { bits; fn; inputs } ->
        List.init bits (fun b ->
            let ws =
              Array.init inputs (fun i ->
                  getw pins (Printf.sprintf "D%d_%d" i b))
            in
            (Printf.sprintf "Y%d" b, gate_fn_words fn ws))
    | T.Arith_unit { bits; fns; mode = _ } ->
        let a = busw pins "A" bits and bw = busw pins "B" bits in
        let cin = getw pins "CIN" in
        let sums = Array.make bits 0 and cout = ref 0 in
        List.iter
          (fun (fn, selw) ->
            if selw <> 0 then begin
              let d, c0 =
                match fn with
                | T.Add -> ((fun b -> bw.(b)), cin)
                | T.Sub -> ((fun b -> lnot bw.(b)), cin)
                | T.Inc -> ((fun _ -> zero), ones)
                | T.Dec -> ((fun _ -> ones), zero)
              in
              let s, c = add_planes bits a d c0 in
              Array.iteri
                (fun b w -> sums.(b) <- sums.(b) lor (selw land w))
                s;
              cout := !cout lor (selw land c)
            end)
          (clamped_variants pins "F" fns);
        bus_outw "S" sums @ [ ("COUT", !cout) ]
    | T.Register _ | T.Counter _ | T.Macro _ | T.Instance _ ->
        invalid_arg "Eval.Packed.comb_outputs: not a combinational micro \
                     component"

  (* --- Sequential kinds (state as bit-planes) ----------------------------- *)

  let seq_outputs (kind : T.kind) ~(planes : int array) (pins : pin_words) :
      pin_words =
    match kind with
    | T.Register { bits; inverting; _ } ->
        bus_outw "Q" (Array.init bits (fun b ->
            if inverting then lnot planes.(b) else planes.(b)))
    | T.Counter { bits = _; fns; _ } ->
        let has f = List.mem f fns in
        let up =
          if has T.Count_up && has T.Count_down then getw pins "UP"
          else if has T.Count_up then ones
          else zero
        in
        let all_one = Array.fold_left ( land ) ones planes in
        let all_zero =
          Array.fold_left (fun acc w -> acc land lnot w) ones planes
        in
        bus_outw "Q" (Array.copy planes)
        @ [ ("COUT", mux2 up all_one all_zero) ]
    | _ -> invalid_arg "Eval.Packed.seq_outputs: not a sequential micro \
                        component"

  let next_planes (kind : T.kind) ~(planes : int array) (pins : pin_words) :
      int array =
    match kind with
    | T.Register { bits; kind = _; fns; controls; inverting = _ } ->
        let ctl c = List.mem c controls in
        let set = if ctl T.Set then getw pins "SET" else zero in
        let rst = if ctl T.Reset then getw pins "RST" else zero in
        let hold = if ctl T.Enable then lnot (getw pins "EN") else zero in
        let variants = clamped_variants pins "M" fns in
        Array.init bits (fun b ->
            let fnv = ref 0 in
            List.iter
              (fun (fn, selw) ->
                let v =
                  match fn with
                  | T.Load -> getw pins (Printf.sprintf "D%d" b)
                  | T.Shift_right ->
                      if b = bits - 1 then getw pins "SIR" else planes.(b + 1)
                  | T.Shift_left ->
                      if b = 0 then getw pins "SIL" else planes.(b - 1)
                in
                fnv := !fnv lor (selw land v))
              variants;
            mux2 set ones (mux2 rst zero (mux2 hold planes.(b) !fnv)))
    | T.Counter { bits; fns; controls } ->
        let has f = List.mem f fns and ctl c = List.mem c controls in
        let set = if ctl T.Set then getw pins "SET" else zero in
        let rst = if ctl T.Reset then getw pins "RST" else zero in
        let hold = if ctl T.Enable then lnot (getw pins "EN") else zero in
        let ld = if has T.Count_load then getw pins "LD" else zero in
        let up =
          if has T.Count_up && has T.Count_down then getw pins "UP"
          else if has T.Count_up then ones
          else zero
        in
        let inc, _ =
          add_planes bits planes (fun _ -> zero) ones
        in
        let dec, _ = add_planes bits planes (fun _ -> ones) zero in
        Array.init bits (fun b ->
            let count = mux2 up inc.(b) dec.(b) in
            let loaded = mux2 ld (getw pins (Printf.sprintf "D%d" b)) count in
            mux2 set ones (mux2 rst zero (mux2 hold planes.(b) loaded)))
    | _ ->
        invalid_arg "Eval.Packed.next_planes: not a sequential micro \
                     component"

  (* --- Macro semantics ---------------------------------------------------- *)

  let macro_comb_outputs (m : Macro.t) (pins : pin_words) : pin_words =
    match m.Macro.behavior with
    | Macro.Combinational outs ->
        let ws = Array.of_list (List.map (getw pins) m.Macro.inputs) in
        List.map (fun (pin, tt) -> (pin, eval_tt tt ws)) outs
    | Macro.Comb_eval f ->
        let ws = Array.of_list (List.map (getw pins) m.Macro.inputs) in
        let outw = lanewise (List.length m.Macro.outputs)
            (fun l -> f (lane_of_words ws l)) in
        List.mapi (fun j o -> (o, outw.(j))) m.Macro.outputs
    | Macro.Seq_dff _ | Macro.Seq_counter _ | Macro.Seq_custom _ ->
        invalid_arg "Eval.Packed.macro_comb_outputs: sequential macro"

  let macro_seq_outputs (m : Macro.t) ~(planes : int array)
      (pins : pin_words) : pin_words =
    match m.Macro.behavior with
    | Macro.Seq_dff { inverting; _ } ->
        [ ("Q", if inverting then lnot planes.(0) else planes.(0)) ]
    | Macro.Seq_counter { bits; has_updown; _ } ->
        let up = if has_updown then getw pins "UP" else ones in
        let all_one = Array.fold_left ( land ) ones planes in
        let all_zero =
          Array.fold_left (fun acc w -> acc land lnot w) ones planes
        in
        bus_outw "Q" (Array.init bits (fun b -> planes.(b)))
        @ [ ("COUT", mux2 up all_one all_zero) ]
    | Macro.Seq_custom { custom_outputs; _ } ->
        let pin_names = List.map fst pins in
        let words = Array.of_list (List.map snd pins) in
        let outw =
          lanewise (List.length m.Macro.outputs) (fun l ->
              let lane_pins =
                List.mapi
                  (fun i p -> (p, (words.(i) lsr l) land 1 = 1))
                  pin_names
              in
              let outs =
                custom_outputs ~state:(state_of_planes planes l) lane_pins
              in
              Array.of_list
                (List.map
                   (fun o ->
                     match List.assoc_opt o outs with
                     | Some v -> v
                     | None -> false)
                   m.Macro.outputs))
        in
        List.mapi (fun j o -> (o, outw.(j))) m.Macro.outputs
    | Macro.Combinational _ | Macro.Comb_eval _ ->
        invalid_arg "Eval.Packed.macro_seq_outputs: combinational macro"

  let macro_next_planes (m : Macro.t) ~(planes : int array)
      (pins : pin_words) : int array =
    match m.Macro.behavior with
    | Macro.Seq_dff { data; latch = _; has_set; has_reset; has_enable;
                      inverting = _ } ->
        let set = if has_set then getw pins "SET" else zero in
        let rst = if has_reset then getw pins "RST" else zero in
        let hold = if has_enable then lnot (getw pins "EN") else zero in
        let d =
          match data with
          | Macro.Direct -> getw pins "D"
          | Macro.Muxed n ->
              let s = T.clog2 n in
              let v = ref 0 in
              for j = 0 to n - 1 do
                v :=
                  !v
                  lor (field_match pins "S" s j
                       land getw pins (Printf.sprintf "D%d" j))
              done;
              !v
        in
        [| mux2 set ones (mux2 rst zero (mux2 hold planes.(0) d)) |]
    | Macro.Seq_counter { bits; has_load; has_updown; has_reset; has_enable }
      ->
        let rst = if has_reset then getw pins "RST" else zero in
        let hold = if has_enable then lnot (getw pins "EN") else zero in
        let ld = if has_load then getw pins "LD" else zero in
        let up = if has_updown then getw pins "UP" else ones in
        let inc, _ = add_planes bits planes (fun _ -> zero) ones in
        let dec, _ = add_planes bits planes (fun _ -> ones) zero in
        Array.init bits (fun b ->
            let count = mux2 up inc.(b) dec.(b) in
            let loaded = mux2 ld (getw pins (Printf.sprintf "D%d" b)) count in
            mux2 rst zero (mux2 hold planes.(b) loaded))
    | Macro.Seq_custom { state_bits; custom_next; _ } ->
        let pin_names = List.map fst pins in
        let words = Array.of_list (List.map snd pins) in
        let next = Array.make state_bits 0 in
        for l = 0 to lanes - 1 do
          let lane_pins =
            List.mapi (fun i p -> (p, (words.(i) lsr l) land 1 = 1)) pin_names
          in
          let v = custom_next ~state:(state_of_planes planes l) lane_pins in
          for b = 0 to state_bits - 1 do
            if v land (1 lsl b) <> 0 then next.(b) <- next.(b) lor (1 lsl l)
          done
        done;
        next
    | Macro.Combinational _ | Macro.Comb_eval _ ->
        invalid_arg "Eval.Packed.macro_next_planes: combinational macro"
end
