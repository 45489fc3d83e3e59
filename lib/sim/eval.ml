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
   state alone.  The simulator's schedule takes exactly these as known
   before the inputs are; anything else (a bidirectional counter's
   COUT reads its UP pin) must wait for the levelized schedule.  This
   replaces the old "pin starts with Q" naming heuristic. *)
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

(* Word-level mirror of the scalar evaluators above: every net carries
   one native int word whose bit [l] is the value of simulation lane
   [l], so one evaluation pass settles [Packed.lanes] input vectors.
   Each component is compiled once, when a simulator is built, into
   closures over the simulator's value array: its pins resolved to
   slots, its parameters to loop bounds and tables.  Evaluating it is
   then slot reads and word operations — gates single bitwise
   operations, truth-table macros a sum of products over the word
   literals, arithmetic and comparison ripples with word-wide
   carry/borrow.  Sequential state is stored as bit-planes: plane [b]
   holds bit [b] of every lane's register.

   The scalar functions remain the reference semantics; the
   differential fuzz suite (test/sim_suite.ml) holds the two in
   lock-step. *)

module Packed = struct
  module Macro = Milo_library.Macro
  module Defs = Milo_library.Defs

  let lanes = Sys.int_size
  let zero = 0
  let ones = -1

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

  (* --- Truth-table compilation ------------------------------------------ *)

  (* A table compiles to a sum of minterm products over the word
     literals; when the on-set covers more than half the space the
     complement is compiled and the result negated.  Cached per table:
     the macros of a library recur in every design. *)
  type tt_plan = { neg : bool; terms : int array; tt_vars : int }

  let tt_plans : (Milo_boolfunc.Truth_table.t, tt_plan) Hashtbl.t =
    Hashtbl.create 256

  let plan_of_tt tt =
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
            { neg = true; terms = Array.of_list !off; tt_vars = n }
          else { neg = false; terms = Array.of_list !on; tt_vars = n }
        in
        Hashtbl.replace tt_plans tt p;
        p

  let eval_plan { neg; terms; tt_vars } (ws : int array) =
    let acc = ref 0 in
    for t = 0 to Array.length terms - 1 do
      let m = terms.(t) in
      let term = ref ones in
      for i = 0 to tt_vars - 1 do
        term :=
          !term land (if m land (1 lsl i) <> 0 then ws.(i) else lnot ws.(i))
      done;
      acc := !acc lor !term
    done;
    if neg then lnot !acc else !acc

  let eval_tt tt ws = eval_plan (plan_of_tt tt) ws

  (* --- Lane plumbing ----------------------------------------------------- *)

  let state_of_planes (planes : int array) l =
    let v = ref 0 in
    Array.iteri (fun b w -> if (w lsr l) land 1 = 1 then v := !v lor (1 lsl b)) planes;
    !v

  let planes_of_state bits v =
    Array.init bits (fun b -> if v land (1 lsl b) <> 0 then ones else zero)

  (* Per-lane evaluation for [Seq_custom], the one behaviour with no
     word-level form. *)
  let lanewise n_out eval_lane =
    let outw = Array.make n_out 0 in
    for l = 0 to lanes - 1 do
      let o = eval_lane l in
      for j = 0 to n_out - 1 do
        if o.(j) then outw.(j) <- outw.(j) lor (1 lsl l)
      done
    done;
    outw

  (* --- Compiled components ----------------------------------------------- *)

  type code = { outputs : unit -> unit; clock : unit -> unit }

  (* One word per net slot, then two more: the word every unconnected
     input reads (never written, so always 0 after a fill) and the word
     every unconnected output writes (never read). *)
  let value_array n_slots = Array.make (n_slots + 2) 0

  let comb outputs = { outputs; clock = (fun () -> ()) }

  (* [slot pin] is the pin's net slot, or -1 when it is unconnected. *)
  let port_slots vals slot =
    let zero_slot = Array.length vals - 2
    and sink_slot = Array.length vals - 1 in
    ( (fun pin ->
        let s = slot pin in
        if s < 0 then zero_slot else s),
      fun pin ->
        let s = slot pin in
        if s < 0 then sink_slot else s )

  (* Pin [prefix ^ i]'s slot for each [i < n].  Names are built with
     [^] rather than [Printf]: compiling a wide component builds
     hundreds. *)
  let bus port prefix n =
    Array.init n (fun i -> port (prefix ^ string_of_int i))

  let and_of (vals : int array) (s : int array) =
    let acc = ref ones in
    for i = 0 to Array.length s - 1 do
      acc := !acc land vals.(s.(i))
    done;
    !acc

  let or_of (vals : int array) (s : int array) =
    let acc = ref zero in
    for i = 0 to Array.length s - 1 do
      acc := !acc lor vals.(s.(i))
    done;
    !acc

  let xor_of (vals : int array) (s : int array) =
    let acc = ref zero in
    for i = 0 to Array.length s - 1 do
      acc := !acc lxor vals.(s.(i))
    done;
    !acc

  (* A gate function over the words in the given slots. *)
  let gate_of : T.gate_fn -> int array -> int array -> int = function
    | T.And -> and_of
    | T.Or -> or_of
    | T.Nand -> fun v s -> lnot (and_of v s)
    | T.Nor -> fun v s -> lnot (or_of v s)
    | T.Xor -> xor_of
    | T.Xnor -> fun v s -> lnot (xor_of v s)
    | T.Inv -> fun v s -> lnot v.(s.(0))
    | T.Buf -> fun v s -> v.(s.(0))

  (* The word on input [pin], or all ones where the kind has no such pin
     (an enable that is always on). *)
  let enable vals inp pin present =
    if present then
      let s = inp pin in
      fun () -> vals.(s)
    else fun () -> ones

  (* Word of the lanes where the select field in slots [sel] reads [v]. *)
  let field_match (vals : int array) (sel : int array) v =
    let w = ref ones in
    for i = 0 to Array.length sel - 1 do
      let bit = vals.(sel.(i)) in
      w := !w land (if v land (1 lsl i) <> 0 then bit else lnot bit)
    done;
    !w

  (* Per-function select words of a clamped function list (scalar
     semantics: [List.nth fns (min sel (len-1))]), into [acc]. *)
  let clamped_select vals sel (acc : int array) =
    let nf = Array.length acc in
    Array.fill acc 0 nf 0;
    for v = 0 to (1 lsl Array.length sel) - 1 do
      let k = min v (nf - 1) in
      acc.(k) <- acc.(k) lor field_match vals sel v
    done

  (* A counter: its outputs are the planes, and COUT where the count
     sits at its terminal value for direction [up].  On a clock edge
     [ld] loads [d], else the count moves in direction [up]; [set]
     (micro counters only), [rst] and [hold] take priority.  The
     increment adds 1 and the decrement adds all ones, each with a
     word-wide carry rippling from bit 0 up, so each plane is replaced
     right after it is read. *)
  let compile_counter vals planes ~bits ~q ~cout ~d ~ld ~up ~set ~rst ~hold =
    {
      outputs =
        (fun () ->
          let all_one = ref ones and all_zero = ref ones in
          for b = 0 to bits - 1 do
            vals.(q.(b)) <- planes.(b);
            all_one := !all_one land planes.(b);
            all_zero := !all_zero land lnot planes.(b)
          done;
          vals.(cout) <- mux2 (up ()) !all_one !all_zero);
      clock =
        (fun () ->
          let set = set () and rst = vals.(rst) and hold = hold () in
          let ld = vals.(ld) and up = up () in
          let inc_carry = ref ones and dec_carry = ref zero in
          for b = 0 to bits - 1 do
            let p = planes.(b) in
            let count =
              mux2 up (p lxor !inc_carry) (lnot (p lxor !dec_carry))
            in
            inc_carry := p land !inc_carry;
            dec_carry := p lor !dec_carry;
            planes.(b) <-
              mux2 set ones
                (mux2 rst zero (mux2 hold p (mux2 ld vals.(d.(b)) count)))
          done);
    }

  (* Compile a micro component.  [planes] is its state (sequential
     kinds only). *)
  let compile vals ~slot ~planes (kind : T.kind) =
    let inp, out = port_slots vals slot in
    let enable = enable vals inp in
    match kind with
    | T.Gate (fn, n) ->
        let ins =
          Array.init (T.gate_arity fn n) (fun i ->
              inp ("A" ^ string_of_int (i + 1)))
        and y = out "Y"
        and f = gate_of fn in
        comb (fun () -> vals.(y) <- f vals ins)
    | T.Constant level ->
        let y = out "Y" and w = if level = T.Vdd then ones else zero in
        comb (fun () -> vals.(y) <- w)
    | T.Multiplexor { bits; inputs; enable = has_en } ->
        let en = enable "EN" has_en
        and sel = bus inp "S" (T.clog2 inputs)
        and d =
          Array.init inputs (fun j ->
              bus inp ("D" ^ string_of_int j ^ "_") bits)
        and y = bus out "Y" bits
        and selw = Array.make inputs 0 in
        comb (fun () ->
            for j = 0 to inputs - 1 do
              selw.(j) <- field_match vals sel j
            done;
            let en = en () in
            for b = 0 to bits - 1 do
              let v = ref 0 in
              for j = 0 to inputs - 1 do
                v := !v lor (selw.(j) land vals.(d.(j).(b)))
              done;
              vals.(y.(b)) <- en land !v
            done)
    | T.Decoder { bits; enable = has_en } ->
        let en = enable "EN" has_en
        and a = bus inp "A" bits
        and y = bus out "Y" (1 lsl bits) in
        comb (fun () ->
            let en = en () in
            for j = 0 to Array.length y - 1 do
              vals.(y.(j)) <- en land field_match vals a j
            done)
    | T.Comparator { bits; fns } ->
        let ins = Array.append (bus inp "A" bits) (bus inp "B" bits) in
        let ws = Array.make (2 * bits) 0 and cmp = Array.make 3 0 in
        let fns = Array.of_list fns in
        let outs = Array.map (fun fn -> out (T.cmp_fn_name fn)) fns in
        comb (fun () ->
            for i = 0 to (2 * bits) - 1 do
              ws.(i) <- vals.(ins.(i))
            done;
            Defs.comparator_words bits ws cmp;
            let eq = cmp.(0) and lt = cmp.(1) and gt = cmp.(2) in
            for k = 0 to Array.length fns - 1 do
              vals.(outs.(k)) <-
                (match fns.(k) with
                | T.Eq -> eq
                | T.Ne -> lnot eq
                | T.Lt -> lt
                | T.Gt -> gt
                | T.Le -> lt lor eq
                | T.Ge -> lnot lt)
            done)
    | T.Logic_unit { bits; fn; inputs } ->
        let d =
          Array.init bits (fun b ->
              Array.init inputs (fun i ->
                  inp ("D" ^ string_of_int i ^ "_" ^ string_of_int b)))
        and y = bus out "Y" bits
        and f = gate_of fn in
        comb (fun () ->
            for b = 0 to bits - 1 do
              vals.(y.(b)) <- f vals d.(b)
            done)
    | T.Arith_unit { bits; fns; mode = _ } ->
        let a = bus inp "A" bits and b = bus inp "B" bits and cin = inp "CIN" in
        let fns = Array.of_list fns in
        let nf = Array.length fns in
        let sel = bus inp "F" (T.clog2 nf) in
        let s = bus out "S" bits and cout = out "COUT" in
        let selw = Array.make nf 0 and acc = Array.make (bits + 1) 0 in
        let ws = Array.make ((2 * bits) + 1) 0
        and sum = Array.make (bits + 1) 0 in
        comb (fun () ->
            clamped_select vals sel selw;
            Array.fill acc 0 (bits + 1) 0;
            for i = 0 to bits - 1 do
              ws.(i) <- vals.(a.(i))
            done;
            for k = 0 to nf - 1 do
              let w = selw.(k) in
              if w <> 0 then begin
                (match fns.(k) with
                | T.Add ->
                    for i = 0 to bits - 1 do
                      ws.(bits + i) <- vals.(b.(i))
                    done;
                    ws.(2 * bits) <- vals.(cin)
                | T.Sub ->
                    for i = 0 to bits - 1 do
                      ws.(bits + i) <- lnot vals.(b.(i))
                    done;
                    ws.(2 * bits) <- vals.(cin)
                | T.Inc ->
                    Array.fill ws bits bits zero;
                    ws.(2 * bits) <- ones
                | T.Dec ->
                    Array.fill ws bits bits ones;
                    ws.(2 * bits) <- zero);
                Defs.adder_words bits ws sum;
                for i = 0 to bits do
                  acc.(i) <- acc.(i) lor (w land sum.(i))
                done
              end
            done;
            for i = 0 to bits - 1 do
              vals.(s.(i)) <- acc.(i)
            done;
            vals.(cout) <- acc.(bits))
    | T.Register { bits; kind = _; fns; controls; inverting } ->
        let ctl c = List.mem c controls in
        let q = bus out "Q" bits in
        let outputs () =
          for b = 0 to bits - 1 do
            vals.(q.(b)) <- (if inverting then lnot planes.(b) else planes.(b))
          done
        in
        let d = bus inp "D" bits and sil = inp "SIL" and sir = inp "SIR" in
        let set = inp "SET" and rst = inp "RST" in
        let en = enable "EN" (ctl T.Enable) in
        let fns = Array.of_list fns in
        let nf = Array.length fns in
        let sel = bus inp "M" (T.clog2 nf) in
        let selw = Array.make nf 0 and next = Array.make bits 0 in
        let clock () =
          clamped_select vals sel selw;
          let set = vals.(set) and rst = vals.(rst) and hold = lnot (en ()) in
          for b = 0 to bits - 1 do
            let v = ref 0 in
            for k = 0 to nf - 1 do
              let w =
                match fns.(k) with
                | T.Load -> vals.(d.(b))
                | T.Shift_right ->
                    if b = bits - 1 then vals.(sir) else planes.(b + 1)
                | T.Shift_left -> if b = 0 then vals.(sil) else planes.(b - 1)
              in
              v := !v lor (selw.(k) land w)
            done;
            next.(b) <- mux2 set ones (mux2 rst zero (mux2 hold planes.(b) !v))
          done;
          Array.blit next 0 planes 0 bits
        in
        { outputs; clock }
    | T.Counter { bits; fns; controls } ->
        let has f = List.mem f fns and ctl c = List.mem c controls in
        let both = has T.Count_up && has T.Count_down in
        let up =
          if both then enable "UP" true
          else if has T.Count_up then fun () -> ones
          else fun () -> zero
        in
        let set = inp "SET" in
        let en = enable "EN" (ctl T.Enable) in
        compile_counter vals planes ~bits ~q:(bus out "Q" bits)
          ~cout:(out "COUT") ~d:(bus inp "D" bits) ~ld:(inp "LD") ~up
          ~set:(fun () -> vals.(set))
          ~rst:(inp "RST")
          ~hold:(fun () -> lnot (en ()))
    | T.Macro _ | T.Instance _ ->
        invalid_arg "Eval.Packed.compile: not a micro component"

  (* Compile a library macro.  [planes] is its state (sequential
     behaviours only). *)
  let compile_macro vals ~slot ~planes (m : Macro.t) =
    let inp, out = port_slots vals slot in
    let read_inputs () =
      let ins = Array.of_list (List.map inp m.Macro.inputs) in
      let ws = Array.make (Array.length ins) 0 in
      ( ws,
        fun () ->
          for i = 0 to Array.length ins - 1 do
            ws.(i) <- vals.(ins.(i))
          done )
    in
    match m.Macro.behavior with
    | Macro.Combinational outs ->
        let ws, read = read_inputs () in
        (* Only connected outputs are evaluated. *)
        let plans =
          Array.of_list
            (List.filter_map
               (fun (pin, tt) ->
                 let s = slot pin in
                 if s < 0 then None else Some (s, plan_of_tt tt))
               outs)
        in
        comb (fun () ->
            read ();
            for k = 0 to Array.length plans - 1 do
              let s, p = plans.(k) in
              vals.(s) <- eval_plan p ws
            done)
    | Macro.Comb_eval { eval_words; _ } ->
        let ws, read = read_inputs () in
        let outs = Array.of_list (List.map out m.Macro.outputs) in
        let outw = Array.make (Array.length outs) 0 in
        comb (fun () ->
            read ();
            eval_words ws outw;
            for j = 0 to Array.length outs - 1 do
              vals.(outs.(j)) <- outw.(j)
            done)
    | Macro.Seq_dff
        { data; latch = _; has_set = _; has_reset = _; has_enable; inverting }
      ->
        let q = out "Q" in
        let outputs () =
          vals.(q) <- (if inverting then lnot planes.(0) else planes.(0))
        in
        let set = inp "SET" and rst = inp "RST" in
        let en = enable vals inp "EN" has_enable in
        let data =
          match data with
          | Macro.Direct ->
              let d = inp "D" in
              fun () -> vals.(d)
          | Macro.Muxed n ->
              let d = bus inp "D" n and sel = bus inp "S" (T.clog2 n) in
              fun () ->
                let v = ref 0 in
                for j = 0 to n - 1 do
                  v := !v lor (field_match vals sel j land vals.(d.(j)))
                done;
                !v
        in
        let clock () =
          planes.(0) <-
            mux2 vals.(set) ones
              (mux2 vals.(rst) zero (mux2 (lnot (en ())) planes.(0) (data ())))
        in
        { outputs; clock }
    | Macro.Seq_counter
        { bits; has_load = _; has_updown; has_reset = _; has_enable } ->
        let en = enable vals inp "EN" has_enable in
        compile_counter vals planes ~bits ~q:(bus out "Q" bits)
          ~cout:(out "COUT") ~d:(bus inp "D" bits) ~ld:(inp "LD")
          ~up:(enable vals inp "UP" has_updown)
          ~set:(fun () -> zero)
          ~rst:(inp "RST")
          ~hold:(fun () -> lnot (en ()))
    | Macro.Seq_custom { state_bits; custom_outputs; custom_next; _ } ->
        (* Lane by lane through the scalar closures, which read pins by
           name. *)
        let conns =
          List.filter_map
            (fun (pin, _) ->
              let s = slot pin in
              if s < 0 then None else Some (pin, s))
            m.Macro.pins
        in
        let lane_pins l =
          List.map (fun (pin, s) -> (pin, (vals.(s) lsr l) land 1 = 1)) conns
        in
        let names = Array.of_list m.Macro.outputs in
        let outs = Array.map out names in
        let outputs () =
          let outw =
            lanewise (Array.length names) (fun l ->
                let o =
                  custom_outputs ~state:(state_of_planes planes l) (lane_pins l)
                in
                Array.map
                  (fun p -> Option.value ~default:false (List.assoc_opt p o))
                  names)
          in
          Array.iteri (fun j s -> vals.(s) <- outw.(j)) outs
        in
        let clock () =
          let next = Array.make state_bits 0 in
          for l = 0 to lanes - 1 do
            let v =
              custom_next ~state:(state_of_planes planes l) (lane_pins l)
            in
            for b = 0 to state_bits - 1 do
              if v land (1 lsl b) <> 0 then next.(b) <- next.(b) lor (1 lsl l)
            done
          done;
          Array.blit next 0 planes 0
            (min state_bits (Array.length planes))
        in
        { outputs; clock }
end
