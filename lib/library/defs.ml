(* Shared constructors for macro definitions across the generic, ECL and
   CMOS libraries. *)

open Milo_boolfunc
module T = Milo_netlist.Types

let gate_pins n = T.range_pins "A" n T.Input @ [ ("Y", T.Output) ]
(* Gate macro pins are A0..A(n-1) then Y. *)

let gate_semantics (fn : T.gate_fn) (input : bool array) =
  let fold op init = Array.fold_left op init input in
  match fn with
  | T.And -> fold ( && ) true
  | T.Or -> fold ( || ) false
  | T.Nand -> not (fold ( && ) true)
  | T.Nor -> not (fold ( || ) false)
  | T.Xor -> fold ( <> ) false
  | T.Xnor -> not (fold ( <> ) false)
  | T.Inv -> not input.(0)
  | T.Buf -> input.(0)

(* Gate functions are classified by comparing a macro's table against
   these, once per component per scan, so every table over arities
   1..max_vars is built once here.  They are immutable, so every domain
   shares them; other arities are enumerated on demand. *)
let gate_fn_index : T.gate_fn -> int = function
  | T.And -> 0
  | T.Or -> 1
  | T.Nand -> 2
  | T.Nor -> 3
  | T.Xor -> 4
  | T.Xnor -> 5
  | T.Inv -> 6
  | T.Buf -> 7

let gate_tables =
  Array.map
    (fun fn ->
      Array.init Truth_table.max_vars (fun i ->
          Truth_table.of_fun (i + 1) (gate_semantics fn)))
    [| T.And; T.Or; T.Nand; T.Nor; T.Xor; T.Xnor; T.Inv; T.Buf |]

let gate_tt fn n =
  if n >= 1 && n <= Truth_table.max_vars then
    gate_tables.(gate_fn_index fn).(n - 1)
  else Truth_table.of_fun n (gate_semantics fn)

let gate ?power_level ?base_name ?drive ?load ~delay ~area ~power ~gates name
    fn n =
  Macro.make ?power_level ?base_name ?drive ?load ~delay ~area ~power ~gates
    ~symmetric:(if n > 1 then [ List.init n (fun i -> Printf.sprintf "A%d" i) ] else [])
    name (gate_pins n)
    (Macro.Combinational [ ("Y", gate_tt fn n) ])

(* n-to-1 single-bit multiplexor: D0..D(n-1), S0..S(s-1), Y. *)
let mux_pins n =
  let s = T.clog2 n in
  T.range_pins "D" n T.Input @ T.range_pins "S" s T.Input @ [ ("Y", T.Output) ]

let mux_fun n =
  let s = T.clog2 n in
  Truth_table.of_fun (n + s) (fun a ->
      let sel = ref 0 in
      for i = 0 to s - 1 do
        if a.(n + i) then sel := !sel lor (1 lsl i)
      done;
      if !sel < n then a.(!sel) else false)

(* The 2:1 and 4:1 tables are what mux recognition compares against. *)
let mux2_tt = mux_fun 2
let mux4_tt = mux_fun 4
let mux_tt n = match n with 2 -> mux2_tt | 4 -> mux4_tt | _ -> mux_fun n

let mux ~delay ~area ~power ~gates name n =
  Macro.make ~delay ~area ~power ~gates name (mux_pins n)
    (Macro.Combinational [ ("Y", mux_tt n) ])

(* k-to-2^k decoder, optionally with enable. *)
let decoder_pins k enable =
  T.range_pins "A" k T.Input
  @ (if enable then [ ("EN", T.Input) ] else [])
  @ T.range_pins "Y" (1 lsl k) T.Output

let decoder ~delay ~area ~power ~gates name k enable =
  let nin = k + if enable then 1 else 0 in
  let out j =
    Truth_table.of_fun nin (fun a ->
        let v = ref 0 in
        for i = 0 to k - 1 do
          if a.(i) then v := !v lor (1 lsl i)
        done;
        let en = (not enable) || a.(k) in
        en && !v = j)
  in
  Macro.make ~delay ~area ~power ~gates name (decoder_pins k enable)
    (Macro.Combinational
       (List.init (1 lsl k) (fun j -> (Printf.sprintf "Y%d" j, out j))))

(* Full adder: A B CIN -> S COUT. *)
let full_adder ~delay ~area ~power ~gates name =
  let s = Truth_table.of_fun 3 (fun a -> a.(0) <> a.(1) <> a.(2)) in
  let co =
    Truth_table.of_fun 3 (fun a ->
        (a.(0) && a.(1)) || (a.(2) && (a.(0) <> a.(1))))
  in
  Macro.make ~delay ~area ~power ~gates name
    [ ("A", T.Input); ("B", T.Input); ("CIN", T.Input);
      ("S", T.Output); ("COUT", T.Output) ]
    (Macro.Combinational [ ("S", s); ("COUT", co) ])
    |> fun m -> { m with Macro.symmetric = [ [ "A"; "B" ] ] }

(* w-bit adder: A0.. B0.. CIN -> S0.. COUT.  [stage] is the per-stage
   ripple delay; [flat] a carry-lookahead-style constant part. *)
let adder_arcs w ~stage ~flat ~ripple =
  let s j = Printf.sprintf "S%d" j in
  let arcs = ref [] in
  let add a b d = arcs := ((a, b), d) :: !arcs in
  for i = 0 to w - 1 do
    let ai = Printf.sprintf "A%d" i and bi = Printf.sprintf "B%d" i in
    for j = i to w - 1 do
      let d =
        if ripple then flat +. (stage *. float_of_int (j - i))
        else flat +. (stage *. float_of_int (min 1 (j - i)))
      in
      add ai (s j) d;
      add bi (s j) d
    done;
    let dco =
      if ripple then flat +. (stage *. float_of_int (w - i))
      else flat +. (2.0 *. stage)
    in
    add ai "COUT" dco;
    add bi "COUT" dco
  done;
  for j = 0 to w - 1 do
    add "CIN" (s j)
      (if ripple then (flat *. 0.8) +. (stage *. float_of_int j)
       else flat +. stage)
  done;
  add "CIN" "COUT"
    (if ripple then (flat *. 0.8) +. (stage *. float_of_int w)
     else flat +. stage);
  !arcs

let adder_eval w input =
  (* inputs: A0..A(w-1) B0..B(w-1) CIN; outputs S0..S(w-1) COUT *)
  let a = ref 0 and b = ref 0 in
  for i = 0 to w - 1 do
    if input.(i) then a := !a lor (1 lsl i);
    if input.(w + i) then b := !b lor (1 lsl i)
  done;
  let cin = if input.(2 * w) then 1 else 0 in
  let sum = !a + !b + cin in
  Array.init (w + 1) (fun i -> sum land (1 lsl i) <> 0)

(* The same adder on lane words: ripple addition over bit-planes, with
   a word-wide carry. *)
let adder_words w (ins : int array) (outs : int array) =
  let c = ref ins.(2 * w) in
  for i = 0 to w - 1 do
    let a = ins.(i) and b = ins.(w + i) in
    outs.(i) <- a lxor b lxor !c;
    c := a land b lor (!c land (a lxor b))
  done;
  outs.(w) <- !c

let adder ~ripple ~stage ~flat ~area ~power ~gates name w =
  let pins =
    T.range_pins "A" w T.Input @ T.range_pins "B" w T.Input
    @ [ ("CIN", T.Input) ]
    @ T.range_pins "S" w T.Output
    @ [ ("COUT", T.Output) ]
  in
  Macro.make ~delay:flat ~area ~power ~gates
    ~arcs:(adder_arcs w ~stage ~flat ~ripple)
    name pins
    (Macro.Comb_eval { eval = adder_eval w; eval_words = adder_words w })

(* w-bit comparator: A0.. B0.. -> EQ LT GT (unsigned). *)
let comparator_eval w input =
  let a = ref 0 and b = ref 0 in
  for i = 0 to w - 1 do
    if input.(i) then a := !a lor (1 lsl i);
    if input.(w + i) then b := !b lor (1 lsl i)
  done;
  [| !a = !b; !a < !b; !a > !b |]

(* The same comparator on lane words: from the most significant bit
   down, a lane is less-than at the first bit where it is still equal
   and A has 0 against B's 1. *)
let comparator_words w (ins : int array) (outs : int array) =
  let eq = ref (-1) and lt = ref 0 in
  for i = w - 1 downto 0 do
    let a = ins.(i) and b = ins.(w + i) in
    lt := !lt lor (!eq land lnot a land b);
    eq := !eq land lnot (a lxor b)
  done;
  outs.(0) <- !eq;
  outs.(1) <- !lt;
  outs.(2) <- lnot (!lt lor !eq)

let comparator ~delay ~area ~power ~gates name w =
  let pins =
    T.range_pins "A" w T.Input @ T.range_pins "B" w T.Input
    @ [ ("EQ", T.Output); ("LT", T.Output); ("GT", T.Output) ]
  in
  if w <= 2 then
    let nin = 2 * w in
    let tt k = Truth_table.of_fun nin (fun a -> (comparator_eval w a).(k)) in
    Macro.make ~delay ~area ~power ~gates name pins
      (Macro.Combinational [ ("EQ", tt 0); ("LT", tt 1); ("GT", tt 2) ])
  else
    Macro.make ~delay ~area ~power ~gates name pins
      (Macro.Comb_eval
         { eval = comparator_eval w; eval_words = comparator_words w })

(* Flip-flops and latches.  Pin order: data pins, selects, CLK, SET, RST,
   EN, Q. *)
let dff_pins (data : Macro.dff_data) ~has_set ~has_reset ~has_enable =
  (match data with
  | Macro.Direct -> [ ("D", T.Input) ]
  | Macro.Muxed n ->
      T.range_pins "D" n T.Input @ T.range_pins "S" (T.clog2 n) T.Input)
  @ [ ("CLK", T.Input) ]
  @ (if has_set then [ ("SET", T.Input) ] else [])
  @ (if has_reset then [ ("RST", T.Input) ] else [])
  @ (if has_enable then [ ("EN", T.Input) ] else [])
  @ [ ("Q", T.Output) ]

let dff ?(data = Macro.Direct) ?(latch = false) ?(has_set = false)
    ?(has_reset = false) ?(has_enable = false) ?(inverting = false) ~delay
    ~area ~power ~gates name =
  let pins = dff_pins data ~has_set ~has_reset ~has_enable in
  let arcs = [ (("CLK", "Q"), delay) ] in
  Macro.make ~delay ~area ~power ~gates ~arcs name pins
    (Macro.Seq_dff { data; latch; has_set; has_reset; has_enable; inverting })

(* Counters: D0.. LD UP CLK RST EN -> Q0.. COUT *)
let counter_pins bits ~has_load ~has_updown ~has_reset ~has_enable =
  (if has_load then T.range_pins "D" bits T.Input @ [ ("LD", T.Input) ] else [])
  @ (if has_updown then [ ("UP", T.Input) ] else [])
  @ [ ("CLK", T.Input) ]
  @ (if has_reset then [ ("RST", T.Input) ] else [])
  @ (if has_enable then [ ("EN", T.Input) ] else [])
  @ T.range_pins "Q" bits T.Output
  @ [ ("COUT", T.Output) ]

let counter ?(has_load = true) ?(has_updown = true) ?(has_reset = true)
    ?(has_enable = true) ~delay ~area ~power ~gates name bits =
  let pins = counter_pins bits ~has_load ~has_updown ~has_reset ~has_enable in
  let arcs =
    List.map (fun j -> (("CLK", Printf.sprintf "Q%d" j), delay))
      (List.init bits (fun j -> j))
    @ [ (("CLK", "COUT"), delay *. 1.3) ]
  in
  Macro.make ~delay ~area ~power ~gates ~arcs name pins
    (Macro.Seq_counter { bits; has_load; has_updown; has_reset; has_enable })

let constant name value =
  Macro.make ~delay:0.0 ~area:0.0 ~power:0.0 ~gates:0.0 name
    [ ("Y", T.Output) ]
    (Macro.Combinational [ ("Y", Truth_table.const 0 value) ])
