(* Berkeley Espresso .pla reader: the "PLA format" input path of the
   paper's Figure 1.

     .i 3
     .o 2
     .ilb a b c          (optional)
     .ob f g             (optional)
     .p 4                (optional)
     1-0 10
     011 01
     .e

   Rows are input cubes ('0'/'1'/'-') and output parts ('1' = the cube
   belongs to that output's on-set; '0'/'-' = it does not).  The reader
   produces one SOP cover per output; [to_design] minimizes each,
   factors it, and builds a generic gate netlist. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
open Milo_boolfunc

exception Pla_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Pla_error (line, s))) fmt

type t = {
  inputs : string list;
  outputs : string list;
  covers : Cover.t list;  (* one per output, over the inputs in order *)
}

let parse_cube line ni text =
  if String.length text <> ni then
    fail line "input part %s has %d characters, expected %d" text
      (String.length text) ni;
  let lits = ref [] in
  String.iteri
    (fun v c ->
      match c with
      | '1' -> lits := (v, true) :: !lits
      | '0' -> lits := (v, false) :: !lits
      | '-' | '~' -> ()
      | other -> fail line "bad input character %c" other)
    text;
  Cube.of_literals ni !lits

let count line directive n =
  match int_of_string_opt n with
  | Some k when k >= 0 -> k
  | Some _ | None -> fail line "bad %s count %s" directive n

let of_string src =
  let lines = String.split_on_char '\n' src in
  let ni = ref 0 and no = ref 0 in
  let ilb = ref [] and ob = ref [] in
  let rows = ref [] in
  let ended = ref false in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let fields =
        String.split_on_char ' ' (String.trim line)
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun f -> f <> "")
      in
      match fields with
      | [] -> ()
      | _ when !ended -> ()
      | ".i" :: n :: _ -> ni := count lineno ".i" n
      | ".o" :: n :: _ -> no := count lineno ".o" n
      | ".p" :: _ -> ()
      | ".ilb" :: names -> ilb := names
      | ".ob" :: names -> ob := names
      | [ ".e" ] | [ ".end" ] -> ended := true
      | directive :: _ when String.length directive > 0 && directive.[0] = '.'
        ->
          fail lineno "unknown directive %s" directive
      | [ input_part; output_part ] ->
          if !ni = 0 || !no = 0 then fail lineno "cube before .i/.o";
          if String.length output_part <> !no then
            fail lineno "output part %s has %d characters, expected %d"
              output_part (String.length output_part) !no;
          rows := (parse_cube lineno !ni input_part, output_part) :: !rows
      | _ -> fail lineno "cannot parse: %s" (String.trim line))
    lines;
  if !ni = 0 || !no = 0 then fail 0 "missing .i or .o";
  if !ni > 16 then fail 0 ".i %d too wide (max 16)" !ni;
  let inputs =
    if !ilb <> [] then !ilb else List.init !ni (fun i -> Printf.sprintf "x%d" i)
  in
  let outputs =
    if !ob <> [] then !ob else List.init !no (fun i -> Printf.sprintf "f%d" i)
  in
  if List.length inputs <> !ni then fail 0 ".ilb arity mismatch";
  if List.length outputs <> !no then fail 0 ".ob arity mismatch";
  let covers =
    List.init !no (fun o ->
        let cubes =
          List.filter_map
            (fun (cube, out) -> if out.[o] = '1' then Some cube else None)
            !rows
        in
        Cover.create !ni cubes)
  in
  { inputs; outputs; covers }

let of_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  of_string src

(* Build a generic gate netlist: minimize each output exactly (on-set
   minterm enumeration, so two rows covering the same minterm are fine),
   factor by weak division, and rebuild as AND/OR/INV trees. *)
let to_design ?(name = "pla") t =
  let d = D.create name in
  let lib = Milo_library.Generic.get () in
  let set = Milo_compilers.Gate_comp.generic_set lib in
  let ni = List.length t.inputs in
  let in_nets = List.map (fun p -> D.add_port d p T.Input) t.inputs in
  List.iter2
    (fun oname cover ->
      let port = D.add_port d oname T.Output in
      let on = Cover.minterms cover in
      let minimized = Milo_minimize.Quine.minimize ~vars:ni ~on ~dc:[] in
      let expr = Milo_minimize.Factor.of_cover minimized in
      let src =
        Milo_compilers.Gate_comp.build_expr d set
          ~var_net:(fun v -> List.nth in_nets v)
          expr
      in
      (* route the built signal onto the output port *)
      let resolve kind nm =
        match kind with
        | T.Macro _ ->
            (Milo_library.Technology.find lib nm).Milo_library.Macro.pins
        | T.Instance _ | T.Gate _ | T.Multiplexor _ | T.Decoder _
        | T.Comparator _ | T.Logic_unit _ | T.Arith_unit _ | T.Register _
        | T.Counter _ | T.Constant _ ->
            T.pins_of_kind kind
      in
      match D.driver ~resolve d src with
      | D.Src_comp (_, _) when (D.net d src).D.nport = None ->
          let pins = (D.net d src).D.npins in
          List.iter (fun (cid, pin) -> D.connect d cid pin port) pins;
          (match D.net_opt d src with
          | Some n when n.D.npins = [] && n.D.nport = None ->
              D.remove_net d src
          | Some _ | None -> ())
      | D.Src_comp (_, _) | D.Src_port _ ->
          let b = D.add_comp d (T.Macro "BUF") in
          D.connect d b "A0" src;
          D.connect d b "Y" port
      | D.Src_none -> fail 0 "output %s has no logic" oname)
    t.outputs t.covers;
  d

(* Emit .pla text (round-trip support). *)
let to_string t =
  let b = Buffer.create 256 in
  let ni = List.length t.inputs and no = List.length t.outputs in
  Buffer.add_string b (Printf.sprintf ".i %d\n.o %d\n" ni no);
  Buffer.add_string b (".ilb " ^ String.concat " " t.inputs ^ "\n");
  Buffer.add_string b (".ob " ^ String.concat " " t.outputs ^ "\n");
  List.iteri
    (fun o cover ->
      List.iter
        (fun cube ->
          let input_part =
            String.init ni (fun v ->
                match Cube.polarity cube v with
                | Some true -> '1'
                | Some false -> '0'
                | None -> '-')
          in
          let output_part = String.init no (fun k -> if k = o then '1' else '0') in
          Buffer.add_string b (input_part ^ " " ^ output_part ^ "\n"))
        (Cover.cubes cover))
    t.covers;
  Buffer.add_string b ".e\n";
  Buffer.contents b
