(* Minimal JSON values for the benchmark's own files: the one-line trial
   records children print, BENCH_flow.json, and BENCHMARK.json.  Floats
   are printed with %.17g so a value survives a round trip bit-exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape = Milo_trace.Export.json_escape

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> num_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
      ^ "}"

(* Indented rendering for checked-in files, so they diff line by line. *)
let rec pretty ?(indent = "") = function
  | Obj (_ :: _ as kv) ->
      let inner = indent ^ "  " in
      "{\n"
      ^ String.concat ",\n"
          (List.map
             (fun (k, v) ->
               inner ^ "\"" ^ escape k ^ "\": " ^ pretty ~indent:inner v)
             kv)
      ^ "\n" ^ indent ^ "}"
  | v -> to_string v

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              if !pos + 4 >= n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              Buffer.add_char b (Char.chr (code land 0xff));
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | '\000' when !pos >= n -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            skip ();
            let k = string () in
            skip ();
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (
          incr pos;
          List [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing input";
  v

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None

let member_exn k v =
  match member k v with
  | Some x -> x
  | None -> raise (Parse_error ("missing key " ^ k))

let to_num = function
  | Num f -> f
  | _ -> raise (Parse_error "expected a number")

let to_str = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let to_list = function
  | List l -> l
  | _ -> raise (Parse_error "expected a list")

let to_obj = function
  | Obj kv -> kv
  | _ -> raise (Parse_error "expected an object")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
