(* Lexer for the structural VHDL subset (see Ast). *)

type token =
  | Ident of string  (* lower-cased *)
  | Int of int
  | Bit of bool  (* '0' / '1' *)
  | Bits of string  (* "0101" bit-string literal *)
  | Arrow  (* => *)
  | Assign  (* <= *)
  | Lparen
  | Rparen
  | Semi
  | Colon
  | Comma
  | Eof

exception Lex_error of int * string

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable peeked : (token * int) option;
}

let create src = { src; pos = 0; line = 1; peeked = None }

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let rec skip_ws t =
  if t.pos >= String.length t.src then ()
  else
    match t.src.[t.pos] with
    | ' ' | '\t' | '\r' ->
        t.pos <- t.pos + 1;
        skip_ws t
    | '\n' ->
        t.pos <- t.pos + 1;
        t.line <- t.line + 1;
        skip_ws t
    | '-'
      when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '-' ->
        (* comment to end of line *)
        while t.pos < String.length t.src && t.src.[t.pos] <> '\n' do
          t.pos <- t.pos + 1
        done;
        skip_ws t
    | _ -> ()

let read_token t =
  skip_ws t;
  let line = t.line in
  if t.pos >= String.length t.src then (Eof, line)
  else
    let c = t.src.[t.pos] in
    let adv n tok =
      t.pos <- t.pos + n;
      (tok, line)
    in
    match c with
    | '(' -> adv 1 Lparen
    | ')' -> adv 1 Rparen
    | ';' -> adv 1 Semi
    | ',' -> adv 1 Comma
    | ':' -> adv 1 Colon
    | '=' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '>' ->
        adv 2 Arrow
    | '<' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '=' ->
        adv 2 Assign
    | '\'' ->
        if t.pos + 2 < String.length t.src && t.src.[t.pos + 2] = '\'' then
          match t.src.[t.pos + 1] with
          | '0' -> adv 3 (Bit false)
          | '1' -> adv 3 (Bit true)
          | other ->
              raise (Lex_error (line, Printf.sprintf "bad bit literal '%c'" other))
        else raise (Lex_error (line, "unterminated character literal"))
    | '"' ->
        let e = ref (t.pos + 1) in
        while !e < String.length t.src && t.src.[!e] <> '"' do
          incr e
        done;
        if !e >= String.length t.src then
          raise (Lex_error (line, "unterminated string literal"));
        let s = String.sub t.src (t.pos + 1) (!e - t.pos - 1) in
        t.pos <- !e + 1;
        (Bits s, line)
    | '0' .. '9' ->
        let e = ref t.pos in
        while !e < String.length t.src && t.src.[!e] >= '0' && t.src.[!e] <= '9' do
          incr e
        done;
        let digits = String.sub t.src t.pos (!e - t.pos) in
        let n =
          match int_of_string_opt digits with
          | Some n -> n
          | None ->
              let msg = "integer literal " ^ digits ^ " out of range" in
              raise (Lex_error (line, msg))
        in
        t.pos <- !e;
        (Int n, line)
    | _ when is_ident_char c ->
        let e = ref t.pos in
        while !e < String.length t.src && is_ident_char t.src.[!e] do
          incr e
        done;
        let s = String.lowercase_ascii (String.sub t.src t.pos (!e - t.pos)) in
        t.pos <- !e;
        (Ident s, line)
    | other -> raise (Lex_error (line, Printf.sprintf "unexpected character %c" other))

let next t =
  match t.peeked with
  | Some (tok, line) ->
      t.peeked <- None;
      (tok, line)
  | None -> read_token t

let peek t =
  match t.peeked with
  | Some (tok, _) -> tok
  | None ->
      let tok, line = read_token t in
      t.peeked <- Some (tok, line);
      tok

let line t = match t.peeked with Some (_, l) -> l | None -> t.line

let token_name = function
  | Ident s -> Printf.sprintf "identifier %s" s
  | Int n -> Printf.sprintf "integer %d" n
  | Bit b -> Printf.sprintf "bit '%d'" (if b then 1 else 0)
  | Bits s -> Printf.sprintf "bit string \"%s\"" s
  | Arrow -> "=>"
  | Assign -> "<="
  | Lparen -> "("
  | Rparen -> ")"
  | Semi -> ";"
  | Colon -> ":"
  | Comma -> ","
  | Eof -> "end of file"
