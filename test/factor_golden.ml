(* Re-factors the covers of a golden file.  Each line of the file is

     <source> <vars> <cube>... => <factored form>

   with one cube per word over the variables ('1' positive, '0'
   negative, '-' absent); the program prints each line with the
   factored form [Factor.of_cover] gives for its cover, so the output
   equals the file exactly when factoring is unchanged. *)

open Milo_boolfunc

let cover_of_words vars cubes =
  Cover.create vars
    (List.map
       (fun w ->
         if String.length w <> vars then failwith ("bad cube " ^ w);
         Cube.of_literals vars
           (List.filter_map
              (fun v ->
                match w.[v] with
                | '1' -> Some (v, true)
                | '0' -> Some (v, false)
                | '-' -> None
                | _ -> failwith ("bad cube " ^ w))
              (List.init vars Fun.id)))
       cubes)

let refactor line =
  let cover_part = String.trim (List.hd (String.split_on_char '=' line)) in
  match String.split_on_char ' ' cover_part with
  | _ :: vars :: cubes ->
      let expr =
        Milo_minimize.Factor.of_cover
          (cover_of_words (int_of_string vars) cubes)
      in
      Printf.printf "%s => %s\n" cover_part
        (Milo_minimize.Factor.to_string (Printf.sprintf "x%d") expr)
  | _ -> failwith ("bad line " ^ line)

let () =
  let ic = open_in Sys.argv.(1) in
  (try
     while true do
       refactor (input_line ic)
     done
   with End_of_file -> ());
  close_in ic
