(* The one JSON codec: the serving protocol and every [--json] report
   print through it.

   Bytes parsed by the serving tier arrive from an untrusted socket, so
   the parser is written to be total: malformed escapes, truncated
   literals, over-deep nesting and trailing garbage are all [Error _],
   never an exception.  The printer never produces a raw newline, so one
   value is always one line on the wire. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let max_depth = 32

(* --- printing ------------------------------------------------------------- *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_num b v =
  (* NaN/Inf must never escape into the protocol; a poisoned prediction
     is reported through the typed error path instead. *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" v)
  else if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.12g" v)
  else Buffer.add_string b "null"

let to_string v =
  let b = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num v -> add_num b v
    | Str s ->
        Buffer.add_char b '"';
        escape_into b s;
        Buffer.add_char b '"'
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          l;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape_into b k;
            Buffer.add_string b "\":";
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* --- parsing --------------------------------------------------------------- *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %C at byte %d, got %C" c !pos c'
    | None -> fail "expected %C at byte %d, got end of input" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal at byte %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; advance ()
               | '\\' -> Buffer.add_char b '\\'; advance ()
               | '/' -> Buffer.add_char b '/'; advance ()
               | 'n' -> Buffer.add_char b '\n'; advance ()
               | 'r' -> Buffer.add_char b '\r'; advance ()
               | 't' -> Buffer.add_char b '\t'; advance ()
               | 'b' -> Buffer.add_char b '\b'; advance ()
               | 'f' -> Buffer.add_char b '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape"
                   else begin
                     let hex = String.sub s !pos 4 in
                     match int_of_string_opt ("0x" ^ hex) with
                     | None -> fail "bad \\u escape %S" hex
                     | Some code ->
                         pos := !pos + 4;
                         (* Encode the code point as UTF-8; surrogates are
                            kept as replacement chars rather than crashing. *)
                         if code < 0x80 then Buffer.add_char b (Char.chr code)
                         else if code < 0x800 then begin
                           Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                         end
                         else if code >= 0xD800 && code <= 0xDFFF then
                           Buffer.add_string b "\xEF\xBF\xBD"
                         else begin
                           Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                           Buffer.add_char b
                             (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                         end
                   end
               | c -> fail "bad escape \\%C" c);
            go ()
        | c when Char.code c < 0x20 -> fail "raw control byte in string"
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && number_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some v when Float.is_finite v -> v
    | _ -> fail "bad number %S at byte %d" tok start
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting deeper than %d" max_depth;
    skip_ws ();
    match peek () with
    | None -> fail "empty input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}' at byte %d" !pos
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']' at byte %d" !pos
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage at byte %d" !pos;
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m
  (* Belt and braces: any other exception is still a parse error, never a
     crash of the serving loop. *)
  | exception e -> Error (Printexc.to_string e)

(* --- accessors ------------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let str = function Str s -> Some s | _ -> None

let int = function
  | Num v when Float.is_integer v && Float.abs v <= 1e9 -> Some (int_of_float v)
  | _ -> None

let mem_str k v = Option.bind (member k v) str
let mem_int k v = Option.bind (member k v) int
