(* Minimal JSON: the one printer every writer in this repo uses, and a
   reader just strong enough to take that output back (tests,
   [dms trace], tools/bench_check). No external dependency; strict —
   anything outside RFC 8259 (bare NaN, trailing commas, comments) is a
   parse error, which is the point for a well-formedness check. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string

let int n = Number (float_of_int n)

let fail pos msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" pos msg))

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st.pos (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected '%s'" word)

let utf8_of_code buf u =
  (* code point to UTF-8 bytes; lone surrogates are kept as-is (the
     replacement would lose information a test might care about) *)
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.src then fail st.pos "truncated \\u escape";
        let hex = String.sub st.src st.pos 4 in
        let u =
          try int_of_string ("0x" ^ hex)
          with _ -> fail st.pos "bad \\u escape"
        in
        st.pos <- st.pos + 4;
        utf8_of_code buf u
      | _ -> fail st.pos "bad escape");
      go ()
    | Some c when Char.code c < 0x20 -> fail st.pos "control character in string"
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Number f
  | None -> fail start ("bad number " ^ s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Object []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st.pos "expected ',' or '}'"
      in
      Object (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Array []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st.pos "expected ',' or ']'"
      in
      Array (elements [])
    end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st.pos "trailing garbage";
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let member key = function
  | Object kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list = function Array l -> Some l | _ -> None

let to_assoc = function Object kvs -> Some kvs | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_float = function Number f -> Some f | _ -> None

let to_int = function
  | Number f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

(* ---- printing ---------------------------------------------------- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* integral values print bare; anything else as the shortest of 15, 16
   or 17 significant digits that reads back to the same float *)
let number f =
  if not (Float.is_finite f) then
    invalid_arg ("Obs.Json: non-finite number " ^ string_of_float f)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let fits p = float_of_string (Printf.sprintf "%.*g" p f) = f in
    Printf.sprintf "%.*g" (if fits 15 then 15 else if fits 16 then 16 else 17) f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Number f -> Buffer.add_string buf (number f)
  | String s -> add_string buf s
  | Array l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        to_buffer buf v)
      l;
    Buffer.add_char buf ']'
  | Object kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        add_string buf k;
        Buffer.add_string buf ": ";
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf
