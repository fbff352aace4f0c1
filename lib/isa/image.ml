(* Firmware image container: loadable sections, entry point, and an optional
   symbol table.  Closed-source firmware is modeled by {!strip}, after which
   only binary-level analysis is possible. *)

type symbol_kind = Func | Object

type symbol = { name : string; addr : int; size : int; kind : symbol_kind }

type section = { sec_name : string; base : int; data : string }

type t = {
  arch : Arch.t;
  entry : int;
  sections : section list;
  symbols : symbol list; (* empty when stripped *)
}

let magic = "EVAF"

let strip t = { t with symbols = [] }

let is_stripped t = t.symbols = []

let find_symbol t name = List.find_opt (fun s -> String.equal s.name name) t.symbols

let symbol_addr_exn t name =
  match find_symbol t name with
  | Some s -> s.addr
  | None -> raise Not_found

(** Innermost symbol covering [addr], if any. *)
let symbol_at t addr =
  List.fold_left
    (fun best s ->
      if addr >= s.addr && addr < s.addr + max 1 s.size then
        match best with
        | Some b when b.size <= s.size -> best
        | _ -> Some s
      else best)
    None t.symbols

let section t name = List.find_opt (fun s -> String.equal s.sec_name name) t.sections

(* --- Binary serialization ---------------------------------------------- *)

let put_u32 buf v =
  let v = Word32.wrap v in
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let serialize t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr (Arch.to_byte t.arch));
  Buffer.add_char buf (if t.symbols = [] then '\000' else '\001');
  put_u32 buf t.entry;
  put_u32 buf (List.length t.sections);
  List.iter
    (fun s ->
      put_str buf s.sec_name;
      put_u32 buf s.base;
      put_str buf s.data)
    t.sections;
  put_u32 buf (List.length t.symbols);
  List.iter
    (fun (s : symbol) ->
      put_str buf s.name;
      put_u32 buf s.addr;
      put_u32 buf s.size;
      Buffer.add_char buf (match s.kind with Func -> 'F' | Object -> 'O'))
    t.symbols;
  Buffer.contents buf

exception Parse_error of string

let parse blob =
  let pos = ref 0 in
  let len = String.length blob in
  let need n =
    if !pos + n > len then raise (Parse_error "truncated image")
  in
  let get_byte () =
    need 1;
    let c = Char.code blob.[!pos] in
    incr pos;
    c
  in
  let get_u32 () =
    need 4;
    let v =
      Char.code blob.[!pos]
      lor (Char.code blob.[!pos + 1] lsl 8)
      lor (Char.code blob.[!pos + 2] lsl 16)
      lor (Char.code blob.[!pos + 3] lsl 24)
    in
    pos := !pos + 4;
    v
  in
  let get_str () =
    let n = get_u32 () in
    need n;
    let s = String.sub blob !pos n in
    pos := !pos + n;
    s
  in
  need 4;
  if not (String.equal (String.sub blob 0 4) magic) then
    raise (Parse_error "bad magic");
  pos := 4;
  let arch =
    match Arch.of_byte (get_byte ()) with
    | Some a -> a
    | None -> raise (Parse_error "unknown arch byte")
  in
  let _has_symbols = get_byte () in
  let entry = get_u32 () in
  let nsec = get_u32 () in
  let sections =
    List.init nsec (fun _ ->
        let sec_name = get_str () in
        let base = get_u32 () in
        let data = get_str () in
        { sec_name; base; data })
  in
  let nsym = get_u32 () in
  let symbols =
    List.init nsym (fun _ ->
        let name = get_str () in
        let addr = get_u32 () in
        let size = get_u32 () in
        let kind =
          match get_byte () with
          | 0x46 (* 'F' *) -> Func
          | 0x4F (* 'O' *) -> Object
          | _ -> raise (Parse_error "bad symbol kind")
        in
        { name; addr; size; kind })
  in
  { arch; entry; sections; symbols }

let pp fmt t =
  Fmt.pf fmt "@[<v>image %a entry=%s%s@,%a@,symbols: %d@]" Arch.pp t.arch
    (Word32.to_hex t.entry)
    (if is_stripped t then " (stripped)" else "")
    (Fmt.list ~sep:Fmt.cut (fun fmt s ->
         Fmt.pf fmt "  %-6s %s..%s (%d bytes)" s.sec_name (Word32.to_hex s.base)
           (Word32.to_hex (s.base + String.length s.data))
           (String.length s.data)))
    t.sections (List.length t.symbols)
