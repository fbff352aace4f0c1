(* Two-pass assembler for EVA-32 with labels, data directives and the usual
   pseudo-instructions.  Produces a loadable {!Image.t} with a symbol table
   derived from labels (one symbol per label, sized to the next label). *)

type item =
  | Ins of Insn.t
  | La of Reg.t * string * int (* load absolute address of label (+offset) *)
  | Bcc of Insn.cond * Reg.t * Reg.t * string (* branch to label *)
  | Jmp of string (* unconditional jump to label *)
  | Calli of string (* call: jal ra, label *)
  | Label of string
  | Bytes of string
  | Words of int list
  | Space of int
  | Align of int
  | Comment of string

(* Pseudo-instruction helpers. *)

let li rd n = Ins (Insn.Li (rd, Word32.wrap n))
let la rd label = La (rd, label, 0)
let mv rd rs = Ins (Insn.Alui (Add, rd, rs, 0))
let addi rd rs n = Ins (Insn.Alui (Add, rd, rs, n))
let ret = Ins (Insn.Jalr (Reg.zero, Reg.ra, 0))
let call f = Calli f
let j label = Jmp label
let beq a b l = Bcc (Insn.Eq, a, b, l)
let bne a b l = Bcc (Insn.Ne, a, b, l)
let blt a b l = Bcc (Insn.Lt, a, b, l)
let bltu a b l = Bcc (Insn.Ltu, a, b, l)
let bge a b l = Bcc (Insn.Ge, a, b, l)
let bgeu a b l = Bcc (Insn.Geu, a, b, l)
let beqz a l = Bcc (Insn.Eq, a, Reg.zero, l)
let bnez a l = Bcc (Insn.Ne, a, Reg.zero, l)
let load w ?(signed = false) rd rs1 off = Ins (Insn.Load (w, signed, rd, rs1, off))
let store w rs1 rs2 off = Ins (Insn.Store (w, rs1, rs2, off))
let trap n = Ins (Insn.Trap n)
let halt = Ins Insn.Halt

(** One translation unit: text (code) items and data items. *)
type unit_ = { unit_name : string; text : item list; data : item list }

exception Asm_error of string

let errf fmt = Format.kasprintf (fun s -> raise (Asm_error s)) fmt

let item_size = function
  | Ins _ | La _ | Bcc _ | Jmp _ | Calli _ -> Insn.size
  | Label _ | Comment _ -> 0
  | Bytes s -> String.length s
  | Words ws -> 4 * List.length ws
  | Space n -> n
  | Align _ -> -1 (* computed during layout *)

type layout = {
  labels : (string, int) Hashtbl.t;
  text_base : int;
  data_base : int;
  text_size : int;
  data_size : int;
}

let layout_pass ~text_base units =
  let labels = Hashtbl.create 256 in
  let place region_tag base items_of =
    let pos = ref base in
    List.iter
      (fun (u : unit_) ->
        List.iter
          (fun item ->
            match item with
            | Label name ->
                if Hashtbl.mem labels name then
                  errf "duplicate label %s (unit %s)" name u.unit_name;
                Hashtbl.add labels name !pos
            | Align n ->
                let n = max n 1 in
                pos := (!pos + n - 1) / n * n
            | _ -> pos := !pos + item_size item)
          (items_of u))
      units;
    ignore region_tag;
    !pos
  in
  let text_end = place `Text text_base (fun u -> u.text) in
  let data_base = (text_end + 7) / 8 * 8 in
  let data_end = place `Data data_base (fun u -> u.data) in
  {
    labels;
    text_base;
    data_base;
    text_size = text_end - text_base;
    data_size = data_end - data_base;
  }

let resolve layout name =
  match Hashtbl.find_opt layout.labels name with
  | Some a -> a
  | None -> errf "undefined label %s" name

let emit_pass arch layout ~base items_list =
  let buf = Buffer.create 4096 in
  let scratch = Bytes.create Insn.size in
  let pos = ref base in
  let emit_insn insn =
    Codec.encode_into arch scratch 0 insn;
    Buffer.add_bytes buf scratch;
    pos := !pos + Insn.size
  in
  List.iter
    (fun items ->
      List.iter
        (fun item ->
          match item with
          | Ins insn -> emit_insn insn
          | La (rd, label, off) -> emit_insn (Li (rd, Word32.wrap (resolve layout label + off)))
          | Bcc (c, a, b, label) -> emit_insn (Branch (c, a, b, resolve layout label - !pos))
          | Jmp label -> emit_insn (Jal (Reg.zero, resolve layout label - !pos))
          | Calli label -> emit_insn (Jal (Reg.ra, resolve layout label - !pos))
          | Label _ | Comment _ -> ()
          | Bytes s ->
              Buffer.add_string buf s;
              pos := !pos + String.length s
          | Words ws ->
              List.iter
                (fun w ->
                  let w = Word32.wrap w in
                  Buffer.add_char buf (Char.chr (w land 0xFF));
                  Buffer.add_char buf (Char.chr ((w lsr 8) land 0xFF));
                  Buffer.add_char buf (Char.chr ((w lsr 16) land 0xFF));
                  Buffer.add_char buf (Char.chr ((w lsr 24) land 0xFF)))
                ws;
              pos := !pos + (4 * List.length ws)
          | Space n ->
              Buffer.add_string buf (String.make n '\000');
              pos := !pos + n
          | Align n ->
              let n = max n 1 in
              let target = (!pos + n - 1) / n * n in
              Buffer.add_string buf (String.make (target - !pos) '\000');
              pos := target)
        items)
    items_list;
  Buffer.contents buf

(* Labels become symbols sized up to the next label in the same region.
   Labels beginning with ".L" are assembler-local (compiler-generated
   control-flow targets) and do not appear in the symbol table, so function
   symbols span their whole bodies. *)
let is_local_label name = String.length name >= 2 && String.sub name 0 2 = ".L"

let symbols_of_region kind ~base ~size items_list =
  let pos = ref base in
  let acc = ref [] in
  List.iter
    (List.iter (fun item ->
         match item with
         | Label name ->
             if not (is_local_label name) then acc := (name, !pos) :: !acc
         | Align n ->
             let n = max n 1 in
             pos := (!pos + n - 1) / n * n
         | _ -> pos := !pos + item_size item))
    items_list;
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) (List.rev !acc) in
  let rec mk = function
    | [] -> []
    | [ (name, addr) ] -> [ { Image.name; addr; size = base + size - addr; kind } ]
    | (name, addr) :: ((_, next) :: _ as rest) ->
        { Image.name; addr; size = next - addr; kind } :: mk rest
  in
  mk sorted

(** Assemble translation units into a firmware image.  [entry] names the
    entry-point label. *)
let assemble ~arch ~text_base ~entry units =
  let layout = layout_pass ~text_base units in
  let texts = List.map (fun u -> u.text) units in
  let datas = List.map (fun u -> u.data) units in
  let text_blob = emit_pass arch layout ~base:layout.text_base texts in
  let data_blob = emit_pass arch layout ~base:layout.data_base datas in
  let text_syms =
    symbols_of_region Image.Func ~base:layout.text_base ~size:layout.text_size
      texts
  in
  let data_syms =
    symbols_of_region Image.Object ~base:layout.data_base
      ~size:layout.data_size datas
  in
  {
    Image.arch;
    entry = resolve layout entry;
    sections =
      [
        { Image.sec_name = "text"; base = layout.text_base; data = text_blob };
        { Image.sec_name = "data"; base = layout.data_base; data = data_blob };
      ];
    symbols = text_syms @ data_syms;
  }
