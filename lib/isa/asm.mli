(** Two-pass assembler for EVA-32 with labels, data directives and
    pseudo-instructions.  Produces a loadable {!Image.t}; labels become
    symbols sized to the next label, except ".L"-prefixed local labels. *)

type item =
  | Ins of Insn.t
  | La of Reg.t * string * int  (** load absolute address of label+offset *)
  | Bcc of Insn.cond * Reg.t * Reg.t * string  (** branch to label *)
  | Jmp of string
  | Calli of string  (** jal ra, label *)
  | Label of string
  | Bytes of string
  | Words of int list
  | Space of int
  | Align of int
  | Comment of string

(** Pseudo-instruction helpers. *)

val li : Reg.t -> int -> item
val la : Reg.t -> string -> item
val mv : Reg.t -> Reg.t -> item
val addi : Reg.t -> Reg.t -> int -> item
val ret : item
val call : string -> item
val j : string -> item
val beq : Reg.t -> Reg.t -> string -> item
val bne : Reg.t -> Reg.t -> string -> item
val blt : Reg.t -> Reg.t -> string -> item
val bltu : Reg.t -> Reg.t -> string -> item
val bge : Reg.t -> Reg.t -> string -> item
val bgeu : Reg.t -> Reg.t -> string -> item
val beqz : Reg.t -> string -> item
val bnez : Reg.t -> string -> item
val load : Insn.width -> ?signed:bool -> Reg.t -> Reg.t -> int -> item
val store : Insn.width -> Reg.t -> Reg.t -> int -> item
val trap : int -> item
val halt : item

(** One translation unit: code items and data items. *)
type unit_ = { unit_name : string; text : item list; data : item list }

exception Asm_error of string

(** Is this an assembler-local (non-symbol) label? *)
val is_local_label : string -> bool

(** Assemble translation units into a firmware image; [entry] names the
    entry-point label.  Raises {!Asm_error} on duplicate or undefined
    labels. *)
val assemble :
  arch:Arch.t -> text_base:int -> entry:string -> unit_ list -> Image.t
