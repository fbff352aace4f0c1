(* MiniC code generator targeting the EVA-32 assembler eDSL.

   Expression evaluation uses a virtual value stack of locations
   (constants, temp registers t0..t4, machine-stack spill slots).  Spills
   always evict the deepest register-held entry, which keeps the spill area
   a LIFO; all spills are materialized back by the time a statement ends.

   Sanitizer instrumentation modes:
   - [Plain]: no instrumentation (EmbSan-D target firmware);
   - [Trap_callout]: every source-level memory access is preceded by a
     single trapping instruction, the "dummy sanitizer library" of the
     paper's EmbSan-C flow; global and stack arrays get redzones whose
     poisoning is likewise requested through trap callouts;
   - [Inline_kasan]: the native KASAN baseline; accesses get an inline
     shadow-byte fast path and call an assembly stub on the slow path,
     redzones are poisoned by the in-guest runtime;
   - [Inline_kcsan]: the native KCSAN baseline; every access calls the
     in-guest KCSAN runtime through a register-preserving stub.

   Instrumented accesses: array indexing, raw load/store builtins, atomics
   and global scalar accesses.  Compiler-managed frame traffic (parameter
   homes, spills, locals) is not instrumented, like real compilers. *)

open Embsan_isa
module Hypercall = Embsan_emu.Hypercall

type mode = Plain | Trap_callout | Inline_kasan | Inline_kcsan

type options = {
  mode : mode;
  redzone : int; (* bytes on each side of protected arrays *)
  shadow_offset : int; (* inline KASAN: shadow byte at (addr >> 3) + offset *)
  kcov : bool; (* kcov-style coverage traps at entries and branch targets *)
}

let has_redzones = function
  | Trap_callout | Inline_kasan -> true
  | Plain | Inline_kcsan -> false

exception Codegen_error of string

let errf fmt = Format.kasprintf (fun s -> raise (Codegen_error s)) fmt

(* --- Per-function context --------------------------------------------------- *)

type slot = Svar of int (* s0-relative offset *) | Sarray of array_slot

and array_slot = {
  a_elem : Ast.elem_size;
  a_count : int;
  a_data_off : int; (* s0-relative offset of element 0 *)
  a_region_off : int; (* s0-relative offset of the padded region *)
  a_region_size : int;
}

type ctx = {
  env : Check.env;
  opts : options;
  fn : Ast.func;
  slots : (string, slot) Hashtbl.t;
  frame_size : int;
  counter : int ref; (* program-wide label counter *)
  mutable out : Asm.item list; (* reversed *)
  mutable vstack : loc list; (* head = top *)
  mutable free : Reg.t list;
  mutable loops : (string * string) list; (* (continue, break) labels *)
  exit_label : string;
}

and loc = Lconst of int | Lreg of Reg.t | Lspill

let sanitize ctx = ctx.opts.mode <> Plain && not ctx.fn.no_sanitize

let fresh_label ctx tag =
  incr ctx.counter;
  Printf.sprintf ".L%d_%s" !(ctx.counter) tag

let emit ctx item = ctx.out <- item :: ctx.out
let emit_i ctx insn = emit ctx (Asm.Ins insn)

(* --- Value-stack machinery ---------------------------------------------------- *)

let temp_pool = [ Reg.t0; Reg.t1; Reg.t2; Reg.t3; Reg.t4 ]

let release ctx r = if List.mem r temp_pool then ctx.free <- r :: ctx.free

(* Spill the deepest register-held entry to the machine stack. *)
let spill_deepest ctx =
  let rec find_idx i best = function
    | [] -> best
    | Lreg _ :: rest -> find_idx (i + 1) (Some i) rest
    | (Lconst _ | Lspill) :: rest -> find_idx (i + 1) best rest
  in
  match find_idx 0 None ctx.vstack with
  | None -> errf "%s: expression too complex (no spillable value)" ctx.fn.fname
  | Some idx ->
      let r =
        match List.nth ctx.vstack idx with Lreg r -> r | _ -> assert false
      in
      emit_i ctx (Alui (Add, Reg.sp, Reg.sp, -4));
      emit_i ctx (Store (W32, Reg.sp, r, 0));
      ctx.vstack <- List.mapi (fun i l -> if i = idx then Lspill else l) ctx.vstack;
      release ctx r

let rec alloc_reg ctx =
  match ctx.free with
  | r :: rest ->
      ctx.free <- rest;
      r
  | [] ->
      spill_deepest ctx;
      alloc_reg ctx

let push_const ctx c = ctx.vstack <- Lconst (Word32.wrap c) :: ctx.vstack
let push_reg ctx r = ctx.vstack <- Lreg r :: ctx.vstack

let pop_loc ctx =
  match ctx.vstack with
  | l :: rest ->
      ctx.vstack <- rest;
      l
  | [] -> errf "%s: internal: value stack underflow" ctx.fn.fname

(* Pop the top value into some temp register (caller must [release] it). *)
let pop_any ctx =
  match pop_loc ctx with
  | Lreg r -> r
  | Lconst c ->
      let r = alloc_reg ctx in
      emit_i ctx (Li (r, c));
      r
  | Lspill ->
      let r = alloc_reg ctx in
      emit_i ctx (Load (W32, false, r, Reg.sp, 0));
      emit_i ctx (Alui (Add, Reg.sp, Reg.sp, 4));
      r

(* Pop the top value into a *specific* register (a0..a3 for marshaling). *)
let pop_into ctx target =
  match pop_loc ctx with
  | Lconst c -> emit_i ctx (Li (target, c))
  | Lreg r ->
      if not (Reg.equal r target) then emit_i ctx (Alui (Add, target, r, 0));
      release ctx r
  | Lspill ->
      emit_i ctx (Load (W32, false, target, Reg.sp, 0));
      emit_i ctx (Alui (Add, Reg.sp, Reg.sp, 4))

(* Discard the top value. *)
let discard ctx =
  match pop_loc ctx with
  | Lconst _ -> ()
  | Lreg r -> release ctx r
  | Lspill -> emit_i ctx (Alui (Add, Reg.sp, Reg.sp, 4))

(* Spill every register-held entry (before calls and across branches). *)
let spill_all ctx =
  let rec has_reg = function
    | [] -> false
    | Lreg _ :: _ -> true
    | _ :: rest -> has_reg rest
  in
  while has_reg ctx.vstack do
    spill_deepest ctx
  done

(* --- Sanitizer callouts --------------------------------------------------------- *)

let kasan_stub = "__kasan_stub"
let kcsan_stub = "__kcsan_stub"

(* [addr_reg] must be a temp-pool register (never a0..a3). *)
let emit_check ctx ~is_write ~size addr_reg =
  if sanitize ctx then
    match ctx.opts.mode with
    | Plain -> ()
    | Trap_callout ->
        emit_i ctx (Alui (Add, Reg.a0, addr_reg, 0));
        emit_i ctx (Trap (Hypercall.check ~is_write ~size))
    | Inline_kasan ->
        let ok = fresh_label ctx "asan_ok" in
        (* device memory (0xFxxxxxxx) has no shadow; skip like ioremap *)
        emit_i ctx (Alui (Shru, Reg.a0, addr_reg, 28));
        emit_i ctx (Alui (Xor, Reg.a0, Reg.a0, 0xF));
        emit ctx (Asm.beqz Reg.a0 ok);
        emit_i ctx (Alui (Shru, Reg.a0, addr_reg, 3));
        emit_i ctx (Li (Reg.a1, ctx.opts.shadow_offset));
        emit_i ctx (Alu (Add, Reg.a0, Reg.a0, Reg.a1));
        emit_i ctx (Load (W8, false, Reg.a0, Reg.a0, 0));
        emit ctx (Asm.beqz Reg.a0 ok);
        emit_i ctx (Alui (Add, Reg.a0, addr_reg, 0));
        emit_i ctx (Li (Reg.a1, size lor (if is_write then 0x100 else 0)));
        (* jal with offset 8 falls through while capturing the access pc *)
        emit_i ctx (Jal (Reg.a2, 8));
        emit ctx (Asm.call kasan_stub);
        emit ctx (Asm.Label ok)
    | Inline_kcsan ->
        (* inline fast path: active-watchpoint granule compare, then the
           sampling countdown; the runtime is entered only on a watchpoint
           hit or when the (jittered) counter expires *)
        let slow = fresh_label ctx "kcsan_slow" in
        let ok = fresh_label ctx "kcsan_ok" in
        emit_i ctx (Alui (Shru, Reg.a0, addr_reg, 3));
        emit ctx (Asm.la Reg.a1 "__kcsan_watch_addr");
        emit_i ctx (Load (W32, false, Reg.a1, Reg.a1, 0));
        emit_i ctx (Alui (Shru, Reg.a1, Reg.a1, 3));
        emit ctx (Asm.Bcc (Embsan_isa.Insn.Eq, Reg.a0, Reg.a1, slow));
        emit ctx (Asm.la Reg.a0 "__kcsan_skip");
        emit_i ctx (Load (W32, false, Reg.a1, Reg.a0, 0));
        emit_i ctx (Alui (Add, Reg.a1, Reg.a1, -1));
        emit_i ctx (Store (W32, Reg.a0, Reg.a1, 0));
        emit ctx (Asm.bnez Reg.a1 ok);
        emit ctx (Asm.Label slow);
        emit_i ctx (Alui (Add, Reg.a0, addr_reg, 0));
        emit_i ctx (Li (Reg.a1, size lor (if is_write then 0x100 else 0)));
        emit_i ctx (Jal (Reg.a2, 8));
        emit ctx (Asm.call kcsan_stub);
        emit ctx (Asm.Label ok)

(* kcov-style coverage callout: capture the site pc (jal +8 trick) and trap.
   Emitted at statement boundaries only, where a0 is dead. *)
let emit_kcov ctx =
  if ctx.opts.kcov && not ctx.fn.no_sanitize then begin
    emit_i ctx (Jal (Reg.a0, 8));
    emit_i ctx (Trap 9)
  end

(* --- Expression generation -------------------------------------------------------- *)

let rec try_const ctx (e : Ast.expr) =
  match e with
  | Int n -> Some (Word32.wrap n)
  | Unop (op, a) -> (
      match try_const ctx a with
      | None -> None
      | Some a -> (
          match op with
          | Neg -> Some (Word32.wrap (-a))
          | Not -> Some (if a = 0 then 1 else 0)
          | Bnot -> Some (Word32.wrap (lnot a))))
  | Binop ((Land | Lor), _, _) -> None
  | Binop (op, a, b) -> (
      match (try_const ctx a, try_const ctx b) with
      | Some a, Some b -> const_binop op a b
      | _ -> None)
  | Ident _ | Index _ | Addr _ | Addr_index _ | Call _ -> None

and const_binop op a b =
  let bool_ c = Some (if c then 1 else 0) in
  match (op : Ast.binop) with
  | Mul -> Some (Word32.mul a b)
  | Div -> if b = 0 then None else Some (Word32.divu a b)
  | Mod -> if b = 0 then None else Some (Word32.remu a b)
  | Add -> Some (Word32.add a b)
  | Sub -> Some (Word32.sub a b)
  | Shl -> Some (Word32.shl a b)
  | Shr -> Some (Word32.shru a b)
  | Lt -> bool_ (Word32.lt_u a b)
  | Le -> bool_ (not (Word32.lt_u b a))
  | Gt -> bool_ (Word32.lt_u b a)
  | Ge -> bool_ (not (Word32.lt_u a b))
  | Eq -> bool_ (a = b)
  | Ne -> bool_ (a <> b)
  | Band -> Some (a land b)
  | Bxor -> Some (a lxor b)
  | Bor -> Some (a lor b)
  | Land | Lor -> None

(* Compute the absolute address of [name[idx]] into a temp register and
   return it (element size attached).  Pushes nothing. *)
let rec gen_index_addr ctx name idx =
  let elem, base =
    match Hashtbl.find_opt ctx.slots name with
    | Some (Sarray a) -> (a.a_elem, `Local a.a_data_off)
    | Some (Svar _) -> errf "%s: %s is not an array" ctx.fn.fname name
    | None -> (
        match Check.lookup ctx.env name with
        | Some (Check.Array { elem; _ }) -> (elem, `Global)
        | _ -> errf "%s: %s is not an array" ctx.fn.fname name)
  in
  gen_expr ctx idx;
  let ri = pop_any ctx in
  (match elem with
  | Ast.Word -> emit_i ctx (Alui (Shl, ri, ri, 2))
  | Ast.Byte -> ());
  (match base with
  | `Global ->
      let rb = alloc_reg ctx in
      emit ctx (Asm.la rb name);
      emit_i ctx (Alu (Add, ri, ri, rb));
      release ctx rb
  | `Local off ->
      emit_i ctx (Alu (Add, ri, ri, Reg.s0));
      emit_i ctx (Alui (Add, ri, ri, off)));
  (ri, elem)

and gen_expr ctx (e : Ast.expr) =
  match try_const ctx e with
  | Some c -> push_const ctx c
  | None -> gen_expr_nonconst ctx e

and gen_expr_nonconst ctx (e : Ast.expr) =
  match e with
  | Int n -> push_const ctx n
  | Ident name -> (
      match Hashtbl.find_opt ctx.slots name with
      | Some (Svar off) ->
          let r = alloc_reg ctx in
          if sanitize ctx then begin
            (* locals live in memory in this compiler, so ASAN-faithful
               instrumentation covers them like any other memory operand *)
            emit_i ctx (Alui (Add, r, Reg.s0, off));
            emit_check ctx ~is_write:false ~size:4 r;
            emit_i ctx (Load (W32, false, r, r, 0))
          end
          else emit_i ctx (Load (W32, false, r, Reg.s0, off));
          push_reg ctx r
      | Some (Sarray _) -> errf "%s: array %s as scalar" ctx.fn.fname name
      | None ->
          (* global scalar *)
          let r = alloc_reg ctx in
          emit ctx (Asm.la r name);
          emit_check ctx ~is_write:false ~size:4 r;
          emit_i ctx (Load (W32, false, r, r, 0));
          push_reg ctx r)
  | Index (name, idx) ->
      let ra, elem = gen_index_addr ctx name idx in
      let size = Ast.elem_bytes elem in
      emit_check ctx ~is_write:false ~size ra;
      let width : Insn.width = match elem with Ast.Word -> W32 | Ast.Byte -> W8 in
      emit_i ctx (Load (width, false, ra, ra, 0));
      push_reg ctx ra
  | Addr name -> (
      let r = alloc_reg ctx in
      (match Hashtbl.find_opt ctx.slots name with
      | Some (Svar off) -> emit_i ctx (Alui (Add, r, Reg.s0, off))
      | Some (Sarray a) -> emit_i ctx (Alui (Add, r, Reg.s0, a.a_data_off))
      | None -> emit ctx (Asm.la r name));
      push_reg ctx r)
  | Addr_index (name, idx) ->
      let ra, _elem = gen_index_addr ctx name idx in
      push_reg ctx ra
  | Unop (op, a) -> (
      gen_expr ctx a;
      let r = pop_any ctx in
      (match op with
      | Neg -> emit_i ctx (Alu (Sub, r, Reg.zero, r))
      | Not -> emit_i ctx (Alui (Sltu, r, r, 1))
      | Bnot -> emit_i ctx (Alui (Xor, r, r, -1)));
      push_reg ctx r)
  | Binop (Land, a, b) -> gen_short_circuit ctx ~is_and:true a b
  | Binop (Lor, a, b) -> gen_short_circuit ctx ~is_and:false a b
  | Binop (op, a, b) -> gen_binop ctx op a b
  | Call (name, args) when Ast.is_builtin name -> gen_builtin ctx name args
  | Call (name, args) ->
      List.iter (gen_expr ctx) args;
      (* pop args right-to-left into a_{n-1}..a_0 *)
      let n = List.length args in
      for i = n - 1 downto 0 do
        pop_into ctx Reg.args.(i)
      done;
      spill_all ctx;
      emit ctx (Asm.call name);
      let r = alloc_reg ctx in
      emit_i ctx (Alui (Add, r, Reg.a0, 0));
      push_reg ctx r

and gen_short_circuit ctx ~is_and a b =
  gen_expr ctx a;
  let ra = pop_any ctx in
  spill_all ctx;
  let rd = alloc_reg ctx in
  emit_i ctx (Alu (Sne, rd, ra, Reg.zero));
  release ctx ra;
  let skip = fresh_label ctx (if is_and then "and_skip" else "or_skip") in
  if is_and then emit ctx (Asm.beqz rd skip) else emit ctx (Asm.bnez rd skip);
  gen_expr ctx b;
  let rb = pop_any ctx in
  emit_i ctx (Alu (Sne, rd, rb, Reg.zero));
  release ctx rb;
  emit ctx (Asm.Label skip);
  push_reg ctx rd

and gen_binop ctx op a b =
  gen_expr ctx a;
  gen_expr ctx b;
  (* immediate forms for constant right operands *)
  let imm_op : Ast.binop -> Insn.alu_op option = function
    | Add -> Some Add
    | Sub -> Some Sub
    | Mul -> Some Mul
    | Band -> Some And
    | Bor -> Some Or
    | Bxor -> Some Xor
    | Shl -> Some Shl
    | Shr -> Some Shru
    | Lt -> Some Sltu
    | Eq -> Some Seq
    | Ne -> Some Sne
    | Div | Mod | Le | Gt | Ge | Land | Lor -> None
  in
  match (ctx.vstack, imm_op op) with
  | Lconst c :: _, Some alu ->
      ignore (pop_loc ctx);
      let r = pop_any ctx in
      (* Seq/Sne have no immediate form in the ISA; synthesize via xor *)
      (match alu with
      | Seq ->
          emit_i ctx (Alui (Xor, r, r, c));
          emit_i ctx (Alui (Sltu, r, r, 1))
      | Sne ->
          emit_i ctx (Alui (Xor, r, r, c));
          emit_i ctx (Alu (Sltu, r, Reg.zero, r))
      | Add | Sub | Mul | And | Or | Xor | Shl | Shru | Sltu ->
          emit_i ctx (Alui (alu, r, r, c))
      | Divu | Remu | Shrs | Slt -> assert false);
      push_reg ctx r
  | _ ->
      let rb = pop_any ctx in
      let ra = pop_any ctx in
      (match (op : Ast.binop) with
      | Mul -> emit_i ctx (Alu (Mul, ra, ra, rb))
      | Div -> emit_i ctx (Alu (Divu, ra, ra, rb))
      | Mod -> emit_i ctx (Alu (Remu, ra, ra, rb))
      | Add -> emit_i ctx (Alu (Add, ra, ra, rb))
      | Sub -> emit_i ctx (Alu (Sub, ra, ra, rb))
      | Shl -> emit_i ctx (Alu (Shl, ra, ra, rb))
      | Shr -> emit_i ctx (Alu (Shru, ra, ra, rb))
      | Lt -> emit_i ctx (Alu (Sltu, ra, ra, rb))
      | Le ->
          emit_i ctx (Alu (Sltu, ra, rb, ra));
          emit_i ctx (Alui (Xor, ra, ra, 1))
      | Gt -> emit_i ctx (Alu (Sltu, ra, rb, ra))
      | Ge ->
          emit_i ctx (Alu (Sltu, ra, ra, rb));
          emit_i ctx (Alui (Xor, ra, ra, 1))
      | Eq -> emit_i ctx (Alu (Seq, ra, ra, rb))
      | Ne -> emit_i ctx (Alu (Sne, ra, ra, rb))
      | Band -> emit_i ctx (Alu (And, ra, ra, rb))
      | Bxor -> emit_i ctx (Alu (Xor, ra, ra, rb))
      | Bor -> emit_i ctx (Alu (Or, ra, ra, rb))
      | Land | Lor -> assert false);
      release ctx rb;
      push_reg ctx ra

and gen_builtin ctx name args =
  let mem_load width size =
    match args with
    | [ p ] ->
        gen_expr ctx p;
        let r = pop_any ctx in
        emit_check ctx ~is_write:false ~size r;
        emit_i ctx (Load (width, false, r, r, 0));
        push_reg ctx r
    | _ -> assert false
  in
  let mem_store width size =
    match args with
    | [ p; v ] ->
        gen_expr ctx p;
        gen_expr ctx v;
        let rv = pop_any ctx in
        let rp = pop_any ctx in
        emit_check ctx ~is_write:true ~size rp;
        emit_i ctx (Store (width, rp, rv, 0));
        release ctx rv;
        release ctx rp;
        push_const ctx 0
    | _ -> assert false
  in
  match (name, args) with
  | "load8", _ -> mem_load W8 1
  | "load16", _ -> mem_load W16 2
  | "load32", _ -> mem_load W32 4
  | "store8", _ -> mem_store W8 1
  | "store16", _ -> mem_store W16 2
  | "store32", _ -> mem_store W32 4
  | ("trap0" | "trap1" | "trap2" | "trap3"), Ast.Int num :: rest ->
      List.iter (gen_expr ctx) rest;
      let n = List.length rest in
      for i = n - 1 downto 0 do
        pop_into ctx Reg.args.(i)
      done;
      emit_i ctx (Trap num);
      let r = alloc_reg ctx in
      emit_i ctx (Alui (Add, r, Reg.a0, 0));
      push_reg ctx r
  | ("trap0" | "trap1" | "trap2" | "trap3"), _ ->
      errf "%s: trap number must be a literal" ctx.fn.fname
  | "halt", [ c ] ->
      gen_expr ctx c;
      pop_into ctx Reg.a0;
      emit_i ctx Halt;
      push_const ctx 0
  | ("amo_add" | "amo_swap"), [ p; v ] ->
      gen_expr ctx p;
      gen_expr ctx v;
      let rv = pop_any ctx in
      let rp = pop_any ctx in
      (* atomics are marked accesses: KASAN checks them, KCSAN ignores them *)
      if ctx.opts.mode <> Inline_kcsan then emit_check ctx ~is_write:true ~size:4 rp;
      let op : Insn.amo_op = if name = "amo_add" then Amo_add else Amo_swap in
      emit_i ctx (Amo (op, rp, rp, rv));
      release ctx rv;
      push_reg ctx rp
  | "icall3", fp :: args3 ->
      gen_expr ctx fp;
      List.iter (gen_expr ctx) args3;
      let n = List.length args3 in
      for i = n - 1 downto 0 do
        pop_into ctx Reg.args.(i)
      done;
      let rfp = pop_any ctx in
      spill_all ctx;
      emit_i ctx (Jalr (Reg.ra, rfp, 0));
      release ctx rfp;
      let r = alloc_reg ctx in
      emit_i ctx (Alui (Add, r, Reg.a0, 0));
      push_reg ctx r
  | "slt", [ a; b ] | "sgt", [ b; a ] ->
      gen_expr ctx a;
      gen_expr ctx b;
      let rb = pop_any ctx in
      let ra = pop_any ctx in
      emit_i ctx (Alu (Slt, ra, ra, rb));
      release ctx rb;
      push_reg ctx ra
  | _ -> errf "%s: bad builtin use %s" ctx.fn.fname name

(* --- Statements ----------------------------------------------------------------- *)

let rec gen_stmt ctx (s : Ast.stmt) =
  match s with
  | Expr e ->
      gen_expr ctx e;
      discard ctx
  | Assign (name, e) -> (
      match Hashtbl.find_opt ctx.slots name with
      | Some (Svar off) ->
          gen_expr ctx e;
          let r = pop_any ctx in
          if sanitize ctx then begin
            let ra = alloc_reg ctx in
            emit_i ctx (Alui (Add, ra, Reg.s0, off));
            emit_check ctx ~is_write:true ~size:4 ra;
            emit_i ctx (Store (W32, ra, r, 0));
            release ctx ra
          end
          else emit_i ctx (Store (W32, Reg.s0, r, off));
          release ctx r
      | Some (Sarray _) -> errf "%s: assign to array %s" ctx.fn.fname name
      | None ->
          (* global scalar *)
          gen_expr ctx e;
          let rv = pop_any ctx in
          let rb = alloc_reg ctx in
          emit ctx (Asm.la rb name);
          emit_check ctx ~is_write:true ~size:4 rb;
          emit_i ctx (Store (W32, rb, rv, 0));
          release ctx rb;
          release ctx rv)
  | Assign_index (name, idx, e) ->
      let ra, elem = gen_index_addr ctx name idx in
      push_reg ctx ra;
      gen_expr ctx e;
      let rv = pop_any ctx in
      let ra = pop_any ctx in
      let size = Ast.elem_bytes elem in
      emit_check ctx ~is_write:true ~size ra;
      let width : Insn.width = match elem with Ast.Word -> W32 | Ast.Byte -> W8 in
      emit_i ctx (Store (width, ra, rv, 0));
      release ctx rv;
      release ctx ra
  | If (cond, then_, else_) ->
      gen_expr ctx cond;
      let r = pop_any ctx in
      release ctx r;
      let lelse = fresh_label ctx "else" in
      emit ctx (Asm.beqz r lelse);
      emit_kcov ctx;
      List.iter (gen_stmt ctx) then_;
      if else_ = [] then emit ctx (Asm.Label lelse)
      else begin
        let lend = fresh_label ctx "endif" in
        emit ctx (Asm.j lend);
        emit ctx (Asm.Label lelse);
        emit_kcov ctx;
        List.iter (gen_stmt ctx) else_;
        emit ctx (Asm.Label lend)
      end
  | While (cond, body) ->
      let lcond = fresh_label ctx "while" in
      let lend = fresh_label ctx "wend" in
      emit_kcov ctx;
      emit ctx (Asm.Label lcond);
      gen_expr ctx cond;
      let r = pop_any ctx in
      release ctx r;
      emit ctx (Asm.beqz r lend);
      ctx.loops <- (lcond, lend) :: ctx.loops;
      List.iter (gen_stmt ctx) body;
      ctx.loops <- List.tl ctx.loops;
      emit ctx (Asm.j lcond);
      emit ctx (Asm.Label lend)
  | Return (Some e) ->
      gen_expr ctx e;
      pop_into ctx Reg.a0;
      emit ctx (Asm.j ctx.exit_label)
  | Return None ->
      emit_i ctx (Li (Reg.a0, 0));
      emit ctx (Asm.j ctx.exit_label)
  | Break -> (
      match ctx.loops with
      | (_, brk) :: _ -> emit ctx (Asm.j brk)
      | [] -> errf "%s: break outside loop" ctx.fn.fname)
  | Continue -> (
      match ctx.loops with
      | (cont, _) :: _ -> emit ctx (Asm.j cont)
      | [] -> errf "%s: continue outside loop" ctx.fn.fname)
  | Local (name, init) -> (
      match init with
      | None -> ()
      | Some e -> gen_stmt ctx (Assign (name, e)))
  | Local_array _ -> ()

(* --- Frame layout and function assembly ------------------------------------------ *)

let align4 n = (n + 3) land lnot 3
let align8 n = (n + 7) land lnot 7

let layout_frame env opts (f : Ast.func) =
  ignore env;
  let slots = Hashtbl.create 16 in
  let cursor = ref (-8) in
  let alloc_var name =
    cursor := !cursor - 4;
    Hashtbl.replace slots name (Svar !cursor)
  in
  List.iter alloc_var f.params;
  let arrays = ref [] in
  let protected = opts.mode <> Plain && has_redzones opts.mode && not f.no_sanitize in
  let rec scan (s : Ast.stmt) =
    match s with
    | Local (name, _) -> alloc_var name
    | Local_array (name, elem, count) ->
        (* protected arrays are 8-aligned so shadow granule math is exact *)
        let data_size =
          if protected then align8 (count * Ast.elem_bytes elem)
          else align4 (count * Ast.elem_bytes elem)
        in
        let rz = if protected then align8 opts.redzone else 0 in
        let region_size = data_size + (2 * rz) in
        cursor := !cursor - region_size;
        if protected then cursor := !cursor land lnot 7;
        let region_off = !cursor in
        let slot =
          {
            a_elem = elem;
            a_count = count;
            a_data_off = region_off + rz;
            a_region_off = region_off;
            a_region_size = region_size;
          }
        in
        Hashtbl.replace slots name (Sarray slot);
        arrays := slot :: !arrays
    | If (_, a, b) ->
        List.iter scan a;
        List.iter scan b
    | While (_, body) -> List.iter scan body
    | Expr _ | Assign _ | Assign_index _ | Return _ | Break | Continue -> ()
  in
  List.iter scan f.body;
  let frame_size = (- !cursor + 7) land lnot 7 in
  (slots, frame_size, List.rev !arrays)

(* Poison or unpoison a region through the mode's mechanism. *)
let emit_stack_region_callout ctx ~poison ~offset ~size =
  emit_i ctx (Alui (Add, Reg.a0, Reg.s0, offset));
  emit_i ctx (Li (Reg.a1, size));
  match ctx.opts.mode with
  | Trap_callout ->
      emit_i ctx
        (Trap
           (if poison then Hypercall.san_stack_poison
            else Hypercall.san_stack_unpoison))
  | Inline_kasan ->
      emit ctx (Asm.call (if poison then "__kasan_poison" else "__kasan_unpoison"))
  | Plain | Inline_kcsan -> ()

let gen_func env opts counter (f : Ast.func) =
  let slots, frame_size, arrays = layout_frame env opts f in
  let ctx =
    {
      env;
      opts;
      fn = f;
      slots;
      frame_size;
      counter;
      out = [];
      vstack = [];
      free = temp_pool;
      loops = [];
      exit_label = Printf.sprintf ".Lexit_%s" f.fname;
    }
  in
  let protected = sanitize ctx && has_redzones opts.mode in
  (* prologue *)
  emit ctx (Asm.Label f.fname);
  emit_i ctx (Alui (Add, Reg.sp, Reg.sp, -frame_size));
  emit_i ctx (Store (W32, Reg.sp, Reg.ra, frame_size - 4));
  emit_i ctx (Store (W32, Reg.sp, Reg.s0, frame_size - 8));
  emit_i ctx (Alui (Add, Reg.s0, Reg.sp, frame_size));
  List.iteri
    (fun i p ->
      match Hashtbl.find ctx.slots p with
      | Svar off -> emit_i ctx (Store (W32, Reg.s0, Reg.args.(i), off))
      | Sarray _ -> assert false)
    f.params;
  emit_kcov ctx;
  if protected then
    List.iter
      (fun a ->
        let rz = a.a_data_off - a.a_region_off in
        emit_stack_region_callout ctx ~poison:true ~offset:a.a_region_off ~size:rz;
        emit_stack_region_callout ctx ~poison:true
          ~offset:(a.a_data_off + align8 (a.a_count * Ast.elem_bytes a.a_elem))
          ~size:rz)
      arrays;
  (* body *)
  List.iter (gen_stmt ctx) f.body;
  (* implicit return 0 when control falls off the end *)
  emit_i ctx (Li (Reg.a0, 0));
  (* epilogue *)
  emit ctx (Asm.Label ctx.exit_label);
  if protected && arrays <> [] then begin
    (* preserve the return value across the unpoison callouts *)
    emit_i ctx (Alui (Add, Reg.t4, Reg.a0, 0));
    List.iter
      (fun a ->
        emit_stack_region_callout ctx ~poison:false ~offset:a.a_region_off
          ~size:a.a_region_size)
      arrays;
    emit_i ctx (Alui (Add, Reg.a0, Reg.t4, 0))
  end;
  emit_i ctx (Load (W32, false, Reg.ra, Reg.s0, -4));
  emit_i ctx (Alui (Add, Reg.sp, Reg.s0, 0));
  emit_i ctx (Load (W32, false, Reg.s0, Reg.sp, -8));
  emit ctx Asm.ret;
  List.rev ctx.out

(* --- Global data ------------------------------------------------------------------- *)

let gen_globals opts (globals : Ast.global list) =
  let protected = has_redzones opts.mode in
  let rz = align8 opts.redzone in
  List.concat_map
    (fun (g : Ast.global) ->
      match g with
      | Gvar (name, init) -> [ Asm.Align 4; Asm.Label name; Asm.Words [ init ] ]
      | Garray (name, elem, count, init) ->
          let total = count * Ast.elem_bytes elem in
          let body =
            match init with
            | Zero -> [ Asm.Space total ]
            | Word_init ws ->
                let pad = count - List.length ws in
                [ Asm.Words (ws @ List.init pad (fun _ -> 0)) ]
            | Str_init s ->
                [ Asm.Bytes (s ^ String.make (total - String.length s) '\000') ]
          in
          if protected then
            (* 8-aligned, redzones on both sides; tail padded to a granule *)
            [ Asm.Align 8; Asm.Space rz; Asm.Label name ]
            @ body
            @ [ Asm.Space (rz + (align8 total - total)) ]
          else (Asm.Align 4 :: Asm.Label name :: body))
    globals

(* Global arrays of the whole program, for crt0 registration. *)
let protected_globals (units : Ast.comp_unit list) =
  List.concat_map
    (fun (u : Ast.comp_unit) ->
      List.filter_map
        (fun (g : Ast.global) ->
          match g with
          | Garray (name, elem, count, _) -> Some (name, count * Ast.elem_bytes elem)
          | Gvar _ -> None)
        u.globals)
    units

(* --- Startup code -------------------------------------------------------------------- *)

let gen_crt0 opts ~stack_top units =
  let items = ref [ Asm.Label "_start" ] in
  let emit i = items := i :: !items in
  (* the platform reserves the top of RAM (shadow region); all modes use the
     same stack top so overhead comparisons run identical memory layouts *)
  emit (Asm.li Reg.sp stack_top);
  (match opts.mode with
  | Trap_callout ->
      List.iter
        (fun (name, size) ->
          emit (Asm.la Reg.a0 name);
          emit (Asm.li Reg.a1 size);
          emit (Asm.trap Hypercall.san_global))
        (protected_globals units)
  | Inline_kasan ->
      List.iter
        (fun (name, size) ->
          emit (Asm.la Reg.a0 name);
          emit (Asm.li Reg.a1 size);
          emit (Asm.call "__kasan_register_global"))
        (protected_globals units)
  | Plain | Inline_kcsan -> ());
  emit (Asm.call "kmain");
  emit Asm.halt;
  { Asm.unit_name = "crt0"; text = List.rev !items; data = [] }

(* --- Program compilation ---------------------------------------------------------------- *)

(** Compile checked units into assembler units (crt0 first).  The caller is
    responsible for linking mode-appropriate runtime units (sanitizer glue,
    stubs) before assembling. *)
let compile_program env opts ~stack_top (units : Ast.comp_unit list) =
  let counter = ref 0 in
  let asm_units =
    List.map
      (fun (u : Ast.comp_unit) ->
        {
          Asm.unit_name = u.cu_name;
          text = List.concat_map (gen_func env opts counter) u.funcs;
          data = gen_globals opts u.globals;
        })
      units
  in
  gen_crt0 opts ~stack_top units :: asm_units
