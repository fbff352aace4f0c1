(** MiniC code generator targeting the EVA-32 assembler eDSL, with the
    sanitizer instrumentation passes:

    - [Plain]: no instrumentation (EmbSan-D target firmware);
    - [Trap_callout]: one trapping instruction per source-level memory
      access plus redzone callouts - EmbSan-C's dummy sanitizer library;
    - [Inline_kasan]: the native in-guest KASAN baseline (inline shadow
      fast path, stub slow path, redzones);
    - [Inline_kcsan]: the native in-guest KCSAN baseline (inline
      watchpoint-compare + sampling fast path).

    Instrumented accesses: array indexing, raw load/store builtins, atomics
    (KASAN only), global and local scalar accesses.  Compiler-managed frame
    traffic (parameter homes, spills) is not instrumented. *)

type mode = Plain | Trap_callout | Inline_kasan | Inline_kcsan

type options = {
  mode : mode;
  redzone : int;  (** bytes on each side of protected arrays *)
  shadow_offset : int;  (** inline KASAN: shadow at (addr>>3)+offset *)
  kcov : bool;  (** kcov-style coverage traps at entries/branch targets *)
}

(** Do globals/stack arrays get compile-time redzones in this mode? *)
val has_redzones : mode -> bool

exception Codegen_error of string

(** Compile checked units into assembler units (generated crt0 first).
    The caller links mode-appropriate runtime units before assembling. *)
val compile_program :
  Check.env ->
  options ->
  stack_top:int ->
  Ast.comp_unit list ->
  Embsan_isa.Asm.unit_ list
