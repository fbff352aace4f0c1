(* UBSAN-style unaligned-access detector: the plugin architecture's
   drop-in proof.

   This sanitizer exists entirely outside the Common Sanitizer Runtime: this
   module (a {!Sanitizer.S} implementation whose interface header lets the
   Distiller emit its DSL entry) plus one line in the {!Plugins} table.
   Neither runtime.ml, machine.ml nor probe.ml know it exists; both
   instrumentation backends reach it through the compiled dispatch plans.

   Detection: a 2- or 4-byte access whose address is not a multiple of its
   size.  The emulated cores tolerate misalignment (like ARMv7's unaligned
   load/store support), so these bugs are silent until the firmware runs
   on a stricter core - exactly the class a sanitizer should surface. *)

type t = {
  sink : Report.sink;
  symbolize : int -> string option;
  mutable checks : int;
  mutable unaligned : int;
}

let create ~sink ~symbolize () = { sink; symbolize; checks = 0; unaligned = 0 }

let on_access t ~addr ~size ~is_write ~pc ~hart =
  t.checks <- t.checks + 1;
  if size > 1 && addr land (size - 1) <> 0 then begin
    t.unaligned <- t.unaligned + 1;
    ignore
      (Report.add t.sink
         {
           kind = Report.Unaligned_access;
           sanitizer = "ualign";
           addr;
           size;
           is_write;
           pc;
           hart;
           location = t.symbolize pc;
           detail =
             Printf.sprintf "address 0x%08x is not %d-byte aligned" addr size;
         })
  end

(* --- Plugin ------------------------------------------------------------------ *)

module Plugin = struct
  let header =
    {|
/* UBSAN-style unaligned-access detector - interception interface */
sanitizer ualign;
resource alignment_rules;
check  load(addr, size, pc) => check_align;
check  store(addr, size, pc) => check_align;
|}

  type nonrec t = t

  let create (ctx : Sanitizer.ctx) =
    create ~sink:ctx.sink ~symbolize:ctx.symbolize ()

  let access t ~pc ~size ~is_write ~is_atomic:_ : Sanitizer.site =
   fun ~hart ~addr -> on_access t ~addr ~size ~is_write ~pc ~hart

  let clean_count _ = None
  let event _ _ = ()
  let scan _ ~now:_ = 0

  let checkpoint t =
    let checks = t.checks and unaligned = t.unaligned in
    fun () ->
      t.checks <- checks;
      t.unaligned <- unaligned

  let stats t = [ ("checks", t.checks); ("unaligned", t.unaligned) ]
end

let plugin = Sanitizer.make (module Plugin)
