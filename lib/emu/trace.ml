(* Execution tracing through the probe machinery: a bounded ring of
   block/call/return (and optionally memory) events, symbolized at print
   time.  The emulator-side introspection a firmware analyst drives the
   machine with (`embsan trace ...`). *)

type event =
  | Block of { bt_hart : int; bt_pc : int }
  | Call of { ct_hart : int; ct_pc : int; ct_target : int; ct_args : int array }
  | Return of { rt_hart : int; rt_pc : int; rt_retval : int }
  | Mem of {
      mt_hart : int;
      mt_pc : int;
      mt_addr : int;
      mt_size : int;
      mt_is_write : bool;
      mt_value : int;
    }

type t = {
  ring : event array;
  mutable next : int;
  mutable total : int;
  machine : Machine.t;
}

let push t ev =
  t.ring.(t.next) <- ev;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1

(** Attach a tracer; [mem] additionally records every memory access (very
    verbose - the ring keeps only the newest [capacity] events). *)
let attach ?(capacity = 256) ?(mem = false) ?(blocks = true) (m : Machine.t) =
  let t =
    {
      ring = Array.make (max 1 capacity) (Block { bt_hart = 0; bt_pc = 0 });
      next = 0;
      total = 0;
      machine = m;
    }
  in
  if blocks then
    Probe.on_block m.probes (fun ~hart ~pc ->
        push t (Block { bt_hart = hart; bt_pc = pc }));
  Probe.on_call m.probes
    (Probe.every_call (fun (ev : Probe.call_event) ->
         let cpu = m.harts.(ev.c_hart) in
         let args =
           Array.map (fun r -> Cpu.get cpu r) Embsan_isa.Reg.args
         in
         push t
           (Call
              { ct_hart = ev.c_hart; ct_pc = ev.c_pc; ct_target = ev.c_target;
                ct_args = args })));
  Probe.on_ret m.probes
    (Probe.every_ret (fun (ev : Probe.ret_event) ->
         push t
           (Return { rt_hart = ev.r_hart; rt_pc = ev.r_pc; rt_retval = ev.r_retval })));
  if mem then
    Probe.on_mem m.probes
      (Probe.every_mem (fun ~hart ~pc ~addr ~size ~is_write ~is_atomic:_ ~value ->
        push t
          (Mem
             {
               mt_hart = hart;
               mt_pc = pc;
               mt_addr = addr;
               mt_size = size;
               mt_is_write = is_write;
               mt_value = value;
             })));
  t

(** Events currently in the ring, oldest first. *)
let events t =
  let n = Array.length t.ring in
  let count = min t.total n in
  List.init count (fun i -> t.ring.((t.next - count + i + (2 * n)) mod n))

(** Total events observed (including those evicted from the ring). *)
let total t = t.total

let pp_event ?(symbolize = fun _ -> None) fmt = function
  | Block { bt_hart; bt_pc } ->
      Fmt.pf fmt "hart%d  block  %s%s" bt_hart (Word32_hex.hex bt_pc)
        (match symbolize bt_pc with Some s -> "  <" ^ s ^ ">" | None -> "")
  | Call { ct_hart; ct_target; ct_args; _ } ->
      Fmt.pf fmt "hart%d  call   %s%s(%s)" ct_hart (Word32_hex.hex ct_target)
        (match symbolize ct_target with Some s -> "  " ^ s | None -> "")
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "0x%x") ct_args)))
  | Return { rt_hart; rt_retval; _ } ->
      Fmt.pf fmt "hart%d  ret    -> 0x%x" rt_hart rt_retval
  | Mem { mt_hart; mt_addr; mt_size; mt_is_write; mt_value; _ } ->
      Fmt.pf fmt "hart%d  %s%d  %s%s" mt_hart
        (if mt_is_write then "st" else "ld")
        mt_size (Word32_hex.hex mt_addr)
        (if mt_is_write then Printf.sprintf " <- 0x%x" mt_value else "")

let pp ?symbolize fmt t =
  Fmt.pf fmt "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (pp_event ?symbolize))
    (events t)
