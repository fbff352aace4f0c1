(* Standard platform devices.

   Fixed platform memory map (the "platform device memory allocation" the
   Prober must discover, S3.2):

     0xF000_0000  UART        (byte out, console capture)
     0xF000_0100  POWER       (write -> Halted with the written code)
     0xF000_0200  MAILBOX     (executor/syscall interface + ready doorbell)
     0xF000_0300  TIMER       (read -> low 32 bits of retired instructions)
     0xF000_0400  RNG         (deterministic xorshift32)

   Each stateful device implements the {!Device.t} [checkpoint] for the
   snapshot service.  It captures the *guest-visible* state only:
   host-side wiring (mailbox [on_ready]/[on_complete]) survives a restore
   untouched.  A restore rebuilds mutable containers in place, so aliases
   held by the machine stay valid. *)

let uart_base = 0xF000_0000
let power_base = 0xF000_0100
let mailbox_base = 0xF000_0200
let timer_base = 0xF000_0300
let rng_base = 0xF000_0400

(* --- UART ---------------------------------------------------------------- *)

type uart = { out : Buffer.t }

let uart () =
  let state = { out = Buffer.create 256 } in
  let read ~offset:_ ~width:_ = 0 in
  let write ~offset ~width:_ ~value =
    if offset = 0 then Buffer.add_char state.out (Char.chr (value land 0xFF))
  in
  let checkpoint () =
    let out = Buffer.contents state.out in
    fun () ->
      Buffer.clear state.out;
      Buffer.add_string state.out out
  in
  (state, { Device.base = uart_base; size = 0x100; read; write; checkpoint })

let uart_output u = Buffer.contents u.out
let uart_clear u = Buffer.clear u.out

(* --- Power --------------------------------------------------------------- *)

let power () =
  let read ~offset:_ ~width:_ = 0 in
  let write ~offset ~width:_ ~value =
    if offset = 0 then raise (Fault.Halted value)
  in
  { Device.base = power_base; size = 0x100; read; write;
    checkpoint = Device.stateless }

(* --- Mailbox (executor/syscall interface) -------------------------------- *)

(* Register map (offsets):
     0x00  REQ_PENDING  (RO: 1 if a request is waiting)
     0x04  NR           (RO: syscall number)
     0x08..0x1C  ARG0..ARG5
     0x20  RET          (WO: guest writes the syscall result)
     0x24  COMPLETE     (WO: guest writes 1 to acknowledge; pops the queue)
     0x28  READY        (WO: guest writes 1 at ready-to-run state) *)

type request = { nr : int; args : int array (* length 6 *) }

type completion = { c_nr : int; ret : int }

type mailbox = {
  queue : request Queue.t;
  mutable current : request option;
  mutable last_ret : int;
  mutable completions : completion list; (* most recent first *)
  mutable ready : bool;
  mutable on_ready : unit -> unit;
  mutable on_complete : completion -> unit;
}

let mailbox () =
  let state =
    {
      queue = Queue.create ();
      current = None;
      last_ret = 0;
      completions = [];
      ready = false;
      on_ready = ignore;
      on_complete = ignore;
    }
  in
  let pop () =
    if state.current = None && not (Queue.is_empty state.queue) then
      state.current <- Some (Queue.pop state.queue)
  in
  let read ~offset ~width:_ =
    pop ();
    match (state.current, offset) with
    | Some _, 0x00 -> 1
    | None, 0x00 -> 0
    | Some r, 0x04 -> r.nr
    | Some r, off when off >= 0x08 && off < 0x20 && (off - 8) mod 4 = 0 ->
        r.args.((off - 8) / 4)
    | (Some _ | None), _ -> 0
  in
  let write ~offset ~width:_ ~value =
    match offset with
    | 0x20 -> state.last_ret <- value
    | 0x24 ->
        (match state.current with
        | Some r ->
            let c = { c_nr = r.nr; ret = state.last_ret } in
            state.completions <- c :: state.completions;
            state.current <- None;
            state.on_complete c
        | None -> ())
    | 0x28 ->
        if value <> 0 && not state.ready then (
          state.ready <- true;
          state.on_ready ())
    | _ -> ()
  in
  (* a request's args array is copied in both directions, so the
     checkpoint shares no mutable structure with the live device;
     completions are immutable and shared *)
  let copy (r : request) = { r with args = Array.copy r.args } in
  let checkpoint () =
    let queue = List.of_seq (Seq.map copy (Queue.to_seq state.queue)) in
    let current = Option.map copy state.current in
    let last_ret = state.last_ret
    and completions = state.completions
    and ready = state.ready in
    fun () ->
      Queue.clear state.queue;
      List.iter (fun r -> Queue.push (copy r) state.queue) queue;
      state.current <- Option.map copy current;
      state.last_ret <- last_ret;
      state.completions <- completions;
      state.ready <- ready
  in
  ( state,
    { Device.base = mailbox_base; size = 0x100; read; write; checkpoint } )

let mailbox_push m ~nr ~args =
  let a = Array.make 6 0 in
  Array.blit args 0 a 0 (min (Array.length args) 6);
  Queue.push { nr; args = a } m.queue

let mailbox_ready m = m.ready
let mailbox_idle m = m.current = None && Queue.is_empty m.queue
let mailbox_completions m = List.rev m.completions
let mailbox_clear_completions m = m.completions <- []

(* --- Timer ---------------------------------------------------------------- *)

(* The timer reads the machine's retired-instruction counter, which the
   snapshot service restores separately; the device itself is stateless. *)
let timer ~now =
  let read ~offset ~width:_ = if offset = 0 then now () land 0xFFFF_FFFF else 0 in
  let write ~offset:_ ~width:_ ~value:_ = () in
  { Device.base = timer_base; size = 0x100; read; write;
    checkpoint = Device.stateless }

(* --- Deterministic RNG ----------------------------------------------------- *)

let rng ~seed =
  let state = ref (if seed = 0 then 0x9E3779B9 else seed land 0xFFFF_FFFF) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) land 0xFFFF_FFFF in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land 0xFFFF_FFFF in
    state := x;
    x
  in
  let read ~offset ~width:_ = if offset = 0 then next () else 0 in
  let write ~offset:_ ~width:_ ~value:_ = () in
  let checkpoint () =
    let x = !state in
    fun () -> state := x
  in
  { Device.base = rng_base; size = 0x100; read; write; checkpoint }
