(* Memory-mapped device interface.

   [checkpoint ()] captures the device's *guest-visible* state for the
   snapshot service and returns the closure that restores it; the
   closure reverts this device only, and can be called any number of
   times.  Host-side wiring (callbacks such as the mailbox's [on_ready])
   is not state and survives a restore untouched.  Stateless devices use
   {!stateless}. *)

type t = {
  base : int;
  size : int;
  read : offset:int -> width:int -> int;
  write : offset:int -> width:int -> value:int -> unit;
  checkpoint : unit -> unit -> unit;
}

(** The checkpoint of a device with no guest-visible state. *)
let stateless () () = ()
