(* Embedded Platform Configuration Prober (S3.2).

   Produces the platform description and initial setup routine, in the DSL,
   for the three firmware categories:

   1. [probe_instrumented] - open source with compile-time instrumentation:
      dry-run the trap-instrumented firmware against the dummy sanitizer
      library; every sanitizer action before the ready-to-run doorbell is
      recorded and compiled into the DSL init routine.
   2. [probe_symbols] - open source without instrumentation: identify the
      allocator interception functions and the heap region from the symbol
      table (with optional domain-specific hints), and dry-run to confirm
      the firmware boots and to locate the ready point.
   3. [probe_binary] - closed-source, stripped binary: scan decoded code
      for function prologues, dry-run with call/return probes, and infer
      allocator candidates from dynamic behavior; tester hints can override
      ("human intervention", S3.2). *)

open Embsan_isa
open Embsan_emu

type platform = {
  p_arch : Arch.t;
  p_entry : int;
  p_ram_base : int;
  p_ram_size : int;
  p_functions : Dsl.func_sig list;
  p_exempts : Dsl.exempt list;
  p_init : Dsl.init_action list;
  p_ready_insns : int; (* dry-run instructions until ready-to-run *)
  p_notes : string list;
}

type hints = {
  h_alloc_names : string list; (* extra allocator entry names *)
  h_free_names : string list;
  h_exempt_prefixes : string list; (* allocator-internal helper name prefixes *)
  h_heap_symbol : string option;
  h_heap_region : (int * int) option; (* absolute override *)
  h_alloc_addrs : (int * int) list; (* binary mode: (addr, size_arg) *)
  h_free_addrs : (int * int) list; (* binary mode: (addr, ptr_arg) *)
}

let no_hints =
  {
    h_alloc_names = [];
    h_free_names = [];
    h_exempt_prefixes = [];
    h_heap_symbol = None;
    h_heap_region = None;
    h_alloc_addrs = [];
    h_free_addrs = [];
  }

(* Default interception-function name patterns across the embedded OSs we
   target ("various Xalloc()", S3.2). *)
let default_alloc_names =
  [ "kmalloc"; "xmalloc"; "malloc"; "pvPortMalloc"; "LOS_MemAlloc"; "memPartAlloc" ]

let default_free_names =
  [ "kfree"; "xfree"; "free"; "vPortFree"; "LOS_MemFree"; "memPartFree" ]

let default_heap_symbols = [ "heap_pool"; "g_heap"; "ucHeap"; "mem_pool" ]

(* Allocator-internal helper prefixes: accesses from these functions are
   legal metadata traffic (the paper's "domain-specific prior knowledge"). *)
let default_exempt_prefixes =
  [ "slab_"; "heap4_"; "los_"; "vx_"; "kheap_"; "mem_part_" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let find_exempts_by_prefix (image : Image.t) ~prefixes =
  List.filter_map
    (fun (s : Image.symbol) ->
      if
        s.kind = Image.Func
        && List.exists (fun prefix -> starts_with ~prefix s.name) prefixes
      then Some { Dsl.e_name = s.name; e_addr = s.addr; e_size = s.size }
      else None)
    image.symbols

exception Probe_error of string

let errf fmt = Format.kasprintf (fun s -> raise (Probe_error s)) fmt

let boot_machine ?(harts = 2) ~ram_base ~ram_size (image : Image.t) =
  let m = Machine.create ~harts ~arch:image.arch ~ram_base ~ram_size () in
  Machine.load_image m image;
  Machine.boot m;
  m

let builtin_platform_traps m =
  (* platform services every firmware may use during boot *)
  Machine.set_trap_handler m Hypercall.hart_start (fun m cpu ->
      let id = Cpu.get cpu Reg.a0
      and pc = Cpu.get cpu Reg.a1
      and sp = Cpu.get cpu Reg.a2 in
      if id > 0 && id < Array.length m.harts then Machine.start_hart m id ~pc ~sp);
  Machine.set_trap_handler m Hypercall.current_hart (fun _m cpu ->
      Cpu.set cpu Reg.a0 cpu.Cpu.id);
  Machine.set_trap_handler m Hypercall.exit_ (fun _m cpu ->
      raise (Fault.Halted (Cpu.get cpu Reg.a0)));
  Machine.set_trap_handler m Hypercall.kcov (fun _ _ -> ());
  (* interrupt-stub announcement / end-of-interrupt: recorded and inert
     respectively during the probing dry run (no controller is armed) *)
  Machine.set_trap_handler m Hypercall.irq_register (fun m cpu ->
      m.Machine.irq_entry <- Cpu.get cpu Reg.a0);
  Machine.set_trap_handler m Hypercall.irq_eoi (fun _ _ -> ())

(* --- Mode 1: compile-time instrumented firmware ------------------------------- *)

let probe_instrumented ?(ram_base = 0x0001_0000) ?(ram_size = 4 * 1024 * 1024)
    ?(boot_budget = 20_000_000) (image : Image.t) =
  let m = boot_machine ~ram_base ~ram_size image in
  builtin_platform_traps m;
  let actions = ref [] in
  let record a = actions := a :: !actions in
  (* access-check callouts, and sync-edge announcements (san_sync): inert
     during the dry run — a sanitizer plugin may claim them at attach *)
  let ignore_checks = [ 16; 17; 18; 19; 20; 21; Hypercall.san_sync ] in
  List.iter
    (fun n -> Machine.set_trap_handler m n (fun _ _ -> ()))
    ignore_checks;
  Machine.set_trap_handler m Hypercall.san_global (fun _m cpu ->
      record
        (Dsl.Region
           {
             name = "global";
             addr = Cpu.get cpu Reg.a0;
             size = Cpu.get cpu Reg.a1;
           }));
  Machine.set_trap_handler m Hypercall.san_stack_poison (fun _m cpu ->
      record
        (Dsl.Poison
           { addr = Cpu.get cpu Reg.a0; size = Cpu.get cpu Reg.a1; code = "stack" }));
  Machine.set_trap_handler m Hypercall.san_stack_unpoison (fun _m cpu ->
      record (Dsl.Unpoison { addr = Cpu.get cpu Reg.a0; size = Cpu.get cpu Reg.a1 }));
  Machine.set_trap_handler m Hypercall.san_poison_region (fun _m cpu ->
      record
        (Dsl.Poison
           { addr = Cpu.get cpu Reg.a0; size = Cpu.get cpu Reg.a1; code = "heap" }));
  Machine.set_trap_handler m Hypercall.san_alloc (fun _m cpu ->
      record (Dsl.Alloc { ptr = Cpu.get cpu Reg.a0; size = Cpu.get cpu Reg.a1 }));
  Machine.set_trap_handler m Hypercall.san_free (fun _m cpu ->
      record
        (Dsl.Poison
           { addr = Cpu.get cpu Reg.a0; size = Cpu.get cpu Reg.a1; code = "freed" }));
  (* heap-poison callouts arrive as stack_poison traps from the glue; the
     distinction is in the recorded region sizes - keep them as-is *)
  (match Machine.run_until_ready m ~max_insns:boot_budget with
  | None -> ()
  | Some stop ->
      errf "instrumented dry-run did not reach ready: %a" Machine.pp_stop stop);
  {
    p_arch = image.arch;
    p_entry = image.entry;
    p_ram_base = ram_base;
    p_ram_size = ram_size;
    p_functions = [];
    p_exempts = [];
    p_init = List.rev !actions;
    p_ready_insns = m.total_insns;
    p_notes = [ "mode=instrumented"; "init routine recorded from dry run" ];
  }

(* --- Mode 2: source / symbols available ----------------------------------------- *)

let find_functions_by_name (image : Image.t) ~alloc_names ~free_names =
  List.filter_map
    (fun (s : Image.symbol) ->
      if s.kind <> Image.Func then None
      else if List.mem s.name alloc_names then
        Some { Dsl.f_name = s.name; f_addr = s.addr; f_size = s.size; f_kind = `Alloc 0 }
      else if List.mem s.name free_names then
        Some { Dsl.f_name = s.name; f_addr = s.addr; f_size = s.size; f_kind = `Free 0 }
      else None)
    image.symbols

let find_heap_region (image : Image.t) hints =
  match hints.h_heap_region with
  | Some r -> Some r
  | None ->
      let candidates =
        match hints.h_heap_symbol with
        | Some s -> [ s ]
        | None -> default_heap_symbols
      in
      List.find_map
        (fun name ->
          match Image.find_symbol image name with
          | Some s -> Some (s.addr, s.size)
          | None -> None)
        candidates

let probe_symbols ?(ram_base = 0x0001_0000) ?(ram_size = 4 * 1024 * 1024)
    ?(boot_budget = 20_000_000) ?(hints = no_hints) (image : Image.t) =
  if Image.is_stripped image then
    errf "probe_symbols requires a symbol table (use probe_binary)";
  let functions =
    find_functions_by_name image
      ~alloc_names:(hints.h_alloc_names @ default_alloc_names)
      ~free_names:(hints.h_free_names @ default_free_names)
  in
  let has_alloc =
    List.exists
      (fun f -> match f.Dsl.f_kind with `Alloc _ -> true | `Free _ -> false)
      functions
  in
  let heap = find_heap_region image hints in
  let exempts =
    find_exempts_by_prefix image
      ~prefixes:(hints.h_exempt_prefixes @ default_exempt_prefixes)
  in
  let m = boot_machine ~ram_base ~ram_size image in
  builtin_platform_traps m;
  (match Machine.run_until_ready m ~max_insns:boot_budget with
  | None -> ()
  | Some stop -> errf "dry-run did not reach ready: %a" Machine.pp_stop stop);
  let init =
    match (heap, has_alloc) with
    | Some (addr, size), true ->
        [
          Dsl.Region { name = "heap"; addr; size };
          Dsl.Poison { addr; size; code = "heap" };
        ]
    | None, true -> [ Dsl.Note "heap region unknown: slab OOB coverage reduced" ]
    | _, false -> [ Dsl.Note "no allocator entry point found" ]
  in
  {
    p_arch = image.arch;
    p_entry = image.entry;
    p_ram_base = ram_base;
    p_ram_size = ram_size;
    p_functions = functions;
    p_exempts = exempts;
    p_init = init;
    p_ready_insns = m.total_insns;
    p_notes = [ "mode=symbols" ];
  }

(* --- Mode 3: closed-source binary ------------------------------------------------- *)

(* Function entries: an instruction that grows the stack followed within a
   few slots by a store of ra - our ABI's prologue shape, and a realistic
   binary-analysis heuristic. *)
let scan_prologues (image : Image.t) =
  match Image.section image "text" with
  | None -> []
  | Some sec ->
      let insns =
        try Codec.decode_all image.arch ~base:sec.base sec.data
        with Codec.Decode_error _ -> []
      in
      let arr = Array.of_list insns in
      let entries = ref [] in
      Array.iteri
        (fun i (addr, insn) ->
          match insn with
          | Insn.Alui (Add, rd, rs1, imm)
            when Reg.equal rd Reg.sp && Reg.equal rs1 Reg.sp && imm < 0 ->
              let is_ra_store j =
                if i + j >= Array.length arr then false
                else
                  match snd arr.(i + j) with
                  | Insn.Store (W32, base, src, _)
                    when Reg.equal base Reg.sp && Reg.equal src Reg.ra ->
                      true
                  | _ -> false
              in
              if is_ra_store 1 || is_ra_store 2 then entries := addr :: !entries
          | _ -> ())
        arr;
      List.rev !entries

(* one observed call to a recognized function entry *)
type call_record = {
  cr_target : int;
  cr_arg0 : int;
  cr_parent : int option; (* innermost active recognized call on this hart *)
  mutable cr_retval : int option;
}

(* Dry-run with call/return probes and infer allocator-shaped functions:
   boot-time calls with small first arguments returning distinct in-RAM
   pointers are allocators; functions called (outside allocator internals)
   with a previously returned pointer are frees.  Call-parent tracking
   excludes the allocator's internal helpers, which otherwise look exactly
   like frees (they receive the fresh pointer as an argument). *)
let probe_binary ?(ram_base = 0x0001_0000) ?(ram_size = 4 * 1024 * 1024)
    ?(boot_budget = 20_000_000) ?(hints = no_hints) (image : Image.t) =
  let entries = scan_prologues image in
  let m = boot_machine ~ram_base ~ram_size image in
  builtin_platform_traps m;
  let records : call_record list ref = ref [] in
  let pending : (int * int * call_record) list ref = ref [] in
  (* (hart, return addr, record); head = innermost *)
  let entry_set = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace entry_set a ()) entries;
  Probe.on_call m.probes
  @@ Probe.every_call (fun ev ->
      if Hashtbl.mem entry_set ev.c_target && List.length !records < 100_000
      then begin
        let parent =
          List.find_map
            (fun (h, _, r) -> if h = ev.c_hart then Some r.cr_target else None)
            !pending
        in
        let r =
          {
            cr_target = ev.c_target;
            cr_arg0 = Cpu.get m.harts.(ev.c_hart) Reg.a0;
            cr_parent = parent;
            cr_retval = None;
          }
        in
        records := r :: !records;
        pending := (ev.c_hart, ev.c_pc + Insn.size, r) :: !pending
      end);
  Probe.on_ret m.probes
  @@ Probe.every_ret (fun ev ->
      match
        List.partition
          (fun (h, ra, _) -> h = ev.r_hart && ra = ev.r_target)
          !pending
      with
      | (_, _, r) :: _, rest ->
          pending := rest;
          r.cr_retval <- Some ev.r_retval
      | [], _ -> ());
  (match Machine.run_until_ready m ~max_insns:boot_budget with
  | None -> ()
  | Some stop -> errf "binary dry-run did not reach ready: %a" Machine.pp_stop stop);
  let records = List.rev !records in
  let in_ram a = a >= ram_base && a < ram_base + ram_size in
  let distinct l = List.sort_uniq compare l in
  let targets = distinct (List.map (fun r -> r.cr_target) records) in
  let calls_of t = List.filter (fun r -> r.cr_target = t) records in
  let alloc_candidates =
    List.filter_map
      (fun t ->
        let calls = calls_of t in
        let rets = distinct (List.filter_map (fun r -> r.cr_retval) calls) in
        if
          List.length calls >= 2
          && List.length rets >= 2
          && List.for_all in_ram rets
          && List.for_all (fun r -> r.cr_arg0 > 0 && r.cr_arg0 < 0x10000) calls
        then Some (t, rets)
        else None)
      targets
  in
  let alloc_addrs = List.map fst alloc_candidates in
  let all_rets = List.concat_map snd alloc_candidates in
  (* first pass: called with an allocated pointer, never from inside an
     allocator *)
  let f0 =
    List.filter
      (fun t ->
        (not (List.mem t alloc_addrs))
        && List.exists
             (fun r ->
               List.mem r.cr_arg0 all_rets
               && not
                    (match r.cr_parent with
                    | Some p -> List.mem p alloc_addrs
                    | None -> false))
             (calls_of t))
      targets
  in
  (* second pass: drop helpers only ever invoked from inside another free
     candidate (e.g. the free routine's internal callees) *)
  let free_candidates =
    List.filter
      (fun t ->
        List.exists
          (fun r ->
            match r.cr_parent with
            | Some p -> not (List.mem p f0)
            | None -> true)
          (calls_of t))
      f0
  in
  (* function extent estimate: up to the next discovered prologue *)
  let sorted_entries = List.sort compare entries in
  let fn_size addr =
    let rec next = function
      | [] -> 512
      | e :: rest -> if e > addr then e - addr else next rest
    in
    min 4096 (next sorted_entries)
  in
  let functions =
    List.map
      (fun (addr, size_arg) ->
        {
          Dsl.f_name = Printf.sprintf "sub_%08x" addr;
          f_addr = addr;
          f_size = fn_size addr;
          f_kind = `Alloc size_arg;
        })
      (hints.h_alloc_addrs
      @ List.map (fun a -> (a, 0)) alloc_addrs)
    @ List.map
        (fun (addr, ptr_arg) ->
          {
            Dsl.f_name = Printf.sprintf "sub_%08x" addr;
            f_addr = addr;
            f_size = fn_size addr;
            f_kind = `Free ptr_arg;
          })
        (hints.h_free_addrs @ List.map (fun a -> (a, 0)) free_candidates)
  in
  let heap =
    match hints.h_heap_region with
    | Some r -> Some r
    | None -> (
        match distinct all_rets with
        | [] -> None
        | rets ->
            (* the allocator's arena starts at the first returned chunk;
               widen past the last observed chunk to cover later growth *)
            let lo = List.fold_left min max_int rets in
            let hi = List.fold_left max 0 rets in
            Some (lo, hi + 4096 - lo))
  in
  let candidate_addrs =
    alloc_addrs @ free_candidates
    @ List.map fst hints.h_alloc_addrs
    @ List.map fst hints.h_free_addrs
  in
  (* helpers invoked from inside allocator candidates handle metadata *)
  let exempts =
    List.filter_map
      (fun t ->
        if
          (not (List.mem t candidate_addrs))
          && List.exists
               (fun r ->
                 match r.cr_parent with
                 | Some p -> List.mem p candidate_addrs
                 | None -> false)
               (calls_of t)
        then
          Some
            {
              Dsl.e_name = Printf.sprintf "sub_%08x" t;
              e_addr = t;
              e_size = fn_size t;
            }
        else None)
      targets
  in
  let init =
    (match heap with
    | Some (addr, size) ->
        [
          Dsl.Region { name = "heap"; addr; size };
          Dsl.Poison { addr; size; code = "heap" };
        ]
    | None -> [])
    @ [ Dsl.Note "mode=binary: allocators inferred dynamically" ]
  in
  {
    p_arch = image.arch;
    p_entry = image.entry;
    p_ram_base = ram_base;
    p_ram_size = ram_size;
    p_functions = functions;
    p_exempts = exempts;
    p_init = init;
    p_ready_insns = m.total_insns;
    p_notes =
      [
        Printf.sprintf "mode=binary prologues=%d" (List.length entries);
        Printf.sprintf "alloc_candidates=%d free_candidates=%d"
          (List.length alloc_candidates)
          (List.length free_candidates);
      ];
  }

(** Fold a probed platform into a distilled DSL spec. *)
let apply_to_spec (spec : Dsl.spec) platform =
  {
    spec with
    Dsl.arch = Some platform.p_arch;
    functions = spec.Dsl.functions @ platform.p_functions;
    exempts = spec.Dsl.exempts @ platform.p_exempts;
    init = spec.Dsl.init @ platform.p_init;
  }
