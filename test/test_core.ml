(* Tests for the EmbSan core: distiller merge rules, DSL round-trip, shadow
   semantics, host KASAN/KCSAN runtimes, prober modes and end-to-end
   detection through the full prepare/attach flow. *)

open Embsan_isa
open Embsan_emu
open Embsan_core
open Embsan_minic

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Distiller ------------------------------------------------------------------ *)

let distiller_union () =
  let spec = Distiller.distill [ Api_spec.kasan (); Api_spec.kcsan () ] in
  Alcotest.(check (list string)) "sanitizers" [ "kasan"; "kcsan" ] spec.sanitizers;
  (* union of interception points: load appears once *)
  let loads =
    List.filter (fun i -> i.Dsl.i_point = Api_spec.P_load) spec.intercepts
  in
  Alcotest.(check int) "one load intercept" 1 (List.length loads);
  let load = List.hd loads in
  (* union of arguments, canonical order *)
  Alcotest.(check (list string))
    "merged args" [ "addr"; "size"; "pc"; "hart" ] load.i_args;
  (* both sanitizers attached with their own argument annotations *)
  Alcotest.(check (list string))
    "handlers"
    [ "kasan.check_access"; "kcsan.access" ]
    (List.map (fun h -> h.Dsl.h_san ^ "." ^ h.Dsl.h_op) load.i_handlers);
  let kasan_h = List.hd load.i_handlers in
  Alcotest.(check (list string)) "kasan segment" [ "addr"; "size" ] kasan_h.h_args;
  (* store merges value from kcsan *)
  let store =
    List.find (fun i -> i.Dsl.i_point = Api_spec.P_store) spec.intercepts
  in
  Alcotest.(check (list string))
    "store args" [ "addr"; "size"; "value"; "pc"; "hart" ] store.i_args;
  (* kasan-only points survive *)
  Alcotest.(check bool) "func_alloc present" true
    (Dsl.wants spec Api_spec.P_func_alloc "kasan");
  Alcotest.(check bool) "kcsan not on func_alloc" false
    (Dsl.wants spec Api_spec.P_func_alloc "kcsan")

let distiller_single () =
  let spec = Distiller.distill [ Api_spec.kcsan () ] in
  Alcotest.(check bool) "no alloc point" true
    (Dsl.find_intercept spec Api_spec.P_func_alloc = None);
  Alcotest.(check bool) "load wanted" true (Dsl.wants spec Api_spec.P_load "kcsan")

let header_parser_rejects () =
  (match Api_spec.parse_header "check load(a) => x;" with
  | _ -> Alcotest.fail "expected error (no sanitizer decl)"
  | exception Api_spec.Spec_error _ -> ());
  match Api_spec.parse_header "sanitizer s;\nfrobnicate load(a) => x;" with
  | _ -> Alcotest.fail "expected error (bad role)"
  | exception Api_spec.Spec_error _ -> ()

(* --- DSL ------------------------------------------------------------------------ *)

let dsl_roundtrip () =
  let spec =
    {
      Dsl.sanitizers = [ "kasan"; "kcsan" ];
      arch = Some Arch.Mips_ev;
      intercepts =
        (Distiller.distill [ Api_spec.kasan (); Api_spec.kcsan () ]).intercepts;
      functions =
        [
          { f_name = "kmalloc"; f_addr = 0x12345; f_size = 0x100; f_kind = `Alloc 0 };
          { f_name = "kfree"; f_addr = 0x23456; f_size = 0x80; f_kind = `Free 0 };
        ];
      exempts = [ { e_name = "slab_scan"; e_addr = 0x34567; e_size = 0x40 } ];
      init =
        [
          Region { name = "heap"; addr = 0x20000; size = 0x8000 };
          Poison { addr = 0x20000; size = 0x8000; code = "heap" };
          Unpoison { addr = 0x20100; size = 64 };
          Alloc { ptr = 0x20100; size = 64 };
          Note "recorded by dry run";
        ];
    }
  in
  let text = Dsl.to_string spec in
  let back = Dsl.parse text in
  Alcotest.(check string) "round trip" text (Dsl.to_string back);
  Alcotest.(check int) "intercepts" (List.length spec.intercepts)
    (List.length back.intercepts);
  Alcotest.(check int) "init" (List.length spec.init) (List.length back.init);
  Alcotest.(check bool) "arch" true (back.arch = Some Arch.Mips_ev)

let dsl_parse_errors () =
  (match Dsl.parse "gibberish here;" with
  | _ -> Alcotest.fail "expected error"
  | exception Dsl.Dsl_error _ -> ());
  match Dsl.parse "sanitizers kasan;\nintercept load addr;" with
  | _ -> Alcotest.fail "expected error (no ->)"
  | exception Dsl.Dsl_error _ -> ()

(* --- Shadow ----------------------------------------------------------------------- *)

let base = 0x1_0000
let mk_shadow () = Shadow.create ~ram_base:base ~ram_size:0x1_0000

let shadow_basics () =
  let s = mk_shadow () in
  Alcotest.(check bool) "fresh valid" true
    (Shadow.check s ~addr:(base + 100) ~size:4 = Shadow.Valid);
  Shadow.poison s ~addr:(base + 64) ~size:32 Shadow.Heap_redzone;
  (match Shadow.check s ~addr:(base + 64) ~size:1 with
  | Shadow.Invalid Shadow.Heap_redzone -> ()
  | _ -> Alcotest.fail "expected heap redzone");
  Shadow.unpoison s ~addr:(base + 64) ~size:32;
  Alcotest.(check bool) "unpoisoned" true
    (Shadow.check s ~addr:(base + 64) ~size:4 = Shadow.Valid);
  (* outside RAM: not the shadow's business *)
  Alcotest.(check bool) "mmio valid" true
    (Shadow.check s ~addr:0xF000_0000 ~size:4 = Shadow.Valid)

let shadow_partial_granule () =
  let s = mk_shadow () in
  Shadow.poison s ~addr:(base + 0) ~size:64 Shadow.Heap_redzone;
  (* allocate 13 bytes: one full granule + 5-byte partial *)
  Shadow.unpoison s ~addr:(base + 0) ~size:13;
  Alcotest.(check bool) "byte 12 ok" true
    (Shadow.check s ~addr:(base + 12) ~size:1 = Shadow.Valid);
  (match Shadow.check s ~addr:(base + 13) ~size:1 with
  | Shadow.Invalid (Shadow.Partial 5) -> ()
  | Shadow.Invalid c -> Alcotest.failf "wrong code %s" (Shadow.code_name c)
  | Shadow.Valid -> Alcotest.fail "byte 13 must be invalid");
  (* 4-byte access straddling the partial boundary *)
  (match Shadow.check s ~addr:(base + 10) ~size:4 with
  | Shadow.Invalid _ -> ()
  | Shadow.Valid -> Alcotest.fail "straddle must fail")

let shadow_cross_granule_start () =
  let s = mk_shadow () in
  (* first granule poisoned, second clean: access starting in the first *)
  Shadow.poison s ~addr:base ~size:8 Shadow.Freed;
  Shadow.unpoison s ~addr:(base + 8) ~size:8;
  match Shadow.check s ~addr:(base + 6) ~size:4 with
  | Shadow.Invalid Shadow.Freed -> ()
  | _ -> Alcotest.fail "start-granule poison must be caught"

let shadow_qcheck =
  let open QCheck2 in
  let gen =
    Gen.(
      quad (int_range 0 2040) (int_range 1 64) (int_range 0 2040) (int_range 1 64))
  in
  Test.make ~name:"poison/unpoison then check agrees with byte model" ~count:300
    gen (fun (a1, s1, a2, s2) ->
      (* model: byte array; poison region1, unpoison region2 *)
      let s = mk_shadow () in
      Shadow.poison s ~addr:(base + a1) ~size:s1 Shadow.Heap_redzone;
      Shadow.unpoison s ~addr:(base + (a2 / 8 * 8)) ~size:s2;
      (* single-byte checks must never crash and be monotone with granules *)
      let ok = ref true in
      for off = 0 to 2100 do
        match Shadow.check s ~addr:(base + off) ~size:1 with
        | Shadow.Valid | Shadow.Invalid _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

(* Every valid encoding byte must survive code_of_byte/byte_of_code. *)
let shadow_byte_roundtrip () =
  List.iter
    (fun b ->
      Alcotest.(check int)
        (Printf.sprintf "byte 0x%x" b)
        b
        (Shadow.byte_of_code (Shadow.code_of_byte b)))
    [ 0x00; 1; 2; 3; 4; 5; 6; 7; 0xF1; 0xF3; 0xF9; 0xFB ]

(* Regression: [Partial k] outside 1..7 used to alias to a different code
   via [k land 7] (e.g. [Partial 8] encoded as [Addressable]), silently
   breaking the round-trip.  Construction-time validation must reject it. *)
let shadow_partial_roundtrip =
  let open QCheck2 in
  Test.make ~name:"Partial round-trips in 1..7, rejected outside" ~count:200
    Gen.(int_range (-4) 12)
    (fun k ->
      if k >= 1 && k <= 7 then
        Shadow.code_of_byte (Shadow.byte_of_code (Shadow.Partial k))
        = Shadow.Partial k
        && Shadow.byte_of_code (Shadow.partial k) = k
      else
        (match Shadow.byte_of_code (Shadow.Partial k) with
        | _ -> false
        | exception Invalid_argument _ -> true)
        &&
        match Shadow.partial k with
        | _ -> false
        | exception Invalid_argument _ -> true)

(* Guest-fed ranges and accesses at the end of RAM clamp to the plane
   instead of indexing past it.  Each of these raised [Invalid_argument]
   before the clamp. *)
let shadow_clamps_at_ram_end () =
  let limit = base + 0x1_0000 in
  let s = mk_shadow () in
  let valid addr size = Shadow.check s ~addr ~size = Shadow.Valid in
  Shadow.poison s ~addr:(limit - 0x200) ~size:0x200 Shadow.Heap_redzone;
  Shadow.unpoison s ~addr:(limit - 0x10) ~size:0x100;
  Alcotest.(check bool) "clamped range unpoisoned" true
    (valid (limit - 0x10) 4 && valid (limit - 4) 4);
  Alcotest.(check bool) "granule before it still poisoned" false
    (valid (limit - 0x11) 1);
  Shadow.poison s ~addr:(limit - 8) ~size:8 Shadow.Freed;
  Shadow.unpoison s ~addr:(limit - 4) ~size:13;
  Alcotest.(check bool) "tail past RAM: last granule addressable" true
    (valid (limit - 4) 4);
  Shadow.unpoison s ~addr:(base + 0x8000) ~size:0x7fff_ffff;
  Alcotest.(check bool) "huge size unpoisons to the end" true
    (valid (base + 0x8000) 4 && valid (limit - 0x200) 4 && valid (limit - 1) 1);
  Alcotest.(check bool) "granules below untouched" true (valid (base + 0x7ff8) 8);
  Alcotest.(check bool) "access straddling the end" true
    (valid (limit - 2) 4);
  Shadow.poison s ~addr:(limit - 8) ~size:8 Shadow.Freed;
  (match Shadow.check s ~addr:(limit - 2) ~size:4 with
  | Shadow.Invalid Shadow.Freed -> ()
  | _ -> Alcotest.fail "straddling access into a freed granule")

(* End to end: a guest [lw] that straddles the end of RAM is the fault
   logic's business with or without EmbSan-D KASAN attached; the probed
   access check must not raise out of [Machine.run]. *)
let lw_past_ram_end_faults () =
  let limit = base + 0x1_0000 in
  let text =
    Asm.
      [
        Label "main";
        li Reg.t0 (Embsan_emu.Devices.mailbox_base + 0x28);
        li Reg.t1 1;
        store Insn.W32 Reg.t0 Reg.t1 0 (* ready doorbell: sanitizers on *);
        li Reg.t0 (limit - 2);
        load Insn.W32 Reg.a0 Reg.t0 0;
        halt;
      ]
  in
  let img =
    Asm.assemble ~arch:Arch.Arm_ev ~text_base:base ~entry:"main"
      [ { Asm.unit_name = "t"; text; data = [] } ]
  in
  let run ~kasan =
    let m =
      Machine.create ~harts:1 ~ram_base:base ~ram_size:0x1_0000
        ~arch:Arch.Arm_ev ()
    in
    Machine.load_image m img;
    Machine.boot m;
    if kasan then
      ignore
        (Runtime.attach
           ~spec:(Distiller.distill [ Api_spec.kasan () ])
           ~mode:Runtime.D m
          : Runtime.t);
    Machine.run m ~max_insns:100
  in
  List.iter
    (fun kasan ->
      match run ~kasan with
      | Machine.Fault (acc, "access beyond RAM") ->
          Alcotest.(check int) "faulting address" (limit - 2) acc.addr
      | s -> Alcotest.failf "kasan=%b: got %a" kasan Machine.pp_stop s)
    [ false; true ]

(* Restoring the latest save copies back only the dirty chunks; restoring
   any other state copies everything.  Either way both planes must equal
   the full copy taken at save time, whatever mix of poison, unpoison and
   KCSAN bumps ran in between -- ranges straddling chunk boundaries and
   the end of RAM included. *)
let shadow_restore_qcheck =
  let open QCheck2 in
  let size = 0x1_0000 in
  let off =
    Gen.(
      oneof
        [
          int_range 0 (size - 1);
          (* around a chunk (4 KiB) boundary, below base and past the end *)
          map2 (fun c d -> (c * 4096) + d) (int_range 0 16) (int_range (-24) 24);
          map (fun d -> size - d) (int_range 1 64);
        ])
  in
  let len = Gen.(oneof [ int_range 1 64; int_range 1 9000; pure 0x7fff_ffff ]) in
  let code =
    Gen.oneofl Shadow.[ Heap_redzone; Stack_redzone; Global_redzone; Freed ]
  in
  let op =
    Gen.(
      frequency
        [
          (4, map3 (fun a n c -> `Poison (a, n, c)) off len code);
          (3, map2 (fun a n -> `Unpoison (a, n)) off len);
          (3, map (fun a -> `Bump a) off);
          (1, pure `Save);
          (2, pure `Restore_latest);
          (1, map (fun k -> `Restore_older k) nat);
        ])
  in
  Test.make ~name:"dirty-chunk restore equals a full copy" ~count:300
    Gen.(list_size (int_range 1 60) op)
    (fun ops ->
      let s = mk_shadow () in
      (* newest first: the state and full copies of both planes *)
      let saved = ref [] in
      let ok = ref true in
      let restore (st, kasan, kcsan) =
        Shadow.restore s st;
        ok :=
          !ok
          && Bytes.equal s.Shadow.kasan kasan
          && Bytes.equal s.Shadow.kcsan_epoch kcsan
      in
      List.iter
        (function
          | `Poison (a, n, c) -> Shadow.poison s ~addr:(base + a) ~size:n c
          | `Unpoison (a, n) -> Shadow.unpoison s ~addr:(base + a) ~size:n
          | `Bump a -> ignore (Shadow.kcsan_bump s (base + a) : int)
          | `Save ->
              let st = Shadow.save s in
              saved :=
                (st, Bytes.copy s.Shadow.kasan, Bytes.copy s.Shadow.kcsan_epoch)
                :: !saved
          | `Restore_latest -> (
              match !saved with latest :: _ -> restore latest | [] -> ())
          | `Restore_older k -> (
              match !saved with
              | [] -> ()
              | l -> restore (List.nth l (k mod List.length l))))
        ops;
      !ok)

(* [save] copies only the chunks written since the last sync: after
   writes to k chunks (KASAN poison, or a KCSAN bump alone), every other
   chunk of the new state is the synced state's buffer, and the first
   save of fresh planes shares the one all-zero chunk throughout. *)
let shadow_save_shares_unwritten_chunks () =
  let s = mk_shadow () in
  let chunks = Bytes.length s.Shadow.dirty in
  let st0 = Shadow.save s in
  for c = 1 to chunks - 1 do
    if Shadow.chunk_of st0 c != Shadow.chunk_of st0 0 then
      Alcotest.failf "fresh planes: chunk %d is not the zero chunk" c
  done;
  ignore
    (List.fold_left
       (fun prev written ->
         List.iter
           (fun c ->
             let addr = base + (c * 4096) + 8 in
             if c mod 2 = 0 then Shadow.poison s ~addr ~size:16 Shadow.Freed
             else ignore (Shadow.kcsan_bump s addr : int))
           written;
         let st = Shadow.save s in
         for c = 0 to chunks - 1 do
           let shared = Shadow.chunk_of st c == Shadow.chunk_of prev c in
           if shared = List.mem c written then
             Alcotest.failf "%d chunks written: chunk %d shared = %b"
               (List.length written) c shared
         done;
         st)
       st0
       [ []; [ 3 ]; [ 0; 1; 7; 15 ]; List.init chunks Fun.id ])

(* [check] against a byte-wise reference over the same plane, after random
   poison/unpoison: an access is valid iff every byte of it, clamped to
   the end of RAM, is addressable (granule code 0, or a partial code
   covering the byte's offset).  A two-granule access whose last granule
   is partial and covers its tail used to pass without the first granule
   being read. *)
let shadow_check_bytewise_qcheck =
  let open QCheck2 in
  let size = 0x1_0000 in
  let off =
    Gen.(oneof [ int_range 0 255; map (fun d -> size - d) (int_range 1 64) ])
  in
  let code =
    Gen.oneofl Shadow.[ Heap_redzone; Stack_redzone; Global_redzone; Freed ]
  in
  let op =
    Gen.(
      oneof
        [
          map3 (fun a n c -> `Poison (a, n, c)) off (int_range 1 40) code;
          map2 (fun a n -> `Unpoison (a, n)) off (int_range 1 40);
        ])
  in
  let access = Gen.(pair off (oneofl [ 1; 2; 4 ])) in
  Test.make ~name:"check agrees with a byte-wise reference" ~count:300
    Gen.(pair (list_size (int_range 1 12) op) (list_size (int_range 1 40) access))
    (fun (ops, accesses) ->
      let s = mk_shadow () in
      List.iter
        (function
          | `Poison (a, n, c) -> Shadow.poison s ~addr:(base + a) ~size:n c
          | `Unpoison (a, n) -> Shadow.unpoison s ~addr:(base + a) ~size:n)
        ops;
      (* [b] is an offset from the (granule-aligned) RAM base *)
      let addressable b =
        let k = Bytes.get_uint8 s.Shadow.kasan (b / 8) in
        k = 0 || (k < 8 && b land 7 < k)
      in
      List.for_all
        (fun (a, n) ->
          let last = min (a + n - 1) (size - 1) in
          let rec all b = b > last || (addressable b && all (b + 1)) in
          (Shadow.check s ~addr:(base + a) ~size:n = Shadow.Valid) = all a)
        accesses)

(* --- Host KASAN -------------------------------------------------------------------- *)

let mk_kasan () =
  let sink = Report.create_sink () in
  let shadow = mk_shadow () in
  let k = Kasan.create ~shadow ~sink ~symbolize:(fun _ -> None) () in
  (k, sink)

let kinds sink =
  List.map (fun (r : Report.t) -> r.kind) (Report.unique_reports sink)

let kasan_heap_lifecycle () =
  let k, sink = mk_kasan () in
  (* poison heap, allocate, access, free, use-after-free, double free *)
  Kasan.on_poison k ~addr:(base + 0x100) ~size:0x100 Shadow.Heap_redzone;
  Kasan.on_alloc k ~ptr:(base + 0x120) ~size:24 ~pc:0x1111;
  Kasan.on_access k ~addr:(base + 0x120) ~size:4 ~is_write:false ~pc:1 ~hart:0;
  Kasan.on_access k ~addr:(base + 0x137) ~size:1 ~is_write:false ~pc:2 ~hart:0;
  Alcotest.(check int) "clean so far" 0 (Report.count sink);
  (* one past the end *)
  Kasan.on_access k ~addr:(base + 0x138) ~size:1 ~is_write:true ~pc:3 ~hart:0;
  Alcotest.(check (list bool)) "oob" [ true ]
    (List.map (fun k -> k = Report.Oob_access) (kinds sink));
  Kasan.on_free k ~ptr:(base + 0x120) ~pc:4 ~hart:0;
  Kasan.on_access k ~addr:(base + 0x124) ~size:4 ~is_write:false ~pc:5 ~hart:0;
  Alcotest.(check bool) "uaf" true (List.mem Report.Use_after_free (kinds sink));
  Kasan.on_free k ~ptr:(base + 0x120) ~pc:6 ~hart:0;
  Alcotest.(check bool) "double free" true
    (List.mem Report.Double_free (kinds sink));
  Kasan.on_free k ~ptr:(base + 0xF00) ~pc:7 ~hart:0;
  Alcotest.(check bool) "invalid free" true
    (List.mem Report.Invalid_free (kinds sink))

let kasan_null_deref () =
  let k, sink = mk_kasan () in
  Kasan.on_access k ~addr:8 ~size:4 ~is_write:false ~pc:1 ~hart:0;
  Alcotest.(check bool) "null" true (List.mem Report.Null_deref (kinds sink))

let kasan_globals_redzone () =
  let k, sink = mk_kasan () in
  let g = base + 0x200 in
  Kasan.on_register_global k ~addr:g ~size:20;
  Kasan.on_access k ~addr:(g + 19) ~size:1 ~is_write:false ~pc:1 ~hart:0;
  Alcotest.(check int) "in-bounds tail ok" 0 (Report.count sink);
  Kasan.on_access k ~addr:(g + 20) ~size:1 ~is_write:false ~pc:2 ~hart:0;
  Alcotest.(check int) "partial-granule oob" 1 (Report.count sink);
  Kasan.on_access k ~addr:(g - 4) ~size:4 ~is_write:true ~pc:3 ~hart:0;
  Alcotest.(check int) "left redzone" 2 (Report.count sink)

let kasan_dedup () =
  let k, sink = mk_kasan () in
  Kasan.on_poison k ~addr:base ~size:64 Shadow.Heap_redzone;
  for _ = 1 to 5 do
    Kasan.on_access k ~addr:(base + 4) ~size:4 ~is_write:false ~pc:0xAB ~hart:0
  done;
  Alcotest.(check int) "one unique report" 1 (Report.count sink);
  let key = Report.dedup_key (List.hd (Report.unique_reports sink)) in
  Alcotest.(check int) "five hits" 5 (Report.hits sink key)

(* The specialized access site must report exactly when [on_access] does:
   two KASAN instances over one shadow, one checked through a site per
   (size, is_write), the other through [on_access], must agree after every
   access on the report events, and at the end on the check counters and
   the reports themselves.  Accesses cover the null page, both ends of RAM
   (including past its end), partial granules and granule-straddling
   offsets; one RAM base sits below the null-page bound. *)
let kasan_site_agrees_qcheck =
  let open QCheck2 in
  let ram_size = 0x1000 in
  (* RAM offsets, biased to both ends of RAM *)
  let off =
    Gen.(
      oneof
        [
          int_range 0 15;
          int_range 0 255;
          map (fun d -> ram_size - d) (int_range (-8) 64);
        ])
  in
  let code =
    Gen.oneofl Shadow.[ Heap_redzone; Stack_redzone; Global_redzone; Freed ]
  in
  let op =
    Gen.(
      oneof
        [
          map3 (fun a n c -> `Poison (a, n, c)) off (int_range 1 40) code;
          map2 (fun a n -> `Unpoison (a, n)) off (int_range 1 40);
        ])
  in
  let where = Gen.(oneof [ map (fun a -> `Ram a) off; map (fun a -> `Abs a) (int_range 0 0x1100) ]) in
  let access = Gen.(triple where (oneofl [ 1; 2; 4 ]) bool) in
  Test.make ~name:"specialized site reports exactly when on_access does"
    ~count:300
    Gen.(
      triple (oneofl [ 0x1_0000; 0x800 ])
        (list_size (int_range 1 12) op)
        (list_size (int_range 1 40) access))
    (fun (ram_base, ops, accesses) ->
      let shadow = Shadow.create ~ram_base ~ram_size in
      let mk () =
        let sink = Report.create_sink () in
        (Kasan.create ~shadow ~sink ~symbolize:(fun _ -> None) (), sink)
      in
      let (ka, sink_a), (kb, sink_b) = (mk (), mk ()) in
      List.iter
        (function
          | `Poison (a, n, c) -> Shadow.poison shadow ~addr:(ram_base + a) ~size:n c
          | `Unpoison (a, n) -> Shadow.unpoison shadow ~addr:(ram_base + a) ~size:n)
        ops;
      let pc_of size is_write = 0x100 + (8 * size) + if is_write then 4 else 0 in
      let sites = Hashtbl.create 6 in
      List.iter
        (fun (size, is_write) ->
          let pc = pc_of size is_write in
          Hashtbl.replace sites (size, is_write) (Kasan.site ka ~pc ~size ~is_write))
        [ (1, false); (2, false); (4, false); (1, true); (2, true); (4, true) ];
      let report_view sink =
        List.map
          (fun (r : Report.t) -> (r.kind, r.addr, r.size, r.is_write, r.pc, r.detail))
          (Report.unique_reports sink)
      in
      List.for_all
        (fun (where, size, is_write) ->
          let addr = match where with `Ram a -> ram_base + a | `Abs a -> a in
          (Hashtbl.find sites (size, is_write)) ~hart:0 ~addr;
          Kasan.on_access kb ~addr ~size ~is_write ~pc:(pc_of size is_write)
            ~hart:0;
          Report.total_hits sink_a = Report.total_hits sink_b)
        accesses
      && ka.access_checks = kb.access_checks
      && report_view sink_a = report_view sink_b)

(* --- End-to-end: EmbSan on real firmware ------------------------------------------- *)

(* A miniature kernel with a bump allocator, symbol-conformant entry points
   and a mailbox syscall loop with injected bugs. *)
let tiny_kernel_src =
  {|
barr heap_pool[4096];
var heap_next = 0;

fun kmalloc(size) {
  var p = &heap_pool + heap_next;
  heap_next = heap_next + ((size + 7) & ~7);
  san_alloc(p, size);
  return p;
}

fun kfree(p) {
  san_free(p, 0);
  return 0;
}

fun sys_oob(n) {
  var p = kmalloc(16);
  store8(p + n, 0x41);      // n > 15: out of bounds
  kfree(p);
  return 0;
}

fun sys_uaf(n) {
  var p = kmalloc(24);
  kfree(p);
  if (n) { return load8(p + 2); }
  return 0;
}

fun sys_df(n) {
  var p = kmalloc(8);
  kfree(p);
  if (n) { kfree(p); }
  return 0;
}

// BUG: session objects are allocated per request and never released
fun sys_leak(n) {
  var s = kmalloc(24);
  if (s == 0) { return 0 - 12; }
  store32(s, n);
  return 0;
}

fun sys_spin(n) {
  var i = 0;
  while (i < n) { i = i + 1; }
  return i;
}

fun kmain() {
  san_poison(&heap_pool, 4096);
  store32(0xF0000228, 1);   // ready doorbell
  while (1) {
    if (load32(0xF0000200)) {
      var nr = load32(0xF0000204);
      var a = load32(0xF0000208);
      var ret = 0;
      if (nr == 1) { ret = sys_oob(a); }
      if (nr == 2) { ret = sys_uaf(a); }
      if (nr == 3) { ret = sys_df(a); }
      if (nr == 4) { ret = sys_leak(a); }
      if (nr == 5) { ret = sys_spin(a); }
      store32(0xF0000220, ret);
      store32(0xF0000224, 1);
    }
  }
}
|}

let build_firmware mode =
  Driver.compile_string
    ~cfg:{ Driver.default_config with mode; arch = Arch.Arm_ev }
    ~name:"tiny_kernel" tiny_kernel_src

let exercise session ~nr ~arg =
  let m = Embsan.make_machine session in
  let rt = Embsan.attach session m in
  (match Machine.run_until_ready m ~max_insns:5_000_000 with
  | None -> ()
  | Some s -> Alcotest.failf "boot failed: %a" Machine.pp_stop s);
  Devices.mailbox_push m.mailbox ~nr ~args:[| arg |];
  (match Machine.run_until_mailbox_idle m ~max_insns:5_000_000 with
  | None -> ()
  | Some s -> Alcotest.failf "syscall crashed the machine: %a" Machine.pp_stop s);
  Embsan.reports rt

let embsan_c_detects () =
  let session =
    Embsan.prepare ~sanitizers:Embsan.kasan_only
      ~firmware:(Embsan.Instrumented (build_firmware Codegen.Trap_callout))
      ()
  in
  let check name nr arg kind loc =
    match exercise session ~nr ~arg with
    | [ r ] ->
        Alcotest.(check string) (name ^ " kind") (Report.kind_name kind)
          (Report.kind_name r.kind);
        Alcotest.(check (option string)) (name ^ " location") (Some loc) r.location
    | l -> Alcotest.failf "%s: expected 1 report, got %d" name (List.length l)
  in
  check "oob" 1 20 Report.Oob_access "sys_oob";
  check "uaf" 2 1 Report.Use_after_free "sys_uaf";
  (* C-mode double-free reports locate at the glue callout *)
  check "df" 3 1 Report.Double_free "sys_df";
  (* benign argument: no report *)
  Alcotest.(check int) "benign uaf arg" 0 (List.length (exercise session ~nr:2 ~arg:0))

let embsan_d_detects () =
  let session =
    Embsan.prepare ~sanitizers:Embsan.kasan_only
      ~firmware:(Embsan.Source (build_firmware Codegen.Plain, Prober.no_hints))
      ()
  in
  Alcotest.(check bool) "kmalloc intercepted" true
    (List.exists
       (fun f -> f.Dsl.f_name = "kmalloc")
       session.s_spec.Dsl.functions);
  let kinds_of nr arg =
    List.map (fun (r : Report.t) -> r.Report.kind) (exercise session ~nr ~arg)
  in
  Alcotest.(check bool) "oob detected" true (List.mem Report.Oob_access (kinds_of 1 20));
  Alcotest.(check bool) "uaf detected" true
    (List.mem Report.Use_after_free (kinds_of 2 1));
  Alcotest.(check bool) "df detected" true (List.mem Report.Double_free (kinds_of 3 1));
  Alcotest.(check int) "clean run clean" 0 (List.length (exercise session ~nr:2 ~arg:0))

let embsan_spec_text () =
  let session =
    Embsan.prepare ~sanitizers:Embsan.all_sanitizers
      ~firmware:(Embsan.Source (build_firmware Codegen.Plain, Prober.no_hints))
      ()
  in
  let text = Embsan.spec_text session in
  (* the spec must round-trip through the DSL *)
  let back = Dsl.parse text in
  Alcotest.(check string) "dsl roundtrip" text (Dsl.to_string back);
  Alcotest.(check bool) "mentions kmalloc" true (contains text "kmalloc");
  Alcotest.(check bool) "poisons heap" true (contains text "heap")

let embsan_binary_mode () =
  (* closed-source firmware: strip symbols, infer allocators dynamically.
     Make boot perform a few allocations so the heuristic has signal. *)
  let src =
    {|
barr heap_pool[4096];
var heap_next = 0;
fun kmalloc(size) {
  var p = &heap_pool + heap_next;
  heap_next = heap_next + ((size + 7) & ~7);
  san_alloc(p, size);
  return p;
}
fun kfree(p) { san_free(p, 0); return 0; }
var bootbuf1 = 0;
var bootbuf2 = 0;
fun sys_oob(n) {
  var p = kmalloc(16);
  store8(p + n, 0x41);
  kfree(p);
  return 0;
}
fun kmain() {
  bootbuf1 = kmalloc(32);
  bootbuf2 = kmalloc(48);
  var tmp = kmalloc(16);
  kfree(tmp);
  store32(0xF0000228, 1);
  while (1) {
    if (load32(0xF0000200)) {
      var nr = load32(0xF0000204);
      var a = load32(0xF0000208);
      var ret = 0;
      if (nr == 1) { ret = sys_oob(a); }
      store32(0xF0000220, ret);
      store32(0xF0000224, 1);
    }
  }
}
|}
  in
  let img =
    Driver.compile_string
      ~cfg:{ Driver.default_config with mode = Codegen.Plain }
      ~name:"closed" src
  in
  let session =
    Embsan.prepare ~sanitizers:Embsan.kasan_only
      ~firmware:(Embsan.Binary (img, Prober.no_hints))
      ()
  in
  Alcotest.(check bool) "image stripped" true (Image.is_stripped session.s_image);
  Alcotest.(check bool) "alloc inferred" true
    (List.exists
       (fun f -> match f.Dsl.f_kind with `Alloc _ -> true | `Free _ -> false)
       session.s_spec.Dsl.functions);
  let reports = exercise session ~nr:1 ~arg:24 in
  Alcotest.(check bool) "oob detected on stripped binary" true
    (List.exists (fun (r : Report.t) -> r.kind = Report.Oob_access) reports);
  (* stripped: no symbolized location *)
  List.iter
    (fun (r : Report.t) ->
      Alcotest.(check (option string)) "no symbols" None r.location)
    reports

(* KCSAN end-to-end: two harts racing on a shared counter. *)
let embsan_kcsan_race () =
  let src =
    {|
var shared = 0;
var stop_flag = 0;

fun racer() {
  while (stop_flag == 0) {
    shared = shared + 1;
  }
  while (1) { }
}

fun kmain() {
  trap3(10, 1, &racer, __stack_top - 0x10000);
  store32(0xF0000228, 1);
  while (1) {
    if (load32(0xF0000200)) {
      var nr = load32(0xF0000204);
      var ret = 0;
      if (nr == 1) {
        var i = 0;
        while (i < 3000) { shared = shared + 1; i = i + 1; }
        ret = shared;
      }
      store32(0xF0000220, ret);
      store32(0xF0000224, 1);
    }
  }
}
|}
  in
  let img =
    Driver.compile_string
      ~cfg:{ Driver.default_config with mode = Codegen.Plain }
      ~name:"racy" src
  in
  let session =
    Embsan.prepare ~sanitizers:Embsan.kcsan_only
      ~firmware:(Embsan.Source (img, Prober.no_hints))
      ()
  in
  let m = Embsan.make_machine session in
  let rt = Embsan.attach ~kcsan_interval:60 ~kcsan_stall:800 session m in
  (match Machine.run_until_ready m ~max_insns:5_000_000 with
  | None -> ()
  | Some s -> Alcotest.failf "boot failed: %a" Machine.pp_stop s);
  Devices.mailbox_push m.mailbox ~nr:1 ~args:[||];
  (match Machine.run_until_mailbox_idle m ~max_insns:20_000_000 with
  | None -> ()
  | Some s -> Alcotest.failf "run stopped: %a" Machine.pp_stop s);
  let races =
    List.filter (fun (r : Report.t) -> r.kind = Report.Data_race) (Embsan.reports rt)
  in
  Alcotest.(check bool) "data race detected" true (races <> [])

(* Prober mode 1 records the boot-time sanitizer actions. *)
let prober_instrumented_records () =
  let img = build_firmware Codegen.Trap_callout in
  let p = Prober.probe_instrumented img in
  Alcotest.(check bool) "ready reached" true (p.p_ready_insns > 0);
  (* heap_pool poison recorded *)
  Alcotest.(check bool) "heap poison recorded" true
    (List.exists
       (function Dsl.Poison { code = "heap"; size; _ } -> size = 4096 | _ -> false)
       p.p_init);
  (* global registrations recorded *)
  Alcotest.(check bool) "global region recorded" true
    (List.exists (function Dsl.Region _ -> true | _ -> false) p.p_init)

let prober_requires_symbols () =
  let img = Image.strip (build_firmware Codegen.Plain) in
  match Prober.probe_symbols img with
  | _ -> Alcotest.fail "expected probe error on stripped image"
  | exception Prober.Probe_error _ -> ()

(* S5 adaptability: the kmemleak functionality plugs into the same
   Distiller/DSL/Runtime pipeline and works in both modes. *)
let embsan_kmemleak_third_sanitizer () =
  List.iter
    (fun firmware ->
      let session =
        Embsan.prepare
          ~sanitizers:(Embsan.with_kmemleak Embsan.kasan_only)
          ~firmware ()
      in
      Alcotest.(check bool) "kmemleak in spec" true
        (List.mem "kmemleak" session.s_spec.Dsl.sanitizers);
      (* func_alloc args merged: kasan's (ptr,size) u kmemleak's (ptr,size,pc) *)
      (match Dsl.find_intercept session.s_spec Api_spec.P_func_alloc with
      | Some i -> Alcotest.(check (list string)) "merged alloc args"
          [ "pc"; "ptr"; "size" ]
          (List.sort compare i.i_args)
      | None -> Alcotest.fail "no func_alloc intercept");
      let m = Embsan.make_machine session in
      let rt = Embsan.attach session m in
      (match Machine.run_until_ready m ~max_insns:5_000_000 with
      | None -> ()
      | Some s -> Alcotest.failf "boot failed: %a" Machine.pp_stop s);
      let syscall nr arg =
        Devices.mailbox_push m.mailbox ~nr ~args:[| arg |];
        ignore (Machine.run_until_mailbox_idle m ~max_insns:5_000_000)
      in
      (* leak six session objects, then age them past the grace window *)
      for i = 1 to 6 do syscall 4 i done;
      syscall 5 30_000;
      Alcotest.(check int) "no report before scan" 0 (Report.count rt.sink);
      let fresh = Runtime.scan_leaks rt in
      Alcotest.(check int) "one leak site" 1 fresh;
      match Embsan.reports rt with
      | [ r ] ->
          Alcotest.(check string) "kind" "memory-leak" (Report.kind_name r.kind);
          Alcotest.(check (option string)) "location" (Some "sys_leak") r.location
      | l -> Alcotest.failf "expected 1 report, got %d" (List.length l))
    [
      Embsan.Instrumented (build_firmware Codegen.Trap_callout);
      Embsan.Source (build_firmware Codegen.Plain, Prober.no_hints);
    ]

(* --- Sanitizer plugin architecture ----------------------------------------------- *)

(* The compiled per-point dispatch plans must agree with the reference
   semantics [Dsl.wants] for arbitrary specs: a sanitizer is in the plan
   of a point iff the spec selects it, the DSL intercept names it there,
   a plugin is registered under that name, and the plugin subscribes to
   the point.  Unknown names ("mystery") must be skipped, duplicates
   collapsed. *)
let all_points =
  [
    Api_spec.P_load;
    Api_spec.P_store;
    Api_spec.P_func_alloc;
    Api_spec.P_func_free;
    Api_spec.P_global_register;
    Api_spec.P_stack_poison;
    Api_spec.P_stack_unpoison;
  ]

let plan_matches_wants =
  let open QCheck2 in
  let san_names = [ "kasan"; "kcsan"; "kmemleak"; "ualign"; "mystery" ] in
  let intercept_gen =
    Gen.(
      pair (oneofl all_points) (list_size (int_range 0 4) (oneofl san_names))
      >|= fun (p, sans) ->
      {
        Dsl.i_point = p;
        i_args = [ "addr"; "size" ];
        i_handlers =
          List.map (fun s -> { Dsl.h_san = s; h_op = "op"; h_args = [] }) sans;
      })
  in
  let spec_gen =
    Gen.(
      pair
        (list_size (int_range 0 5) (oneofl san_names))
        (list_size (int_range 0 7) intercept_gen)
      >|= fun (sans, intercepts) ->
      { Dsl.empty with sanitizers = List.sort_uniq compare sans; intercepts })
  in
  Test.make ~name:"compiled plan = Dsl.wants reference" ~count:100 spec_gen
    (fun spec ->
      Ualign.register ();
      List.for_all
        (fun mode ->
          let m =
            Machine.create ~harts:1 ~ram_base:0x1_0000 ~ram_size:0x1_0000
              ~arch:Arch.Arm_ev ()
          in
          let rt = Runtime.attach ~spec ~mode m in
          List.for_all
            (fun point ->
              let plan = Runtime.plan_names rt point in
              List.length plan = List.length (List.sort_uniq compare plan)
              && List.for_all
                   (fun san ->
                     let reference =
                       List.mem san spec.Dsl.sanitizers
                       && Dsl.wants spec point san
                       &&
                       match Sanitizer.find san with
                       | Some p -> Sanitizer.supports p point
                       | None -> false
                     in
                     List.mem san plan = reference)
                   san_names)
            all_points)
        [ Runtime.C; Runtime.D ])

(* Satellite: the binary-searched (sorted, merged) exempt ranges must agree
   with a naive linear scan over the original overlapping range list. *)
let pc_exempt_matches_linear =
  let open QCheck2 in
  let range_gen =
    Gen.(
      pair (int_bound 0x400) (int_bound 48) >|= fun (lo, len) -> (lo, lo + len))
  in
  Test.make ~name:"pc_exempt = linear reference" ~count:200
    Gen.(
      pair
        (list_size (int_range 0 40) range_gen)
        (list_size (int_range 1 60) (int_bound 0x460)))
    (fun (ranges, pcs) ->
      let spec =
        {
          Dsl.empty with
          sanitizers = [ "kasan" ];
          exempts =
            List.map
              (fun (lo, hi) -> { Dsl.e_name = "e"; e_addr = lo; e_size = hi - lo })
              ranges;
        }
      in
      let m =
        Machine.create ~harts:1 ~ram_base:0x1_0000 ~ram_size:0x1_0000
          ~arch:Arch.Arm_ev ()
      in
      let rt = Runtime.attach ~spec ~mode:Runtime.D m in
      List.for_all
        (fun pc ->
          let naive =
            List.exists (fun (lo, hi) -> pc >= lo && pc < hi) ranges
          in
          Runtime.pc_exempt rt pc = naive)
        pcs)

(* Satellite: the EmbSan-D allocator-interception stacks are per-hart and
   bounded, and a snapshot restore drops in-flight entries left behind by
   a crash mid-allocator instead of leaking them into the next run. *)
let pending_allocs_bounded_and_restored () =
  let session =
    Embsan.prepare ~sanitizers:Embsan.kasan_only
      ~firmware:(Embsan.Source (build_firmware Codegen.Plain, Prober.no_hints))
      ()
  in
  let m = Embsan.make_machine session in
  let rt = Embsan.attach session m in
  (match Machine.run_until_ready m ~max_insns:5_000_000 with
  | None -> ()
  | Some s -> Alcotest.failf "boot failed: %a" Machine.pp_stop s);
  let kmalloc =
    match
      List.find_opt
        (fun f -> f.Dsl.f_name = "kmalloc")
        session.s_spec.Dsl.functions
    with
    | Some f -> f.Dsl.f_addr
    | None -> Alcotest.fail "kmalloc not intercepted"
  in
  Alcotest.(check int) "idle" 0 (Runtime.pending_depth rt ~hart:0);
  let snap = Runtime.save rt in
  (* allocator entries whose returns never happen (crash / tail call) *)
  let enter pc =
    Probe.fire_call m.probes ~pc ~target:kmalloc ~direct:true ~hart:0
  in
  enter 0x100;
  enter 0x200;
  Alcotest.(check int) "two in flight" 2 (Runtime.pending_depth rt ~hart:0);
  (* a snapshot restore must not carry the abandoned entries over *)
  Runtime.restore rt snap;
  Alcotest.(check int) "restore clears in-flight" 0
    (Runtime.pending_depth rt ~hart:0);
  (* unbounded re-entry must saturate at the stack capacity, not grow *)
  for i = 1 to 100 do
    enter (0x1000 + (8 * i))
  done;
  Alcotest.(check int) "bounded" Runtime.pending_capacity
    (Runtime.pending_depth rt ~hart:0);
  (* a matching return resolves the newest frame *)
  Probe.fire_ret m.probes
    {
      Probe.r_hart = 0;
      r_pc = kmalloc;
      r_target = 0x1000 + (8 * 100) + Insn.size;
      r_retval = 0x2_0000;
    };
  Alcotest.(check int) "return pops"
    (Runtime.pending_capacity - 1)
    (Runtime.pending_depth rt ~hart:0);
  (* state is keyed to its runtime: cross-runtime restore is an error *)
  let m2 = Embsan.make_machine session in
  let rt2 = Embsan.attach session m2 in
  match Runtime.restore rt2 snap with
  | () -> Alcotest.fail "expected Invalid_argument on cross-runtime restore"
  | exception Invalid_argument _ -> ()

(* Every per-access counter the modeled overhead (Figure 2) is computed
   from, pinned on a fixed program list -- each bug's benign sequence,
   then its reproducer unless it crashes the machine -- replayed on one
   instance of an EmbSan-D firmware (OpenWRT-bcm63xx) and an EmbSan-C one
   (OpenWRT-armvirt), under KASAN and under KCSAN.  Access-site
   specialization must not change what is counted or charged (an exempt
   site still counts, an atomic KCSAN site still charges its event). *)
let counter_summary fw_name sanitizers =
  let module Replay = Embsan_guest.Replay in
  let module Defs = Embsan_guest.Defs in
  let fw = Option.get (Embsan_guest.Firmware_db.find fw_name) in
  let inst = Replay.boot fw (Replay.Embsan_cfg sanitizers) in
  let rt = Option.get inst.Replay.rt in
  List.iter
    (fun (b : Defs.bug) ->
      ignore (Replay.replay inst b.b_benign);
      if b.b_class <> Defs.Null_bug then ignore (Replay.replay inst b.b_syscalls))
    fw.fw_bugs;
  let m = inst.machine in
  String.concat " "
    ([
       Printf.sprintf "mem_events=%d" rt.mem_events;
       Printf.sprintf "callouts=%d" rt.callouts;
       Printf.sprintf "intercepted_calls=%d" rt.intercepted_calls;
     ]
    @ List.concat_map
        (fun (san, stats) ->
          List.map (fun (k, v) -> Printf.sprintf "%s.%s=%d" san k v) stats)
        (Runtime.plugin_stats rt)
    @ [
        Printf.sprintf "external_cost=%d" m.Machine.external_cost;
        Printf.sprintf "total_cost=%d" (Machine.total_cost m);
      ])

let counters_pinned () =
  List.iter
    (fun (fw_name, sanitizers, expected) ->
      Alcotest.(check string) fw_name expected
        (counter_summary fw_name sanitizers))
    [
      ( "OpenWRT-bcm63xx",
        Embsan.kasan_only,
        "mem_events=3434 callouts=0 intercepted_calls=16 \
         kasan.access_checks=2341 kasan.alloc_events=8 kasan.free_events=8 \
         external_cost=269100 total_cost=424600" );
      ( "OpenWRT-bcm63xx",
        Embsan.kcsan_only,
        "mem_events=3446 callouts=0 intercepted_calls=16 \
         kcsan.access_events=2353 kcsan.watchpoints_set=17 kcsan.races=0 \
         external_cost=670046 total_cost=825776" );
      ( "OpenWRT-armvirt",
        Embsan.kasan_only,
        "mem_events=4058 callouts=4089 intercepted_calls=0 \
         kasan.access_checks=4058 kasan.alloc_events=12 kasan.free_events=13 \
         external_cost=470235 total_cost=875355" );
      ( "OpenWRT-armvirt",
        Embsan.kcsan_only,
        "mem_events=4097 callouts=4128 intercepted_calls=0 \
         kcsan.access_events=4097 kcsan.watchpoints_set=32 kcsan.races=0 \
         external_cost=2031580 total_cost=2439120" );
    ]

(* The fourth sanitizer: ualign plugs in through Api_spec + registry only
   (no runtime/machine/probe edits) and works under both backends, with
   its own reports and snapshot state. *)
let ualign_kernel_src =
  {|
barr buf[64];
barr heap_pool[1024];
var heap_next = 0;

fun kmalloc(size) {
  var p = &heap_pool + heap_next;
  heap_next = heap_next + ((size + 7) & ~7);
  san_alloc(p, size);
  return p;
}

fun kfree(p) {
  san_free(p, 0);
  return 0;
}

fun sys_ua(n) {
  if (n) { store32(&buf + 2, 7); }   // straddles the 4-byte boundary
  return 0;
}

fun kmain() {
  san_poison(&heap_pool, 1024);
  store32(0xF0000228, 1);   // ready doorbell
  while (1) {
    if (load32(0xF0000200)) {
      var nr = load32(0xF0000204);
      var a = load32(0xF0000208);
      var ret = 0;
      if (nr == 1) { ret = sys_ua(a); }
      store32(0xF0000220, ret);
      store32(0xF0000224, 1);
    }
  }
}
|}

let build_ua_firmware mode =
  Driver.compile_string
    ~cfg:{ Driver.default_config with mode; arch = Arch.Arm_ev }
    ~name:"ua_kernel" ualign_kernel_src

let embsan_ualign_fourth_sanitizer () =
  List.iter
    (fun firmware ->
      let session =
        Embsan.prepare
          ~sanitizers:(Embsan.with_ualign Embsan.kasan_only)
          ~firmware ()
      in
      Alcotest.(check bool) "ualign in spec" true
        (List.mem "ualign" session.s_spec.Dsl.sanitizers);
      Alcotest.(check bool) "ualign registered" true
        (List.mem "ualign" (Sanitizer.registered ()));
      let m = Embsan.make_machine session in
      let rt = Embsan.attach session m in
      (* deterministic plan order: header order, kasan before ualign *)
      Alcotest.(check (list string)) "store plan" [ "kasan"; "ualign" ]
        (Runtime.plan_names rt Api_spec.P_store);
      (match Machine.run_until_ready m ~max_insns:5_000_000 with
      | None -> ()
      | Some s -> Alcotest.failf "boot failed: %a" Machine.pp_stop s);
      let syscall nr arg =
        Devices.mailbox_push m.mailbox ~nr ~args:[| arg |];
        match Machine.run_until_mailbox_idle m ~max_insns:5_000_000 with
        | None -> ()
        | Some s -> Alcotest.failf "syscall crashed: %a" Machine.pp_stop s
      in
      syscall 1 0;
      Alcotest.(check int) "benign arg: clean" 0 (Report.count rt.sink);
      let snap = Runtime.save rt in
      syscall 1 1;
      (match
         List.filter
           (fun (r : Report.t) -> r.kind = Report.Unaligned_access)
           (Embsan.reports rt)
       with
      | [ r ] ->
          Alcotest.(check string) "sanitizer" "ualign" r.sanitizer;
          Alcotest.(check (option string)) "location" (Some "sys_ua") r.location
      | l ->
          Alcotest.failf "expected 1 unaligned-access report, got %d"
            (List.length l));
      (* ualign state rides the plugin-keyed snapshot like the builtins *)
      Runtime.restore rt snap;
      Alcotest.(check int) "reports rewound" 0 (Report.count rt.sink);
      let unaligned_count =
        match List.assoc_opt "ualign" (Runtime.plugin_stats rt) with
        | Some stats -> List.assoc "unaligned" stats
        | None -> -1
      in
      Alcotest.(check int) "ualign counter rewound" 0 unaligned_count)
    [
      Embsan.Instrumented (build_ua_firmware Codegen.Trap_callout);
      Embsan.Source (build_ua_firmware Codegen.Plain, Prober.no_hints);
    ]

(* --- ftrace: vector-clock laws ----------------------------------------------------- *)

(* The FastTrack rules are sound only if the clock algebra is: join must
   be an upper bound and associative/commutative/idempotent, leq a
   partial order, and epoch ordering must agree with the pointwise
   order.  All exposed by Ftrace.Vc precisely so these laws are
   pinnable. *)

let vc_gen =
  QCheck2.Gen.(
    int_range 2 8 >>= fun n ->
    array_size (return n) (int_range 0 1000) >>= fun a ->
    array_size (return n) (int_range 0 1000) >>= fun b ->
    array_size (return n) (int_range 0 1000) >>= fun c -> return (a, b, c))

let vc_join_laws =
  QCheck2.Test.make ~name:"Vc.join: upper bound, assoc, comm, idem" ~count:500
    vc_gen
    (fun (a, b, c) ->
      let open Ftrace.Vc in
      let j x y =
        let r = copy x in
        join r y;
        r
      in
      leq a (j a b)
      && leq b (j a b)
      && j (j a b) c = j a (j b c)
      && j a b = j b a
      && j a a = a)

let vc_epoch_order =
  QCheck2.Test.make ~name:"Vc.hb_epoch agrees with pointwise order" ~count:500
    QCheck2.Gen.(
      pair vc_gen (pair (int_range 1 1000) (int_range 0 7)))
    (fun ((v, _, _), (clock, hart)) ->
      let hart = hart mod Array.length v in
      let e = Ftrace.epoch ~clock ~hart in
      Ftrace.epoch_hart e = hart
      && Ftrace.epoch_clock e = clock
      && Ftrace.Vc.hb_epoch e v = (clock <= v.(hart)))

(* --- ftrace: FastTrack read/write rules -------------------------------------------- *)

let ft_create () =
  let sink = Report.create_sink () in
  let t =
    Ftrace.create ~sink ~symbolize:(fun _ -> None) ~base:0x1_0000
      ~limit:0x2_0000 ~harts:2 ()
  in
  (t, sink)

let ft_write t ~hart ~pc addr =
  Ftrace.on_access t ~pc ~addr ~size:4 ~is_write:true ~is_atomic:false ~hart

let ft_read t ~hart ~pc addr =
  Ftrace.on_access t ~pc ~addr ~size:4 ~is_write:false ~is_atomic:false ~hart

let races sink =
  List.filter
    (fun (r : Report.t) -> r.kind = Report.Data_race)
    (Report.unique_reports sink)

let ftrace_write_write_race () =
  let t, sink = ft_create () in
  ft_write t ~hart:0 ~pc:0x100 0x1_0100;
  ft_write t ~hart:1 ~pc:0x200 0x1_0100;
  (match races sink with
  | [ r ] ->
      Alcotest.(check string) "sanitizer" "ftrace" r.sanitizer;
      (* precise: the report carries the second access's pc, the detail
         names the first racing pc *)
      Alcotest.(check bool) "both pcs in the report" true
        (r.pc = 0x200 && contains r.detail "0x00000100")
  | l -> Alcotest.failf "expected 1 race, got %d" (List.length l));
  (* repeating the pair adds only the opposite-direction report (hart 0's
     write now races hart 1's): one unique report per racing pc pair,
     everything further deduped by the sink *)
  ft_write t ~hart:0 ~pc:0x100 0x1_0100;
  ft_write t ~hart:1 ~pc:0x200 0x1_0100;
  ft_write t ~hart:0 ~pc:0x100 0x1_0100;
  ft_write t ~hart:1 ~pc:0x200 0x1_0100;
  Alcotest.(check int) "deduped per direction" 2 (List.length (races sink))

let ftrace_release_acquire_no_race () =
  let t, sink = ft_create () in
  let lock = 0x1_0F00 in
  ft_write t ~hart:0 ~pc:0x100 0x1_0100;
  Ftrace.on_sync t ~hart:0 ~op:1 ~addr:lock (* release *);
  Ftrace.on_sync t ~hart:1 ~op:0 ~addr:lock (* acquire *);
  ft_write t ~hart:1 ~pc:0x200 0x1_0100;
  Alcotest.(check int) "no race across the edge" 0 (List.length (races sink));
  (* the lock word itself is a known sync slot: never reported *)
  ft_write t ~hart:0 ~pc:0x300 lock;
  ft_write t ~hart:1 ~pc:0x400 lock;
  Alcotest.(check int) "sync word excluded" 0 (List.length (races sink))

let ftrace_read_shared_write_race () =
  let t, sink = ft_create () in
  (* two concurrent readers promote to read-shared without racing *)
  ft_read t ~hart:0 ~pc:0x100 0x1_0200;
  ft_read t ~hart:1 ~pc:0x200 0x1_0200;
  Alcotest.(check int) "reads never race" 0 (List.length (races sink));
  (* an unsynchronized write races with the shared read set *)
  ft_write t ~hart:1 ~pc:0x300 0x1_0200;
  Alcotest.(check bool) "write-after-shared-read races" true
    (races sink <> [])

let ftrace_disjoint_bytes_no_race () =
  let t, sink = ft_create () in
  (* same 4-byte slot, non-overlapping byte ranges: no race *)
  Ftrace.on_access t ~pc:0x100 ~addr:0x1_0300 ~size:2 ~is_write:true
    ~is_atomic:false ~hart:0;
  Ftrace.on_access t ~pc:0x200 ~addr:0x1_0302 ~size:2 ~is_write:true
    ~is_atomic:false ~hart:1;
  Alcotest.(check int) "disjoint bytes" 0 (List.length (races sink));
  (* atomics are marked accesses: excluded from the rules entirely *)
  Ftrace.on_access t ~pc:0x300 ~addr:0x1_0400 ~size:4 ~is_write:true
    ~is_atomic:true ~hart:0;
  Ftrace.on_access t ~pc:0x400 ~addr:0x1_0400 ~size:4 ~is_write:true
    ~is_atomic:true ~hart:1;
  Alcotest.(check int) "atomics excluded" 0 (List.length (races sink))

let ftrace_irq_pseudo_lock () =
  let t, sink = ft_create () in
  let section hart pc =
    Ftrace.on_sync t ~hart ~op:2 ~addr:0 (* irq_off = acquire *);
    ft_write t ~hart ~pc 0x1_0500;
    Ftrace.on_sync t ~hart ~op:3 ~addr:0 (* irq_on = release *)
  in
  section 0 0x100;
  section 1 0x200;
  Alcotest.(check int) "irq-off sections ordered" 0 (List.length (races sink))

let ftrace_state_roundtrip () =
  let t, sink = ft_create () in
  let s = Ftrace.save t in
  ft_write t ~hart:0 ~pc:0x100 0x1_0600;
  Ftrace.restore t s;
  (* the pre-restore write was rewound with the rest of the metadata *)
  ft_write t ~hart:1 ~pc:0x200 0x1_0600;
  Alcotest.(check int) "restored state forgets the detour" 0
    (List.length (races sink))

(* --- ftrace: the zero-core-edit pin -------------------------------------------------- *)

(* The plugin claim, grep-pinned like ualign's: the detector arrives via
   Api_spec + registry + the public trap-handler hook only.  The Common
   Sanitizer Runtime and the engine's probe paths must not know it
   exists. *)
let ftrace_zero_core_edits () =
  let read_all path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  (* cwd is _build/default/test under `dune runtest`, the workspace root
     under `dune exec` -- accept either *)
  let resolve rel =
    if Sys.file_exists ("../" ^ rel) then "../" ^ rel else rel
  in
  List.iter
    (fun rel ->
      let path = resolve rel in
      Alcotest.(check bool)
        (Printf.sprintf "no \"ftrace\" in %s" rel)
        false
        (contains (String.lowercase_ascii (read_all path)) "ftrace"))
    [ "lib/core/runtime.ml"; "lib/emu/machine.ml"; "lib/emu/probe.ml" ]

let () =
  Alcotest.run "embsan_core"
    [
      ( "distiller",
        [
          Alcotest.test_case "union merge rules" `Quick distiller_union;
          Alcotest.test_case "single sanitizer" `Quick distiller_single;
          Alcotest.test_case "header parse errors" `Quick header_parser_rejects;
        ] );
      ( "dsl",
        [
          Alcotest.test_case "round trip" `Quick dsl_roundtrip;
          Alcotest.test_case "parse errors" `Quick dsl_parse_errors;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "poison/unpoison/check" `Quick shadow_basics;
          Alcotest.test_case "partial granule" `Quick shadow_partial_granule;
          Alcotest.test_case "cross-granule start" `Quick shadow_cross_granule_start;
          QCheck_alcotest.to_alcotest shadow_qcheck;
          Alcotest.test_case "encoding byte round-trip" `Quick
            shadow_byte_roundtrip;
          QCheck_alcotest.to_alcotest shadow_partial_roundtrip;
          Alcotest.test_case "clamps at the end of RAM" `Quick
            shadow_clamps_at_ram_end;
          Alcotest.test_case "guest lw past RAM end faults under KASAN" `Quick
            lw_past_ram_end_faults;
          QCheck_alcotest.to_alcotest shadow_restore_qcheck;
          Alcotest.test_case "save shares unwritten chunks" `Quick
            shadow_save_shares_unwritten_chunks;
          QCheck_alcotest.to_alcotest shadow_check_bytewise_qcheck;
        ] );
      ( "kasan",
        [
          Alcotest.test_case "heap lifecycle" `Quick kasan_heap_lifecycle;
          Alcotest.test_case "null deref" `Quick kasan_null_deref;
          Alcotest.test_case "global redzones" `Quick kasan_globals_redzone;
          Alcotest.test_case "dedup" `Quick kasan_dedup;
          QCheck_alcotest.to_alcotest kasan_site_agrees_qcheck;
        ] );
      ( "prober",
        [
          Alcotest.test_case "mode 1 records init" `Quick prober_instrumented_records;
          Alcotest.test_case "mode 2 needs symbols" `Quick prober_requires_symbols;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "EmbSan-C detects heap bugs" `Quick embsan_c_detects;
          Alcotest.test_case "EmbSan-D detects heap bugs" `Quick embsan_d_detects;
          Alcotest.test_case "spec text round-trips" `Quick embsan_spec_text;
          Alcotest.test_case "binary mode on stripped firmware" `Quick
            embsan_binary_mode;
          Alcotest.test_case "KCSAN catches a data race" `Quick embsan_kcsan_race;
          Alcotest.test_case "kmemleak as a third sanitizer (S5)" `Quick
            embsan_kmemleak_third_sanitizer;
        ] );
      ( "plugins",
        [
          QCheck_alcotest.to_alcotest plan_matches_wants;
          QCheck_alcotest.to_alcotest pc_exempt_matches_linear;
          Alcotest.test_case "pending allocs bounded + restored" `Quick
            pending_allocs_bounded_and_restored;
          Alcotest.test_case "ualign as a fourth sanitizer" `Quick
            embsan_ualign_fourth_sanitizer;
          Alcotest.test_case "per-access counters pinned" `Quick
            counters_pinned;
        ] );
      ( "ftrace",
        [
          QCheck_alcotest.to_alcotest vc_join_laws;
          QCheck_alcotest.to_alcotest vc_epoch_order;
          Alcotest.test_case "write/write race" `Quick ftrace_write_write_race;
          Alcotest.test_case "release/acquire edge" `Quick
            ftrace_release_acquire_no_race;
          Alcotest.test_case "read-shared promotion" `Quick
            ftrace_read_shared_write_race;
          Alcotest.test_case "disjoint bytes and atomics" `Quick
            ftrace_disjoint_bytes_no_race;
          Alcotest.test_case "irq pseudo-lock" `Quick ftrace_irq_pseudo_lock;
          Alcotest.test_case "state save/restore" `Quick ftrace_state_roundtrip;
          Alcotest.test_case "zero core edits (grep pin)" `Quick
            ftrace_zero_core_edits;
        ] );
    ]
