(* The sanitizer table: every plugin the runtime can instantiate, in the
   order [Embsan.prepare] distills their headers.  This is the only place
   the runtime's side of the architecture names concrete sanitizers; a new
   one is its module plus one line here.  The table is immutable, so the
   orchestrator's worker domains read it without a lock. *)

let table =
  [ Kasan.plugin; Kcsan.plugin; Kmemleak.plugin; Ualign.plugin; Ftrace.plugin ]

let find name =
  List.find_opt (fun p -> String.equal (Sanitizer.name p) name) table

let select names =
  match List.find_opt (fun n -> find n = None) names with
  | Some n ->
      invalid_arg (Printf.sprintf "Plugins.select: unknown sanitizer %S" n)
  | None -> List.filter (fun p -> List.mem (Sanitizer.name p) names) table
