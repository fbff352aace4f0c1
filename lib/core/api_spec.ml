(* Sanitizer interface specifications.

   The Distiller's input is the reference sanitizer's interface description
   ("the sanitizers' interface header files", S3.1).  Every sanitizer plugin
   carries its interface in a small declarative header format
   ([Sanitizer.S.header]), parsed here:

     sanitizer kasan;
     resource shadow_memory;
     check  load(addr, size) => check_access;
     update func_alloc(ptr, size) => alloc;

   Each line declares one interception API: its role (check/update), the
   interception point, the arguments the sanitizer wants at that point and
   the runtime operation to invoke. *)

type role = Check | Update

type point =
  | P_load
  | P_store
  | P_func_alloc (* allocator-entry interception (various Xalloc()) *)
  | P_func_free
  | P_global_register
  | P_stack_poison
  | P_stack_unpoison

let point_name = function
  | P_load -> "load"
  | P_store -> "store"
  | P_func_alloc -> "func_alloc"
  | P_func_free -> "func_free"
  | P_global_register -> "global"
  | P_stack_poison -> "stack_poison"
  | P_stack_unpoison -> "stack_unpoison"

let point_of_name = function
  | "load" -> Some P_load
  | "store" -> Some P_store
  | "func_alloc" -> Some P_func_alloc
  | "func_free" -> Some P_func_free
  | "global" -> Some P_global_register
  | "stack_poison" -> Some P_stack_poison
  | "stack_unpoison" -> Some P_stack_unpoison
  | _ -> None

type api = {
  role : role;
  point : point;
  args : string list; (* argument names, e.g. ["addr"; "size"; "pc"] *)
  operation : string; (* runtime operation to dispatch to *)
}

type t = { san_name : string; resources : string list; apis : api list }

(* --- Header parser ----------------------------------------------------------------- *)

exception Spec_error of string

let errf fmt = Format.kasprintf (fun s -> raise (Spec_error s)) fmt

let strip_comment line =
  match String.index_opt line '/' with
  | Some i when i + 1 < String.length line && line.[i + 1] = '*' ->
      String.sub line 0 i
  | _ -> line

let tokens_of_line line =
  line
  |> String.map (fun c ->
         match c with '(' | ')' | ',' | ';' -> ' ' | c -> c)
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

let parse_header text =
  let name = ref None and resources = ref [] and apis = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = strip_comment (String.trim line) in
         if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "/*")
         then
           match tokens_of_line line with
           | [] -> ()
           | [ "sanitizer"; n ] -> name := Some n
           | [ "resource"; r ] -> resources := r :: !resources
           | role :: point :: rest -> (
               let role =
                 match role with
                 | "check" -> Check
                 | "update" -> Update
                 | r -> errf "bad role %s" r
               in
               let point =
                 match point_of_name point with
                 | Some p -> p
                 | None -> errf "unknown interception point %s" point
               in
               match List.rev rest with
               | operation :: "=>" :: rev_args ->
                   apis := { role; point; args = List.rev rev_args; operation } :: !apis
               | _ -> errf "missing '=> operation' in %S" line)
           | _ -> errf "cannot parse header line %S" line);
  match !name with
  | None -> errf "header lacks a 'sanitizer' declaration"
  | Some san_name ->
      { san_name; resources = List.rev !resources; apis = List.rev !apis }
