(** The one error surface of the mini-C frontend.

    The lexer, the parser, the semantic analysis and code generation all
    fail through the single located {!Error} exception below, so every
    frontend failure carries the same payload: which phase refused the
    input, where (1-based line/column when the phase still has source
    positions), and the offending token when there is one.  Downstream supervision
    ({!Exec.Outcome}) maps the exception into the campaign failure
    taxonomy without string-matching, and interactive error messages
    become actionable ("2:14: parse error at token '5': expected ;"
    instead of a bare message). *)

type phase = Lex | Parse | Sema | Codegen

(** 1-based source position. *)
type loc = { line : int; column : int }

type error = {
  phase : phase;
  loc : loc option;      (** [None] when the phase lost positions (sema, codegen) *)
  token : string option; (** the offending token, rendered *)
  message : string;
}

exception Error of error

let phase_name = function
  | Lex -> "lex"
  | Parse -> "parse"
  | Sema -> "sema"
  | Codegen -> "codegen"

let pp_error ppf e =
  (match e.loc with
  | Some { line; column } -> Fmt.pf ppf "%d:%d: " line column
  | None -> ());
  Fmt.pf ppf "%s error" (phase_name e.phase);
  (match e.token with
  | Some t -> Fmt.pf ppf " at token '%s'" t
  | None -> ());
  Fmt.pf ppf ": %s" e.message

let to_string e = Fmt.str "%a" pp_error e

(** Raise a located frontend error. *)
let error ?loc ?token phase fmt =
  Fmt.kstr (fun message -> raise (Error { phase; loc; token; message })) fmt

(** Line/column (1-based) of byte offset [pos] in [src]. *)
let loc_of_pos src pos =
  let pos = min pos (String.length src) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; column = pos - !bol + 1 }

let () =
  Printexc.register_printer (function
    | Error e -> Some (Fmt.str "Frontend.Error (%s)" (to_string e))
    | _ -> None)
