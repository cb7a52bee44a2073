(** Plain-text serialization of traces.

    Lets an observed execution be recorded once and re-analysed later (or
    shipped in a bug report) without re-running the program.  The format is
    line-based and versioned:

    {v
    eotrace 1
    outcome completed
    vars x y
    sems s            # names; binary semaphores marked with a trailing *
    events e          # event-variable names
    sem_init 0
    ev_init 0
    process 0 main
    event 0 0 0 computation "x := 1" reads 1 writes 0
    event 1 0 1 sem_v 0 "V(s)" reads writes
    po 0 1
    final x 1
    v}

    Tokens are separated by spaces; a token opening with a double quote
    runs to the closing quote, with backslash escapes ([\n] for a
    newline, a backslash before any other character for itself).  The
    comment rule: a [#] outside a quoted token starts a comment that
    runs to the end of the line, while a [#] inside a quoted label is
    part of the label.  Blanks at either end of a line are ignored.

    The id-range rule: every variable id an event reads or writes is
    below the number of names on the [vars] line, every [sem_p]/[sem_v]
    id below the number on the [sems] line, and every
    [post]/[wait]/[clear] id below the number on the [events] line;
    [sem_init] and [ev_init] give one value per semaphore and per event
    variable.  A file that breaks the rule is rejected with a message
    naming the offending event, like any other malformed input.

    Unknown directives are rejected, not skipped: the format is a contract,
    not a suggestion. *)

val to_string : Trace.t -> string

val of_string : string -> Trace.t
(** Raises [Failure] with a line-number message on malformed input. *)

val save : string -> Trace.t -> unit
(** [save path trace] writes the trace to a file. *)

val load : string -> Trace.t
(** Reads the file through a fixed buffer (peak memory: the buffer plus
    the accumulated trace, never the whole file as one string), with the
    exact same error/line-number contract as {!of_string}. *)

(** {1 Streaming parser core}

    The scanner and builder [load] is made of, exposed so other readers
    of the same format — notably [Bigtrace.read], which assembles a
    columnar representation instead of a {!Trace.t} — share one code
    path (same tokenizer, same diagnostics) without duplicating the
    grammar. *)

type directive =
  | D_blank  (** empty or comment-only line *)
  | D_header  (** [eotrace 1] *)
  | D_outcome of Trace.outcome
  | D_vars of string array
  | D_sems of string array * bool array  (** names, binary flags *)
  | D_events of string array  (** event-variable names *)
  | D_sem_init of int array
  | D_ev_init of bool array
  | D_process of int * string
  | D_event of Event.t
  | D_po of int * int
  | D_violation of int
  | D_final of string * int

val parse_line : lineno:int -> string -> directive
(** Parses one raw line with the scanner every reader uses (comment
    stripping and quote-aware tokenizing included).  Raises [Failure]
    with a ["line %d: ..."] message on malformed input — the shared
    diagnostic contract. *)

type parts = {
  events : Event.t array;  (** in id order, ids dense from 0 *)
  po_src : int array;  (** program-order edges in file order: sources *)
  po_dst : int array;  (** and targets *)
  outcome : Trace.outcome;
  violations : int list;
  var_names : string array;
  sem_names : string array;
  ev_names : string array;
  sem_init : int array;
  sem_binary : bool array;
  ev_init : bool array;
  final_store : (string * int) list;
  process_names : (int * string) list;
}
(** A parsed and checked trace before either representation is built:
    ids dense, every program-order edge and every id in range. *)

val read_parts : string -> parts
(** The streaming reader behind {!load} and [Bigtrace.read].  Events
    written in id order (as every writer does) are never sorted.
    Raises [Failure] as {!load} does. *)

val quote : string -> string
(** The format's string quoting, shared with the streaming writer. *)

val kind_tokens : Event.kind -> string list
(** The event-kind token spelling, shared with the streaming writer. *)
