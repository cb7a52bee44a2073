(** Columnar view of huge traces — the streaming million-event path.

    A {!Trace.t} and its {!Execution.t} carry dense [n x n] relation
    matrices (temporal order, dependences), which is exactly right for
    the exact engines at tens-to-hundreds of events and exactly wrong
    at 10^6: the matrices alone would need gigabytes.  A [Bigtrace.t]
    keeps only what the tier-1 triage deciders need, all of it linear
    in the trace:

    - the events and their immediate program-order predecessor lists;
    - per event, the two largest shared-data dependence predecessors
      ({!dep_pred_max_excluding}) — the prefix-enabledness certificate
      needs only the maximum outside the candidate pair, never the
      full (per-hot-variable quadratic) dependence lists;
    - the synchronization environment, for the forced-edge order clock
      and the replay certifier.

    Event ids are the observed schedule (as in every recorded trace).
    [read]/[save] speak the exact [eotrace 1] format of {!Trace_io}
    ([read] is {!Trace_io.read_parts}: same scanner, same builder, same
    diagnostics), streaming through a fixed buffer;
    {!of_trace}/{!to_trace} convert losslessly at small sizes for the
    differential tests and for handing a small file to the exact
    engines. *)

type t = {
  events : Event.t array;
  po_preds : int list array;  (** immediate program-order predecessors *)
  dep_m1 : int array;
      (** largest dependence predecessor id per event, [-1] if none *)
  dep_m2 : int array;  (** second largest distinct, [-1] if none *)
  sync : int array;
      (** per event, its synchronization effect as one int (operation in
          the low three bits, semaphore or event variable above): the
          column {!observed_replays} and {!certify_swap} replay *)
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

val n_events : t -> int

val make :
  events:Event.t array ->
  po_edges:(int * int) list ->
  outcome:Trace.outcome ->
  violations:int list ->
  var_names:string array ->
  sem_names:string array ->
  ev_names:string array ->
  sem_init:int array ->
  sem_binary:bool array ->
  ev_init:bool array ->
  final_store:(string * int) list ->
  process_names:(int * string) list ->
  t
(** Direct constructor from parts (the generator path): builds the
    predecessor lists, dependence maxima and replay column.  Raises
    [Failure] on a program-order edge out of range; the other ids are
    trusted to follow {!Trace_io}'s id-range rule. *)

val of_trace : Trace.t -> t
val to_trace : t -> Trace.t

val read : string -> t
(** Streaming reader for the [eotrace 1] format, built on
    {!Trace_io.read_parts}: never the whole file as a string.  Raises
    [Failure] with the same messages as {!Trace_io.load}. *)

val save : string -> t -> unit
(** Streaming writer; output is accepted by both {!read} and
    {!Trace_io.load} (and matches {!Trace_io.to_string} on converted
    traces up to program-order edge ordering).  [read] gives back the
    saved trace, [po_preds] order included, so [save] of a [read] of a
    saved file rewrites it byte for byte. *)

val dep_pred_max_excluding : t -> event:int -> excluding:int -> int
(** The largest dependence predecessor of [event] other than
    [excluding] ([-1] if none) — the quantity the race triage compares
    against the candidate's earlier event to certify that both pair
    events were simultaneously enabled. *)

val po_pred_max : t -> int -> int
(** Largest immediate program-order predecessor ([-1] if none). *)

val conflicting_pairs :
  ?max_candidates:int -> t -> (int * int * int list) list * bool
(** Race candidates: pairs of conflicting computation events of
    distinct processes, as [(lower id, higher id, conflict variables)]
    sorted by pair, mirroring [Race.conflicting_pairs].  Computed in
    one id-order sweep that collects each event's partners once, then
    one counting sort on the lower event.  Stops collecting {e new}
    pairs once [max_candidates] is reached and reports [true] as the
    truncation flag — callers must surface the cap, never silently drop
    it. *)

val observed_replays : t -> bool
(** Does the observed schedule itself replay (forward precedence plus a
    linear synchronization-state simulation)?  The feasibility witness
    every positive tier-1 answer rests on. *)

val certify_swap : t -> int -> int -> bool
(** Replays the observed schedule with the later pair event hoisted to
    run immediately {e before} the earlier one (the back-to-back
    both-orders race certificate), checking every synchronization
    enabledness.  [true] means the reordered schedule completes — the
    replay certification for a streaming-path race verdict. *)
