(** SAT encoding of feasibility: conditions F1–F3 over an observed
    execution [<E,T,D>] compiled to CNF once, then queried many times
    under assumptions with the in-repo CDCL solver ({!Cdcl}).

    The encoding has one Boolean order variable [o(a,b)] per {e
    candidate} pair — an unordered pair of events not already ordered by
    the transitive closure of program order and dependence; closed pairs
    are constants folded away at compile time.  Totality and
    antisymmetry are structural (one variable carries both directions of
    a pair); transitivity is left to the solver's order propagator
    ({!Cdcl.make} [~orders]) and only spelled out, as two clauses per
    candidate triple, in the standalone formulas {!cnf} and
    {!race_formula}; counting semaphores become sequential-counter
    cardinality constraints, binary semaphores and event variables
    become last-setter trigger disjunctions over one-directional
    auxiliaries.

    Every satisfying model decodes into a witness schedule — a total
    order whose replay is feasible — so callers can (and do) certify
    each positive answer with the [Replay] oracle.  Queries:

    - [a] {e could happen before} [b] ⇔ SAT under the assumption
      [o(a,b)];
    - [a] {e must happen before} [b] ⇔ the formula is satisfiable and
      UNSAT under [o(b,a)];
    - the feasible-race test for [(a,b)] is a separate two-copy formula
      ({!race_formula}) demanding two complete feasible orders that
      share one prefix (same events, same order — binary-semaphore and
      event-flag state depends on prefix order) and then run [a·b]
      back-to-back in one copy and [b·a] in the other.

    This library sits below [eo_feasible]: it consumes a plain
    {!program} projection of a skeleton, and the session layer owns
    witness validation and engine routing. *)

type program = {
  n : int;
  po_preds : int list array;
  dep_preds : int list array;
  kinds : Event.kind array;
  sem_init : int array;
  sem_binary : bool array;
  ev_init : bool array;
}
(** The fragment of a skeleton the encoder needs.  Arrays are indexed by
    event id in [0 .. n-1]; [sem_init]/[sem_binary] by semaphore id;
    [ev_init] by event-variable id. *)

type t
(** A compiled formula plus a lazily created persistent solver.  Build
    once per program; every ordering query reuses the same solver, so
    learned clauses and branching heuristics accumulate across a query
    batch. *)

val build : ?stats:Counters.t -> ?budget:Budget.t -> program -> t
(** Compile the feasibility formula, without transitivity clauses.
    Bumps [Encoder_vars] and [Encoder_clauses] by what the solver loads;
    later probes bump [Solver_conflicts] and [Solver_propagations].

    [?budget] is handed to every solver instance this [t] creates; an
    expiring budget makes any probe raise [Budget.Expired] (counters are
    still committed first).  The session layer catches the exception and
    degrades the answer. *)

val program : t -> program

val cnf : t -> Cnf.t
(** The base formula (no query assumptions) as a standalone CNF, with
    the transitivity clauses spelled out: equisatisfiable with what the
    probes solve, for export and for solvers without the order
    propagator.  Built afresh on each call. *)

val num_vars : t -> int

val num_clauses : t -> int
(** The clauses the solver loads — {!cnf} minus transitivity. *)

val order_literal : t -> int -> int -> [ `Always | `Never | `Lit of Cnf.literal ]
(** [order_literal t a b] is the literal asserting "[a] precedes [b]":
    a constant when the pair is closed under program order ∪ dependence
    (or [a = b], which is [`Never]), otherwise a DIMACS literal over
    {!cnf}.  @raise Invalid_argument on an out-of-range event. *)

val feasible_witness : t -> int array option
(** A feasible schedule of the whole program, or [None] if the formula
    is unsatisfiable. *)

val exists_before_witness : t -> int -> int -> int array option
(** [exists_before_witness t a b] is a feasible schedule running [a]
    strictly before [b], if any ([None] when [a = b]).  This is the CHB
    probe; MHB composes as feasibility plus the [b]-before-[a] probe
    answering [None]. *)

val race_formula : t -> int -> int -> Cnf.t
(** The standalone two-copy race formula for the pair — exported so the
    CLI can dump it as DIMACS.  @raise Invalid_argument on an
    out-of-range event. *)

val race_witness : t -> int -> int -> (int array * int array) option
(** [race_witness t a b] decides the back-to-back race condition of
    [Reach.exists_race] on [t]'s program: two complete feasible
    schedules over a common prefix, one running [a] immediately before
    [b], the other [b] immediately before [a].  Returns both witness
    schedules. *)
