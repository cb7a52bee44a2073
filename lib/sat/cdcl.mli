(** A conflict-driven clause-learning SAT solver.

    The serious sibling of {!Dpll}: two-watched-literal propagation over
    flat watch vectors, first-UIP conflict analysis with clause
    learning, VSIDS activity branching from a binary heap with decay,
    non-chronological backjumping, and Luby restarts.  Still
    self-contained and dependency-free.

    Formulas over strict total orders (the encoder's event orders) can
    leave transitivity out: {!make} takes the order copies and a
    built-in propagator enforces it lazily, materialising a transitivity
    clause only when it propagates or conflicts.

    The reduction experiments use {!Dpll} (its instances are tiny); this
    solver exists so the SAT substrate holds up on the harder instances the
    benchmarks sweep (random 3-CNF near the phase transition, pigeonhole),
    and as a second independent oracle: the test suite cross-checks CDCL,
    DPLL and brute force against each other. *)

type result = Sat of bool array | Unsat

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int;  (** clauses learned *)
  restarts : int;
  max_decision_level : int;
}

val solve : Cnf.t -> result
(** The satisfying assignment is indexed by variable number (index 0
    unused); unconstrained variables may carry either value. *)

val solve_with_stats : Cnf.t -> result * stats

val is_satisfiable : Cnf.t -> bool

(** {2 Incremental solving under assumptions}

    One compiled formula, many queries: [make] loads the clause database
    once, and each [solve_assuming] call decides satisfiability with a
    set of extra unit assumptions treated as forced first decisions.
    Learned clauses, activity scores and saved phases persist across
    calls, so later queries on the same formula are typically much
    cheaper than the first. *)

type t
(** A persistent solver instance over a fixed formula. *)

type order = {
  events : int;
  before : int -> int -> [ `Always | `Never | `Lit of Cnf.literal ];
}
(** One copy of a strict total order over [events] events: [before a b]
    is the literal asserting "[a] precedes [b]", or a constant.  A copy
    must be irreflexive ([before a a = `Never]) and antisymmetric
    ([before b a] is the negation of [before a b]), its [`Always] pairs
    must be acyclic, and each variable may order only one pair of one
    copy. *)

val make : ?budget:Budget.t -> ?orders:order list -> Cnf.t -> t
(** [?orders] (default none) adds transitivity of every copy to the
    formula without any clause for it: when an order literal "u before
    w" is propagated, one pass over every third event x forces "u
    before x" wherever "w before x" holds and "x before w" wherever "x
    before u" holds.  The clause behind each such step is added to the
    database, permanently, only when it propagates or conflicts.  Order
    variables start in the phase that puts the lower-numbered event of
    their pair first, so a copy whose numbering is itself a solution
    (the encoder numbers events in observed order) is found without a
    conflict.  Every model satisfies the formula (asserted); callers
    decode each copy with {!linear_order}, which checks that the model
    is a strict total order on it.
    @raise Invalid_argument on a malformed copy.

    [?budget] is polled once per conflict, and its deadline is checked
    every 4096 propagations; on expiry any in-flight or later
    [solve_assuming] call raises {!Budget.Expired} (with the solver
    left clean, so it stays usable under a fresh budget), and so does
    [make] itself if its root-level propagation outlasts the deadline.
    The session layer catches the exception and degrades the answer. *)

val linear_order : order -> bool array -> int array option
(** [linear_order o model] is the schedule (events in order) [model]
    puts on copy [o], or [None] unless every literal of the copy agrees
    with that one linear order — i.e. unless the copy is transitive
    under [model].  O(events²). *)

val solve_assuming : t -> Cnf.literal list -> result
(** [solve_assuming t assumptions] is [Sat model] iff the formula is
    satisfiable with every listed literal (DIMACS convention, nonzero,
    within [num_vars]) forced true; the model satisfies formula and
    assumptions alike.  [Unsat] under a nonempty assumption list leaves
    the solver reusable for further queries.
    @raise Invalid_argument on a zero or out-of-range literal.
    @raise Budget.Expired when the instance's budget runs out. *)

val stats : t -> stats
(** Cumulative counters across every [solve_assuming] call on [t]. *)
