type result = Sat of bool array | Unsat

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int;
  restarts : int;
  max_decision_level : int;
}

type order = {
  events : int;
  before : int -> int -> [ `Always | `Never | `Lit of Cnf.literal ];
}

(* Literals are encoded as indices: +v -> 2v, -v -> 2v+1; negation is
   [lxor 1].  Variable of an index: [idx lsr 1].  Variable 0 never
   occurs in a clause: it is fixed true, so index 0 is the constant
   true literal and index 1 the constant false one, which lets order
   tables mix constants and variables under one [lit_value]. *)
let lit_of_dimacs l = if l > 0 then 2 * l else (2 * -l) + 1

let neg idx = idx lxor 1

let var_of idx = idx lsr 1

let is_pos idx = idx land 1 = 0

let lit_always = 0

let lit_never = 1

exception Found_unsat

(* A deadline check every 4096 propagations, so a long conflict-free
   descent still observes the budget. *)
let propagation_mask = 4095

type solver = {
  num_vars : int;
  budget : Budget.t;
  (* Clause database: each clause is an int array of literal indices;
     watched literals are kept in positions 0 and 1. *)
  mutable clauses : int array array;
  mutable n_clauses : int;
  (* value.(v): 0 unassigned, 1 true, -1 false. *)
  value : int array;
  level : int array;  (* decision level per variable *)
  reason : int array;  (* clause id that implied the variable, or -1 *)
  mutable trail : int array;  (* assigned literal indices, in order *)
  mutable trail_size : int;
  mutable qhead : int;
  mutable decision_level : int;
  trail_lim : int array;  (* trail size at each decision level *)
  activity : float array;
  mutable activity_inc : float;
  phase : bool array;  (* saved polarity per variable *)
  (* Decision heap: a binary max-heap of variables by activity (ties to
     the lower index); heap_pos.(v) is v's slot, or -1 when absent.
     Every unassigned variable is in the heap. *)
  heap : int array;
  mutable heap_size : int;
  heap_pos : int array;
  (* watches.(lit): ids of the clauses watching [lit], in the first
     wsize.(lit) slots of a growable vector. *)
  watches : int array array;
  wsize : int array;
  seen : bool array;  (* reused by [analyze]; all false between calls *)
  (* Order copies for the transitivity propagator: ord_tbl.(c) holds
     the literal index of "a before b" at [a * ord_n.(c) + b].  Its
     current truth is kept in step by [enqueue] and [backtrack] as two
     bit matrices of [ord_words.(c)] words per row: bit b of row a of
     ord_true.(c) is set when "a before b" is true, of ord_false.(c)
     when it is false.  An order variable v belongs to copy
     ovar_copy.(v) (-1: not an order variable) and, when true, puts a
     before b for ovar_pair.(v) = a * n + b. *)
  mutable ord_n : int array;
  mutable ord_words : int array;
  mutable ord_tbl : int array array;
  mutable ord_true : int array array;
  mutable ord_false : int array array;
  ovar_copy : int array;
  ovar_pair : int array;
  (* statistics *)
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable learned_count : int;
  mutable restarts : int;
  mutable max_level_seen : int;
}

let lit_value s idx =
  let v = s.value.(var_of idx) in
  if is_pos idx then v else -v

(* ------------------------------------------------------------------ *)
(* Decision heap. *)

let heap_better s a b =
  let x = s.activity.(a) and y = s.activity.(b) in
  x > y || (x = y && a < b)

let heap_place s i v =
  s.heap.(i) <- v;
  s.heap_pos.(v) <- i

let heap_up s i =
  let v = s.heap.(i) in
  let i = ref i in
  while !i > 0 && heap_better s v s.heap.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    heap_place s !i s.heap.(p);
    i := p
  done;
  heap_place s !i v

let heap_down s i =
  let v = s.heap.(i) in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= s.heap_size then continue := false
    else begin
      let c =
        if l + 1 < s.heap_size && heap_better s s.heap.(l + 1) s.heap.(l) then
          l + 1
        else l
      in
      if heap_better s s.heap.(c) v then begin
        heap_place s !i s.heap.(c);
        i := c
      end
      else continue := false
    end
  done;
  heap_place s !i v

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    heap_place s s.heap_size v;
    s.heap_size <- s.heap_size + 1;
    heap_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    heap_place s 0 s.heap.(s.heap_size);
    heap_down s 0
  end;
  v

let create ~budget num_vars =
  let s =
    {
      num_vars;
      budget;
      clauses = Array.make 16 [||];
      n_clauses = 0;
      value = Array.make (num_vars + 1) 0;
      level = Array.make (num_vars + 1) 0;
      reason = Array.make (num_vars + 1) (-1);
      trail = Array.make (max 1 num_vars) 0;
      trail_size = 0;
      qhead = 0;
      decision_level = 0;
      trail_lim = Array.make (num_vars + 2) 0;
      activity = Array.make (num_vars + 1) 0.0;
      activity_inc = 1.0;
      phase = Array.make (num_vars + 1) false;
      heap = Array.make (num_vars + 1) 0;
      heap_size = 0;
      heap_pos = Array.make (num_vars + 1) (-1);
      watches = Array.make ((2 * (num_vars + 1)) + 2) [||];
      wsize = Array.make ((2 * (num_vars + 1)) + 2) 0;
      seen = Array.make (num_vars + 1) false;
      ord_n = [||];
      ord_words = [||];
      ord_tbl = [||];
      ord_true = [||];
      ord_false = [||];
      ovar_copy = Array.make (num_vars + 1) (-1);
      ovar_pair = Array.make (num_vars + 1) 0;
      decisions = 0;
      propagations = 0;
      conflicts = 0;
      learned_count = 0;
      restarts = 0;
      max_level_seen = 0;
    }
  in
  s.value.(0) <- 1;
  for v = 1 to num_vars do
    heap_insert s v
  done;
  s

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.activity_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 1 to s.num_vars do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.activity_inc <- s.activity_inc *. 1e-100;
    (* Scaling can underflow distinct activities into ties; re-heapify
       so the tie-break stays consistent. *)
    for i = (s.heap_size / 2) - 1 downto 0 do
      heap_down s i
    done
  end
  else if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let decay s = s.activity_inc <- s.activity_inc /. 0.95

(* Bit matrices: [word_bits] pairs per int. *)
let word_bits = 63

let set_bit m ~words a b =
  let i = (a * words) + (b / word_bits) in
  m.(i) <- m.(i) lor (1 lsl (b mod word_bits))

let clear_bit m ~words a b =
  let i = (a * words) + (b / word_bits) in
  m.(i) <- m.(i) land lnot (1 lsl (b mod word_bits))

(* Index of the lowest set bit of a nonzero word. *)
let lowest_bit x =
  let x = ref (x land -x) and i = ref 0 in
  if !x land 0xFFFFFFFF = 0 then (i := 32; x := !x lsr 32);
  if !x land 0xFFFF = 0 then (i := !i + 16; x := !x lsr 16);
  if !x land 0xFF = 0 then (i := !i + 8; x := !x lsr 8);
  if !x land 0xF = 0 then (i := !i + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (i := !i + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then incr i;
  !i

(* Order variable [v]'s pair gets truth [code] (1 true, -1 false, 0
   unassigned) in both bit matrices. *)
let set_order s v code =
  let c = s.ovar_copy.(v) in
  if c >= 0 then begin
    let n = s.ord_n.(c) and p = s.ovar_pair.(v) and words = s.ord_words.(c) in
    let a = p / n and b = p mod n in
    let t = s.ord_true.(c) and f = s.ord_false.(c) in
    if code = 0 then begin
      clear_bit t ~words a b;
      clear_bit t ~words b a;
      clear_bit f ~words a b;
      clear_bit f ~words b a
    end
    else if code = 1 then begin
      set_bit t ~words a b;
      set_bit f ~words b a
    end
    else begin
      set_bit t ~words b a;
      set_bit f ~words a b
    end
  end

let enqueue s idx reason =
  let v = var_of idx in
  s.value.(v) <- (if is_pos idx then 1 else -1);
  set_order s v (if is_pos idx then 1 else -1);
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- reason;
  s.phase.(v) <- is_pos idx;
  s.trail.(s.trail_size) <- idx;
  s.trail_size <- s.trail_size + 1

let watch s lit id =
  let n = s.wsize.(lit) in
  let w = s.watches.(lit) in
  if n = Array.length w then begin
    let bigger = Array.make (max 4 (2 * n)) 0 in
    Array.blit w 0 bigger 0 n;
    s.watches.(lit) <- bigger
  end;
  s.watches.(lit).(n) <- id;
  s.wsize.(lit) <- n + 1

let add_clause_raw s lits =
  let id = s.n_clauses in
  if id = Array.length s.clauses then begin
    let bigger = Array.make (2 * id) [||] in
    Array.blit s.clauses 0 bigger 0 id;
    s.clauses <- bigger
  end;
  s.clauses.(id) <- lits;
  s.n_clauses <- id + 1;
  if Array.length lits >= 2 then begin
    watch s lits.(0) id;
    watch s lits.(1) id
  end;
  id

(* Visit the clauses watching [false_lit] (just made false), compacting
   the ones that keep watching it in place.  Returns the id of a
   conflicting clause, or -1. *)
let propagate_clauses s false_lit =
  let ws = s.watches.(false_lit) in
  let size = s.wsize.(false_lit) in
  let conflict = ref (-1) in
  let i = ref 0 and j = ref 0 in
  while !i < size do
    let id = ws.(!i) in
    incr i;
    let c = s.clauses.(id) in
    (* Normalize: the false literal sits in position 1. *)
    if c.(0) = false_lit then begin
      c.(0) <- c.(1);
      c.(1) <- false_lit
    end;
    if !conflict <> -1 || lit_value s c.(0) = 1 then begin
      (* Clause satisfied, or a conflict already found: keep it. *)
      ws.(!j) <- id;
      incr j
    end
    else begin
      let n = Array.length c in
      let k = ref 2 in
      while !k < n && lit_value s c.(!k) = -1 do
        incr k
      done;
      if !k < n then begin
        c.(1) <- c.(!k);
        c.(!k) <- false_lit;
        watch s c.(1) id
      end
      else begin
        ws.(!j) <- id;
        incr j;
        if lit_value s c.(0) = -1 then conflict := id else enqueue s c.(0) id
      end
    end
  done;
  s.wsize.(false_lit) <- !j;
  !conflict

(* The transitivity clause ¬trigger' ∨ ¬other' ∨ implied of one order
   triangle, with [trigger] and [other] already negated and constant
   literals dropped.  [implied] is unassigned (the clause propagates:
   it becomes its reason) or false (the clause is a conflict).  Either
   way it is materialised permanently, with the two literals of the
   highest levels in the watched positions.  Returns the conflict id, or
   -1 after enqueueing [implied]. *)
let order_clause s ~trigger ~other implied =
  let lits = List.filter (fun l -> var_of l <> 0) [ implied; trigger; other ] in
  if lit_value s implied = 0 then begin
    enqueue s implied (add_clause_raw s (Array.of_list lits));
    -1
  end
  else begin
    (* [trigger] is on the current level; the next-highest goes second. *)
    let rest = List.filter (fun l -> l <> trigger) lits in
    let rest =
      List.sort
        (fun x y -> compare s.level.(var_of y) s.level.(var_of x))
        rest
    in
    add_clause_raw s (Array.of_list (trigger :: rest))
  end

(* The transitivity propagator: [idx] just made "u before w" true in
   its copy, so one pass over every third event x forces u before x
   wherever w before x holds, and x before w wherever x before u holds
   (that is, wherever u before x is false).  Word by word, the events
   to act on are [true(w) ∧ ¬true(u)] and [false(u) ∧ ¬false(w)]; x = u
   and x = w drop out on their own, since the diagonal stays clear and
   "u before w" is already true.  Returns a conflict clause id, or -1. *)
let propagate_order s idx =
  let v = var_of idx in
  let c = s.ovar_copy.(v) in
  if c < 0 then -1
  else begin
    let n = s.ord_n.(c) and words = s.ord_words.(c) and tbl = s.ord_tbl.(c) in
    let t = s.ord_true.(c) and f = s.ord_false.(c) in
    let p = s.ovar_pair.(v) in
    let u = if is_pos idx then p / n else p mod n in
    let w = if is_pos idx then p mod n else p / n in
    let trigger = neg idx in
    let conflict = ref (-1) and k = ref 0 in
    (* Each step only sets bits of its own event x, so one snapshot of a
       word serves the whole word. *)
    while !conflict = -1 && !k < words do
      let ru = (u * words) + !k and rw = (w * words) + !k in
      let m = ref (t.(rw) land lnot t.(ru)) in
      while !conflict = -1 && !m <> 0 do
        let x = (!k * word_bits) + lowest_bit !m in
        conflict :=
          order_clause s ~trigger ~other:(neg tbl.((w * n) + x)) tbl.((u * n) + x);
        m := !m land (!m - 1)
      done;
      let m = ref (f.(ru) land lnot f.(rw)) in
      while !conflict = -1 && !m <> 0 do
        let x = (!k * word_bits) + lowest_bit !m in
        conflict :=
          order_clause s ~trigger ~other:tbl.((u * n) + x) tbl.((x * n) + w);
        m := !m land (!m - 1)
      done;
      incr k
    done;
    !conflict
  end

(* Returns the id of a conflicting clause, or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < s.trail_size do
    if
      s.propagations land propagation_mask = propagation_mask
      && Budget.check_now s.budget
    then raise Budget.Expired;
    let lit = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    conflict := propagate_clauses s (neg lit);
    if !conflict = -1 then conflict := propagate_order s lit
  done;
  !conflict

(* First-UIP conflict analysis.  Returns (learned clause with the asserting
   literal first, backjump level). *)
let analyze s conflict_id =
  let seen = s.seen in
  let learned = ref [] in
  let counter = ref 0 in
  let backjump = ref 0 in
  let absorb_clause id skip_lit =
    Array.iter
      (fun lit ->
        let v = var_of lit in
        if lit <> skip_lit && (not seen.(v)) && s.level.(v) > 0 then begin
          seen.(v) <- true;
          bump s v;
          if s.level.(v) = s.decision_level then incr counter
          else begin
            learned := lit :: !learned;
            if s.level.(v) > !backjump then backjump := s.level.(v)
          end
        end)
      s.clauses.(id)
  in
  absorb_clause conflict_id (-1);
  (* Walk the trail backwards resolving until one current-level literal
     remains: the first unique implication point. *)
  let uip = ref (-1) in
  let i = ref (s.trail_size - 1) in
  let continue = ref true in
  while !continue do
    while not seen.(var_of s.trail.(!i)) do
      decr i
    done;
    let lit = s.trail.(!i) in
    let v = var_of lit in
    seen.(v) <- false;
    decr counter;
    if !counter = 0 then begin
      uip := neg lit;
      continue := false
    end
    else begin
      absorb_clause s.reason.(v) lit;
      decr i
    end
  done;
  List.iter (fun lit -> seen.(var_of lit) <- false) !learned;
  (Array.of_list (!uip :: !learned), !backjump)

(* [trail_lim.(d)] records the trail size at the moment decision level [d]
   was opened, so undoing down TO [target] keeps everything up to
   [trail_lim.(target + 1)] — in particular level-0 (root) assignments
   survive a backtrack to 0. *)
let backtrack s target_level =
  if s.decision_level > target_level then begin
    let keep = s.trail_lim.(target_level + 1) in
    while s.trail_size > keep do
      s.trail_size <- s.trail_size - 1;
      let v = var_of s.trail.(s.trail_size) in
      s.value.(v) <- 0;
      s.reason.(v) <- -1;
      set_order s v 0;
      heap_insert s v
    done;
    s.qhead <- s.trail_size;
    s.decision_level <- target_level
  end

let rec pick_branch s =
  if s.heap_size = 0 then 0
  else
    let v = heap_pop s in
    if s.value.(v) = 0 then v else pick_branch s

(* Luby restart sequence, scaled. *)
let luby i =
  let rec go k i =
    if i = (1 lsl k) - 1 then 1 lsl (k - 1)
    else if i < (1 lsl (k - 1)) - 1 then go (k - 1) i
    else go (k - 1) (i - ((1 lsl (k - 1)) - 1))
  in
  let rec size k = if (1 lsl k) - 1 >= i + 1 then k else size (k + 1) in
  go (size 1) i

(* ------------------------------------------------------------------ *)
(* Order copies. *)

(* The schedule a relation over [n] events denotes, if [holds] is a
   strict total order: predecessor counts are then a permutation, so
   sorting by them gives the order, and one more pass checks that it
   agrees with every pair. *)
let linear_of ~n holds =
  let count = Array.make n 0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && holds a b then count.(b) <- count.(b) + 1
    done
  done;
  let order = Array.init n Fun.id in
  Array.sort (fun x y -> compare count.(x) count.(y)) order;
  let pos = Array.make n 0 in
  Array.iteri (fun i e -> pos.(e) <- i) order;
  let agrees = ref true in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && holds a b <> (pos.(a) < pos.(b)) then agrees := false
    done
  done;
  if !agrees then Some order else None

let linear_order o model =
  linear_of ~n:o.events (fun a b ->
      match o.before a b with
      | `Always -> true
      | `Never -> false
      | `Lit l -> if l > 0 then model.(l) else not model.(-l))

(* Compile the order copies into flat literal tables, checking that each
   is antisymmetric, irreflexive and owns its variables. *)
let load_orders s orders =
  let bad fmt = Printf.ksprintf invalid_arg ("Cdcl.make: " ^^ fmt) in
  let lit_of = function
    | `Always -> lit_always
    | `Never -> lit_never
    | `Lit l ->
        if l = 0 || abs l > s.num_vars then bad "order literal %d out of range" l;
        lit_of_dimacs l
  in
  List.mapi
    (fun c o ->
      let n = o.events in
      let tbl = Array.make (n * n) lit_never in
      for a = 0 to n - 1 do
        if o.before a a <> `Never then bad "event %d precedes itself" a;
        for b = a + 1 to n - 1 do
          let l = lit_of (o.before a b) in
          if lit_of (o.before b a) <> neg l then
            bad "pair (%d,%d) is not antisymmetric" a b;
          tbl.((a * n) + b) <- l;
          tbl.((b * n) + a) <- neg l;
          let v = var_of l in
          if v <> 0 then begin
            if s.ovar_copy.(v) >= 0 then bad "variable %d orders two pairs" v;
            s.ovar_copy.(v) <- c;
            (* First guess: the lower-numbered event goes first. *)
            s.phase.(v) <- is_pos l;
            s.ovar_pair.(v) <- (if is_pos l then (a * n) + b else (b * n) + a)
          end
        done
      done;
      (* The propagator watches variables only, so the constant pairs
         must be consistent among themselves: acyclic (depth-first,
         state 1 = on the stack, 2 = done). *)
      let state = Array.make n 0 in
      let rec visit a =
        if state.(a) = 1 then bad "the constant pairs of copy %d form a cycle" c;
        if state.(a) = 0 then begin
          state.(a) <- 1;
          for b = 0 to n - 1 do
            if tbl.((a * n) + b) = lit_always then visit b
          done;
          state.(a) <- 2
        end
      in
      for a = 0 to n - 1 do
        visit a
      done;
      (n, tbl))
    orders

(* ------------------------------------------------------------------ *)
(* Incremental interface: one solver instance answers many queries
   under different assumption sets.  Learned clauses, VSIDS activity
   and saved phases persist across calls, which is what makes the
   per-pair ordering probes of [Eo_encode] cheap after the first one. *)

exception Unsat_assuming

type t = {
  s : solver;
  problem : Cnf.t;  (* kept for the witness sanity assertion *)
  mutable dead : bool;  (* a level-0 conflict: unsat regardless of assumptions *)
}

let make ?(budget = Budget.unlimited) ?(orders = []) (f : Cnf.t) =
  let s = create ~budget f.Cnf.num_vars in
  let tables = load_orders s orders in
  s.ord_n <- Array.of_list (List.map fst tables);
  s.ord_tbl <- Array.of_list (List.map snd tables);
  s.ord_words <- Array.map (fun n -> (n + word_bits - 1) / word_bits) s.ord_n;
  s.ord_true <- Array.mapi (fun c n -> Array.make (n * s.ord_words.(c)) 0) s.ord_n;
  s.ord_false <- Array.mapi (fun c n -> Array.make (n * s.ord_words.(c)) 0) s.ord_n;
  (* Constant pairs are set once and never cleared. *)
  Array.iteri
    (fun c n ->
      let words = s.ord_words.(c) in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b && s.ord_tbl.(c).((a * n) + b) = lit_always then begin
            set_bit s.ord_true.(c) ~words a b;
            set_bit s.ord_false.(c) ~words b a
          end
        done
      done)
    s.ord_n;
  let dead =
    try
      (* Load the problem clauses: dedup literals, drop tautologies.  Unit
         enqueues are deferred until every clause is in the database and
         watched — propagating earlier would run past clauses that do not
         exist yet and silently miss their implications. *)
      let pending_units = ref [] in
      List.iter
        (fun clause ->
          let lits =
            List.sort_uniq compare (List.map lit_of_dimacs clause)
          in
          let tautological =
            List.exists (fun l -> List.mem (neg l) lits) lits
          in
          if not tautological then
            match lits with
            | [] -> raise Found_unsat
            | [ l ] -> pending_units := l :: !pending_units
            | _ -> ignore (add_clause_raw s (Array.of_list lits)))
        f.Cnf.clauses;
      List.iter
        (fun l ->
          match lit_value s l with
          | 1 -> ()
          | -1 -> raise Found_unsat
          | _ -> enqueue s l (-1))
        (List.rev !pending_units);
      if propagate s <> -1 then raise Found_unsat;
      false
    with Found_unsat -> true
  in
  { s; problem = f; dead }

let stats t =
  let s = t.s in
  {
    decisions = s.decisions;
    propagations = s.propagations;
    conflicts = s.conflicts;
    learned = s.learned_count;
    restarts = s.restarts;
    max_decision_level = s.max_level_seen;
  }

(* Assumptions are treated as forced first decisions (MiniSat style): at
   every decision point the first unassigned assumption literal is
   branched on before any free variable.  Because free branching only
   happens once every assumption is satisfied, an assumption found false
   at decision time can only have been implied by the formula plus the
   other assumptions — i.e. the query is unsat under the assumptions
   while the solver itself stays usable.  Never opening a decision level
   for an already-true assumption keeps every level non-empty, so the
   [trail_lim] sizing of [create] still bounds the level count. *)
let solve_assuming t assumption_list =
  if t.dead then Unsat
  else begin
    let s = t.s in
    Budget.raise_if_exhausted s.budget;
    let assumptions =
      Array.of_list
        (List.map
           (fun l ->
             if l = 0 || abs l > s.num_vars then
               invalid_arg "Cdcl.solve_assuming: literal out of range";
             lit_of_dimacs l)
           assumption_list)
    in
    let n_assum = Array.length assumptions in
    let result =
      try
        let conflicts_until_restart = ref 64 in
        let answer = ref None in
        while !answer = None do
          let conflict = propagate s in
          if conflict <> -1 then begin
            s.conflicts <- s.conflicts + 1;
            if s.decision_level = 0 then begin
              t.dead <- true;
              raise Found_unsat
            end;
            let learned, backjump_level = analyze s conflict in
            (* The second watch must be a literal of the backjump level, or
               the watching invariant breaks on later backtracks (clauses can
               silently stop propagating, yielding bogus SAT answers). *)
            if Array.length learned > 1 then begin
              let best = ref 1 in
              for i = 2 to Array.length learned - 1 do
                if
                  s.level.(var_of learned.(i))
                  > s.level.(var_of learned.(!best))
                then best := i
              done;
              let tmp = learned.(1) in
              learned.(1) <- learned.(!best);
              learned.(!best) <- tmp
            end;
            backtrack s backjump_level;
            (if Array.length learned = 1 then enqueue s learned.(0) (-1)
             else begin
               let id = add_clause_raw s learned in
               s.learned_count <- s.learned_count + 1;
               enqueue s learned.(0) id
             end);
            decay s;
            (* Per-conflict budget poll, sharing the restart cadence
               bookkeeping; [propagate] adds a deadline check every 4096
               propagations for the long conflict-free descents. *)
            if Budget.poll_conflict s.budget then raise Budget.Expired;
            decr conflicts_until_restart
          end
          else if !conflicts_until_restart <= 0 && s.decision_level > 0
          then begin
            s.restarts <- s.restarts + 1;
            conflicts_until_restart := 64 * luby s.restarts;
            backtrack s 0
          end
          else begin
            let next_assumption =
              let rec scan i =
                if i >= n_assum then None
                else
                  match lit_value s assumptions.(i) with
                  | 1 -> scan (i + 1)
                  | -1 -> raise Unsat_assuming
                  | _ -> Some assumptions.(i)
              in
              scan 0
            in
            let branch idx =
              s.decisions <- s.decisions + 1;
              s.decision_level <- s.decision_level + 1;
              if s.decision_level > s.max_level_seen then
                s.max_level_seen <- s.decision_level;
              s.trail_lim.(s.decision_level) <- s.trail_size;
              enqueue s idx (-1)
            in
            match next_assumption with
            | Some idx -> branch idx
            | None -> (
                match pick_branch s with
                | 0 ->
                    (* All variables assigned: satisfying assignment found. *)
                    answer :=
                      Some
                        (Array.init (s.num_vars + 1) (fun v ->
                             v > 0 && s.value.(v) = 1))
                | v -> branch (if s.phase.(v) then 2 * v else (2 * v) + 1))
          end
        done;
        match !answer with
        | Some a ->
            assert (Cnf.eval a t.problem);
            Sat a
        | None -> assert false
      with
      | Found_unsat | Unsat_assuming -> Unsat
      | Budget.Expired ->
          (* Leave the solver clean even on expiry: the instance stays
             usable if the caller retries with a fresh budget. *)
          backtrack s 0;
          raise Budget.Expired
    in
    (* Leave the solver clean (root level only) for the next query. *)
    backtrack s 0;
    result
  end

let solve_with_stats (f : Cnf.t) =
  let t = make f in
  let result = solve_assuming t [] in
  (result, stats t)

let solve f = fst (solve_with_stats f)

let is_satisfiable f = match solve f with Sat _ -> true | Unsat -> false
