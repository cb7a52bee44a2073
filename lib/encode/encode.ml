(* Constraint compiler: conditions F1–F3 over an observed execution
   <E,T,D> rendered as CNF, plus per-query assumption probes.

   One Boolean order variable o(a,b) per *candidate* pair — an unordered
   pair not already decided by the transitive closure of program order
   and dependence; closed pairs are compile-time constants.  Totality
   and antisymmetry are free (one variable per pair carries both
   directions).  Transitivity is enforced by the solver's order
   propagator ([Cdcl.make ~orders]); only the standalone export spells
   it out, as two clauses per unordered triple after constant folding.
   Synchronization enabledness is encoded per blocking event: counting
   semaphores as sequential-counter cardinality constraints over the
   tokens visible before each P, binary semaphores and event variables
   as last-setter trigger disjunctions with one-directional auxiliary
   definitions.

   A model is a linear order (predecessor counts are a permutation), and
   every linear order satisfying the formula replays — so each SAT
   answer decodes into a witness schedule the caller can hand to the
   [Replay] oracle. *)

type program = {
  n : int;
  po_preds : int list array;
  dep_preds : int list array;
  kinds : Event.kind array;
  sem_init : int array;
  sem_binary : bool array;
  ev_init : bool array;
}

(* ------------------------------------------------------------------ *)
(* One copy of the order relation: pair variables for candidate pairs,
   indexed at [a * n + b] for a < b. *)
type copy = { pv : int array }

(* Clause builder: DIMACS literals, fresh-variable allocation shared by
   however many order copies the formula needs (one for ordering
   queries, two for the common-prefix race formula).  A copy's
   transitivity clauses are not stored: [Transitivity] marks where the
   standalone export places them. *)

type item = Clause of int list | Transitivity of copy

type builder = { mutable nv : int; mutable items : item list (* reversed *) }

let fresh b =
  b.nv <- b.nv + 1;
  b.nv

let addc b lits = b.items <- Clause lits :: b.items

(* An order literal: constant, or a DIMACS literal over a pair variable. *)
type olit = T | F | L of int

let oneg = function T -> F | F -> T | L l -> L (-l)

(* Fold the constants of a clause over order literals: a satisfied
   clause vanishes ([None]), false literals drop out, and an all-false
   clause becomes the (legal) empty clause. *)
let fold_olits lits =
  let rec go acc = function
    | [] -> Some acc
    | T :: _ -> None
    | F :: rest -> go acc rest
    | L l :: rest -> go (l :: acc) rest
  in
  go [] lits

let add_olits b lits = Option.iter (addc b) (fold_olits lits)

let alloc_copy b ~n ~forced =
  let pv = Array.make (n * n) 0 in
  for a = 0 to n - 1 do
    for c = a + 1 to n - 1 do
      if not (forced.((a * n) + c) || forced.((c * n) + a)) then
        pv.((a * n) + c) <- fresh b
    done
  done;
  { pv }

let before ~n ~forced copy a b =
  if a = b then F
  else if forced.((a * n) + b) then T
  else if forced.((b * n) + a) then F
  else if a < b then L copy.pv.((a * n) + b)
  else L (-copy.pv.((b * n) + a))

(* The copy as the solver's order propagator sees it. *)
let order_of ~n ~forced copy =
  {
    Cdcl.events = n;
    before =
      (fun a b ->
        match before ~n ~forced copy a b with
        | T -> `Always
        | F -> `Never
        | L l -> `Lit l);
  }

(* The transitivity clauses of one copy, for the standalone formula:
   two clauses per triple forbid exactly the two cyclic assignments;
   triples of three constants are consistent by closure and vanish
   entirely.  The same constraint the order propagator enforces. *)
let transitivity_clauses ~n ~forced copy emit =
  let bf = before ~n ~forced copy in
  let add lits = Option.iter emit (fold_olits lits) in
  for a = 0 to n - 1 do
    for c = a + 1 to n - 1 do
      for d = c + 1 to n - 1 do
        let x = bf a c and y = bf c d and z = bf a d in
        match (x, y, z) with
        | L _, _, _ | _, L _, _ | _, _, L _ ->
            add [ oneg x; oneg y; z ];
            add [ x; y; oneg z ]
        | _ -> ()
      done
    done
  done

(* The formula the solver loads (transitivity left to the propagator)
   and the equisatisfiable standalone one (transitivity spelled out in
   place), from the same builder. *)
let solver_cnf b =
  Cnf.make ~num_vars:(max 1 b.nv)
    (List.rev
       (List.filter_map
          (function Clause c -> Some c | Transitivity _ -> None)
          b.items))

let standalone_cnf ~n ~forced b =
  let acc = ref [] in
  List.iter
    (function
      | Clause c -> acc := c :: !acc
      | Transitivity copy ->
          transitivity_clauses ~n ~forced copy (fun c -> acc := c :: !acc))
    (List.rev b.items);
  Cnf.make ~num_vars:(max 1 b.nv) (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Forced pairs: the transitive closure of program order ∪ dependence.
   Plain DFS per source over successor lists — the SAT tier never sees
   the event counts where this n² matrix would matter. *)

let forced_matrix prog =
  let n = prog.n in
  let succs = Array.make n [] in
  let record preds =
    Array.iteri
      (fun e ps -> List.iter (fun p -> succs.(p) <- e :: succs.(p)) ps)
      preds
  in
  record prog.po_preds;
  record prog.dep_preds;
  let forced = Array.make (n * n) false in
  let visited = Array.make n false in
  for a = 0 to n - 1 do
    Array.fill visited 0 n false;
    let rec dfs e =
      List.iter
        (fun f ->
          if not visited.(f) then begin
            visited.(f) <- true;
            forced.((a * n) + f) <- true;
            dfs f
          end)
        succs.(e)
    in
    dfs a
  done;
  forced

(* ------------------------------------------------------------------ *)
(* Cardinality: at-most-[k] of [lits] true, as a Sinz sequential
   counter with one-directional register definitions.  [extra] literals
   are appended to every emitted clause (the guard of a conditional
   constraint); constants fold before any auxiliary is allocated. *)

let at_most b ~extra lits k =
  let k = ref k in
  let xs =
    List.filter_map
      (function
        | T ->
            decr k;
            None
        | F -> None
        | L l -> Some l)
      lits
  in
  let m = List.length xs in
  if !k < 0 then addc b extra
  else if m <= !k then ()
  else if !k = 0 then List.iter (fun x -> addc b ((-x) :: extra)) xs
  else begin
    let kk = !k in
    let xs = Array.of_list xs in
    let m = Array.length xs in
    (* reg.(i).(j): at least j+1 of xs.(0..i) are true *)
    let reg = Array.init m (fun _ -> Array.init kk (fun _ -> fresh b)) in
    for i = 0 to m - 1 do
      addc b ((-xs.(i)) :: reg.(i).(0) :: extra);
      if i > 0 then begin
        for j = 0 to kk - 1 do
          addc b ((-reg.(i - 1).(j)) :: reg.(i).(j) :: extra)
        done;
        for j = 1 to kk - 1 do
          addc b ((-xs.(i)) :: (-reg.(i - 1).(j - 1)) :: reg.(i).(j) :: extra)
        done;
        addc b ((-xs.(i)) :: (-reg.(i - 1).(kk - 1)) :: extra)
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Core constraints for one order copy: transitivity (a marker, see
   [item]), plus the enabledness condition of every blocking
   synchronization event. *)

let emit_core b ~prog ~forced copy =
  let n = prog.n in
  let bf = before ~n ~forced copy in
  b.items <- Transitivity copy :: b.items;
  (* Group synchronization events per object. *)
  let n_sems = Array.length prog.sem_init in
  let n_evs = Array.length prog.ev_init in
  let sem_ps = Array.make n_sems [] and sem_vs = Array.make n_sems [] in
  let ev_posts = Array.make n_evs []
  and ev_waits = Array.make n_evs []
  and ev_clears = Array.make n_evs [] in
  for e = n - 1 downto 0 do
    match prog.kinds.(e) with
    | Event.Sync (Event.Sem_p s) -> sem_ps.(s) <- e :: sem_ps.(s)
    | Event.Sync (Event.Sem_v s) -> sem_vs.(s) <- e :: sem_vs.(s)
    | Event.Sync (Event.Post v) -> ev_posts.(v) <- e :: ev_posts.(v)
    | Event.Sync (Event.Wait v) -> ev_waits.(v) <- e :: ev_waits.(v)
    | Event.Sync (Event.Clear v) -> ev_clears.(v) <- e :: ev_clears.(v)
    | Event.Computation | Event.Sync (Event.Fork | Event.Join) -> ()
  done;
  (* Counting semaphore (also a binary one nobody Vs): P event [p] is
     enabled at its turn iff the P operations before it have not
     outrun init plus the V operations before it:
       #{q ∈ P_s, q≠p : q<p}  +  #{v ∈ V_s : ¬(v<p)}  ≤  init−1+|V_s|. *)
  let counting_sem ~init ~ps ~vs p =
    let lits =
      List.filter_map (fun q -> if q = p then None else Some (bf q p)) ps
      @ List.map (fun v -> oneg (bf v p)) vs
    in
    at_most b ~extra:[] lits (init - 1 + List.length vs)
  in
  (* Binary semaphore: V sets the value to exactly 1, so P event [p] is
     enabled iff some V lands last before it (no P in between), or no V
     precedes it and the initial tokens cover the preceding Ps.  The
     auxiliaries are one-directional: they only occur positively in the
     main disjunction, so defining clauses in one direction suffice. *)
  let binary_sem ~init ~ps ~vs p =
    let others = List.filter (fun q -> q <> p) ps in
    let main = ref [] in
    (* N_p: no V precedes p; guards an at-most-(init−1) over the Ps. *)
    if not (List.exists (fun v -> bf v p = T) vs) then begin
      let np = fresh b in
      List.iter
        (fun v ->
          match bf v p with
          | F -> ()
          | T -> assert false
          | L l -> addc b [ -np; -l ])
        vs;
      at_most b ~extra:[ -np ] (List.map (fun q -> bf q p) others) (init - 1);
      main := np :: !main
    end;
    (* F_{v,p}: v precedes p with no other P of s strictly between. *)
    List.iter
      (fun v ->
        match bf v p with
        | F -> ()
        | ovp ->
            let blocked =
              List.exists (fun q -> bf v q = T && bf q p = T) others
            in
            if not blocked then begin
              let fv = fresh b in
              add_olits b [ L (-fv); ovp ];
              List.iter
                (fun q -> add_olits b [ L (-fv); oneg (bf v q); oneg (bf q p) ])
                others;
              main := fv :: !main
            end)
      vs;
    addc b !main
  in
  for s = 0 to n_sems - 1 do
    let init = prog.sem_init.(s) in
    let ps = sem_ps.(s) and vs = sem_vs.(s) in
    if prog.sem_binary.(s) && vs <> [] then List.iter (binary_sem ~init ~ps ~vs) ps
    else List.iter (counting_sem ~init ~ps ~vs) ps
  done;
  (* Event variable: Wait [w] is enabled iff some Post lands before it
     with no Clear in between, or the flag starts set and no Clear
     precedes it.  Same one-directional shape as the binary semaphore. *)
  for v = 0 to n_evs - 1 do
    let init = prog.ev_init.(v) in
    let posts = ev_posts.(v) and clears = ev_clears.(v) in
    if not (init && clears = []) then
      List.iter
        (fun w ->
          let main = ref [] in
          if init && not (List.exists (fun c -> bf c w = T) clears) then begin
            let iw = fresh b in
            List.iter
              (fun c ->
                match bf c w with
                | F -> ()
                | T -> assert false
                | L l -> addc b [ -iw; -l ])
              clears;
            main := iw :: !main
          end;
          List.iter
            (fun t ->
              match bf t w with
              | F -> ()
              | otw ->
                  let blocked =
                    List.exists (fun c -> bf t c = T && bf c w = T) clears
                  in
                  if not blocked then begin
                    let tv = fresh b in
                    add_olits b [ L (-tv); otw ];
                    List.iter
                      (fun c ->
                        add_olits b [ L (-tv); oneg (bf t c); oneg (bf c w) ])
                      clears;
                    main := tv :: !main
                  end)
            posts;
          addc b !main)
        ev_waits.(v)
  done

(* ------------------------------------------------------------------ *)

type t = {
  prog : program;
  forced : bool array;
  copy : copy;
  builder : builder;  (* kept for the standalone export *)
  base : Cnf.t;  (* the clauses the solver loads *)
  mutable solver : Cdcl.t option;
  stats : Counters.t;
  budget : Budget.t;
  mutable committed_conflicts : int;
  mutable committed_propagations : int;
}

let count_encoding stats (cnf : Cnf.t) =
  Counters.add stats Counters.Encoder_vars cnf.Cnf.num_vars;
  Counters.add stats Counters.Encoder_clauses (Cnf.num_clauses cnf)

let build ?(stats = Counters.null) ?(budget = Budget.unlimited) prog =
  let n = prog.n in
  let forced = forced_matrix prog in
  let b = { nv = 0; items = [] } in
  let copy = alloc_copy b ~n ~forced in
  emit_core b ~prog ~forced copy;
  let base = solver_cnf b in
  count_encoding stats base;
  {
    prog;
    forced;
    copy;
    builder = b;
    base;
    solver = None;
    stats;
    budget;
    committed_conflicts = 0;
    committed_propagations = 0;
  }

let program t = t.prog

let cnf t = standalone_cnf ~n:t.prog.n ~forced:t.forced t.builder

let num_vars t = t.base.Cnf.num_vars

let num_clauses t = Cnf.num_clauses t.base

let order_literal t a b =
  if a < 0 || a >= t.prog.n || b < 0 || b >= t.prog.n then
    invalid_arg "Encode.order_literal: event out of range";
  match before ~n:t.prog.n ~forced:t.forced t.copy a b with
  | T -> `Always
  | F -> `Never
  | L l -> `Lit l

let solver t =
  match t.solver with
  | Some s -> s
  | None ->
      let s =
        Cdcl.make ~budget:t.budget
          ~orders:[ order_of ~n:t.prog.n ~forced:t.forced t.copy ]
          t.base
      in
      t.solver <- Some s;
      s

let commit_solver_stats t =
  match t.solver with
  | None -> ()
  | Some s ->
      if Counters.enabled t.stats then begin
        let st = Cdcl.stats s in
        Counters.add t.stats Counters.Solver_conflicts
          (st.Cdcl.conflicts - t.committed_conflicts);
        Counters.add t.stats Counters.Solver_propagations
          (st.Cdcl.propagations - t.committed_propagations);
        t.committed_conflicts <- st.Cdcl.conflicts;
        t.committed_propagations <- st.Cdcl.propagations
      end

let solve t assumptions =
  let s = solver t in
  (* Commit conflict/propagation counters even when the budget expires
     mid-probe — the work was done and must show up in --stats. *)
  Fun.protect
    ~finally:(fun () -> commit_solver_stats t)
    (fun () -> Cdcl.solve_assuming s assumptions)

(* Decode: a model orders each copy linearly, and that order *is* the
   witness schedule.  The check behind [Cdcl.linear_order] makes an
   intransitive model a loud failure rather than a wrong schedule. *)
let schedule_of_copy ~n ~forced copy model =
  match Cdcl.linear_order (order_of ~n ~forced copy) model with
  | Some order -> order
  | None -> invalid_arg "Encode: model is not a linear order"

let feasible_witness t =
  match solve t [] with
  | Cdcl.Sat m ->
      Some (schedule_of_copy ~n:t.prog.n ~forced:t.forced t.copy m)
  | Cdcl.Unsat -> None

let exists_before_witness t a b =
  if a = b then None
  else
    match order_literal t a b with
    | `Never -> None
    | `Always -> feasible_witness t
    | `Lit l -> (
        match solve t [ l ] with
        | Cdcl.Sat m ->
            Some (schedule_of_copy ~n:t.prog.n ~forced:t.forced t.copy m)
        | Cdcl.Unsat -> None)

(* ------------------------------------------------------------------ *)
(* Race formula: two complete feasible orders sharing one prefix, with
   a·b adjacent in the first and b·a adjacent in the second.  Forcing
   the shared prefix to agree on *order* (not just membership) makes
   both copies reach the identical synchronization state — binary
   semaphore values and event flags depend on the order in which the
   prefix absorbed its operations, so set equality alone would be
   unsound. *)

let race_formula_parts t a b =
  let prog = t.prog in
  let n = prog.n in
  let forced = t.forced in
  let b_ = { nv = 0; items = [] } in
  let c1 = alloc_copy b_ ~n ~forced in
  emit_core b_ ~prog ~forced c1;
  let c2 = alloc_copy b_ ~n ~forced in
  emit_core b_ ~prog ~forced c2;
  let bf1 = before ~n ~forced c1 and bf2 = before ~n ~forced c2 in
  (* a immediately precedes b in copy 1; b immediately precedes a in 2. *)
  add_olits b_ [ bf1 a b ];
  add_olits b_ [ bf2 b a ];
  for c = 0 to n - 1 do
    if c <> a && c <> b then begin
      add_olits b_ [ oneg (bf1 a c); oneg (bf1 c b) ];
      add_olits b_ [ oneg (bf2 b c); oneg (bf2 c a) ];
      (* Shared prefix membership: before a in copy 1 ⇔ before b in 2. *)
      add_olits b_ [ oneg (bf1 c a); bf2 c b ];
      add_olits b_ [ bf1 c a; oneg (bf2 c b) ]
    end
  done;
  (* Shared prefix order: two prefix events agree on their relative
     order across the copies. *)
  for c = 0 to n - 1 do
    for d = c + 1 to n - 1 do
      if c <> a && c <> b && d <> a && d <> b then begin
        let guard = [ oneg (bf1 c a); oneg (bf1 d a) ] in
        add_olits b_ (guard @ [ oneg (bf1 c d); bf2 c d ]);
        add_olits b_ (guard @ [ bf1 c d; oneg (bf2 c d) ])
      end
    done
  done;
  (b_, c1, c2)

let race_formula t a b =
  if a < 0 || a >= t.prog.n || b < 0 || b >= t.prog.n then
    invalid_arg "Encode.race_formula: event out of range";
  let b_, _, _ = race_formula_parts t a b in
  standalone_cnf ~n:t.prog.n ~forced:t.forced b_

let race_witness t a b =
  if a = b then None
  else begin
    let b_, c1, c2 = race_formula_parts t a b in
    let f = solver_cnf b_ in
    count_encoding t.stats f;
    let n = t.prog.n and forced = t.forced in
    let s =
      Cdcl.make ~budget:t.budget
        ~orders:[ order_of ~n ~forced c1; order_of ~n ~forced c2 ]
        f
    in
    let result =
      Fun.protect
        ~finally:(fun () ->
          if Counters.enabled t.stats then begin
            let st = Cdcl.stats s in
            Counters.add t.stats Counters.Solver_conflicts st.Cdcl.conflicts;
            Counters.add t.stats Counters.Solver_propagations
              st.Cdcl.propagations
          end)
        (fun () -> Cdcl.solve_assuming s [])
    in
    match result with
    | Cdcl.Sat m ->
        Some
          ( schedule_of_copy ~n ~forced c1 m,
            schedule_of_copy ~n ~forced c2 m )
    | Cdcl.Unsat -> None
  end
