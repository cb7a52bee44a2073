let qcheck = QCheck_alcotest.to_alcotest

let test_trivial () =
  Alcotest.(check bool) "x1 sat" true
    (Cdcl.is_satisfiable (Cnf.make ~num_vars:1 [ [ 1 ] ]));
  Alcotest.(check bool) "x1 & ~x1 unsat" false
    (Cdcl.is_satisfiable (Cnf.make ~num_vars:1 [ [ 1 ]; [ -1 ] ]));
  Alcotest.(check bool) "empty formula sat" true
    (Cdcl.is_satisfiable (Cnf.make ~num_vars:3 []));
  Alcotest.(check bool) "empty clause unsat" false
    (Cdcl.is_satisfiable (Cnf.make ~num_vars:3 [ [] ]))

let test_tautology_dropped () =
  Alcotest.(check bool) "p | ~p alone is sat" true
    (Cdcl.is_satisfiable (Cnf.make ~num_vars:1 [ [ 1; -1 ] ]));
  Alcotest.(check bool) "tautology plus unsat core" false
    (Cdcl.is_satisfiable (Cnf.make ~num_vars:2 [ [ 1; -1 ]; [ 2 ]; [ -2 ] ]))

let test_fixed_families () =
  Alcotest.(check bool) "all sign patterns unsat" false
    (Cdcl.is_satisfiable (Sat_gen.unsat_3cnf_small ()));
  Alcotest.(check bool) "small sat" true
    (Cdcl.is_satisfiable (Sat_gen.sat_3cnf_small ()));
  Alcotest.(check bool) "tiny structures" true
    (Cdcl.is_satisfiable (Sat_gen.tiny_sat_3cnf ())
    && not (Cdcl.is_satisfiable (Sat_gen.tiny_unsat_3cnf ())))

let test_pigeonhole () =
  for n = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "pigeonhole %d unsat" n)
      false
      (Cdcl.is_satisfiable (Sat_gen.pigeonhole n))
  done

let test_stats_record_learning () =
  (* Pigeonhole 4 needs genuine conflict-driven work. *)
  let _, stats = Cdcl.solve_with_stats (Sat_gen.pigeonhole 4) in
  Alcotest.(check bool) "conflicts happened" true (stats.Cdcl.conflicts > 0);
  Alcotest.(check bool) "clauses learned" true (stats.Cdcl.learned > 0)

let test_larger_random () =
  (* Larger than DPLL-comfortable instances: 60 vars at the 4.26 ratio. *)
  for seed = 0 to 4 do
    let f = Sat_gen.random_3cnf ~seed ~num_vars:60 ~num_clauses:255 in
    (* Whatever the verdict, a SAT answer must carry a valid witness. *)
    match Cdcl.solve f with
    | Cdcl.Sat a -> Alcotest.(check bool) "witness valid" true (Cnf.eval a f)
    | Cdcl.Unsat -> ()
  done

(* The incremental interface: one solver, many assumption probes.  The
   formula (x1 | x2) & (~x1 | x3) is satisfiable under every single
   assumption except where a probe pins an unsatisfiable corner. *)
let test_assumptions_basic () =
  let f = Cnf.make ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let t = Cdcl.make f in
  (match Cdcl.solve_assuming t [] with
  | Cdcl.Sat a -> Alcotest.(check bool) "free solve valid" true (Cnf.eval a f)
  | Cdcl.Unsat -> Alcotest.fail "free solve should be sat");
  (match Cdcl.solve_assuming t [ 1; -3 ] with
  | Cdcl.Sat _ -> Alcotest.fail "x1 & ~x3 contradicts (~x1 | x3)"
  | Cdcl.Unsat -> ());
  (* The same solver stays usable after an UNSAT-under-assumptions
     answer — that is the whole point of assumption probes. *)
  (match Cdcl.solve_assuming t [ 1; 3 ] with
  | Cdcl.Sat a ->
      Alcotest.(check bool) "model valid" true (Cnf.eval a f);
      Alcotest.(check bool) "assumptions honoured" true (a.(1) && a.(3))
  | Cdcl.Unsat -> Alcotest.fail "x1 & x3 should be sat");
  match Cdcl.solve_assuming t [ -1; -2 ] with
  | Cdcl.Sat _ -> Alcotest.fail "~x1 & ~x2 contradicts (x1 | x2)"
  | Cdcl.Unsat -> ()

let test_assumptions_validated () =
  let t = Cdcl.make (Cnf.make ~num_vars:2 [ [ 1; 2 ] ]) in
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Cdcl.solve_assuming: literal out of range") (fun () ->
      ignore (Cdcl.solve_assuming t [ 0 ]));
  Alcotest.check_raises "out of range rejected"
    (Invalid_argument "Cdcl.solve_assuming: literal out of range") (fun () ->
      ignore (Cdcl.solve_assuming t [ 5 ]))

(* A permanently unsatisfiable formula answers Unsat on every probe,
   including the empty one, without crashing on repeats. *)
let test_assumptions_dead_solver () =
  let t = Cdcl.make (Cnf.make ~num_vars:2 [ [ 1 ]; [ -1 ] ]) in
  List.iter
    (fun assumptions ->
      match Cdcl.solve_assuming t assumptions with
      | Cdcl.Sat _ -> Alcotest.fail "x1 & ~x1 can never be sat"
      | Cdcl.Unsat -> ())
    [ []; [ 2 ]; [ -2 ]; [] ]

(* Differential: a batch of single-literal probes on one persistent
   solver must agree with fresh from-scratch solves of the strengthened
   formulas, learned clauses and saved phases notwithstanding. *)
let prop_assumptions_agree_with_fresh =
  QCheck.Test.make ~name:"assumption probes agree with fresh solves"
    ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 10 40))
    (fun (seed, nc) ->
      let f = Sat_gen.random_3cnf ~seed ~num_vars:8 ~num_clauses:nc in
      let t = Cdcl.make f in
      List.for_all
        (fun l ->
          let incremental =
            match Cdcl.solve_assuming t [ l ] with
            | Cdcl.Sat a -> Cnf.eval a f && a.(Cnf.var l) = (l > 0)
            | Cdcl.Unsat -> not (Dpll.is_satisfiable (Cnf.make ~num_vars:8 ([ l ] :: f.Cnf.clauses)))
          in
          incremental)
        [ 1; -1; 4; -4; 8; -8 ])

let random_small_cnf =
  QCheck.make
    ~print:(fun (nv, clauses) ->
      Format.asprintf "%a" Cnf.pp (Cnf.make ~num_vars:nv clauses))
    QCheck.Gen.(
      int_range 1 7 >>= fun nv ->
      list_size (int_range 0 16)
        (list_size (int_range 0 4)
           (int_range 1 nv >>= fun v -> oneofl [ v; -v ]))
      >>= fun clauses -> return (nv, clauses))

let prop_agrees_with_dpll =
  QCheck.Test.make ~name:"CDCL agrees with DPLL" ~count:400 random_small_cnf
    (fun (nv, clauses) ->
      let f = Cnf.make ~num_vars:nv clauses in
      Cdcl.is_satisfiable f = Dpll.is_satisfiable f)

let prop_witness_valid =
  QCheck.Test.make ~name:"CDCL SAT witnesses satisfy the formula" ~count:400
    random_small_cnf (fun (nv, clauses) ->
      let f = Cnf.make ~num_vars:nv clauses in
      match Cdcl.solve f with
      | Cdcl.Sat a -> Cnf.eval a f
      | Cdcl.Unsat -> true)

(* The order propagator against eager transitivity.  An instance is one
   order copy over [n] events — each pair a fresh variable, or now and
   then a constant oriented by a hidden linear order (so the constants
   are acyclic) — plus random clauses over the order variables and two
   auxiliaries.  The lazily solved formula must agree with Dpll on the
   same clauses plus every transitivity clause, with and without an
   assumption, and every model must decode to a linear order. *)
let order_instance =
  let gen =
    QCheck.Gen.(
      int_range 3 6 >>= fun n ->
      shuffle_l (List.init n Fun.id) >>= fun rank ->
      list_repeat (n * n) (int_range 0 3) >>= fun kinds ->
      let rank = Array.of_list rank and kinds = Array.of_list kinds in
      let table = Array.make (n * n) `Never and nv = ref 0 in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          table.((a * n) + b) <-
            (if kinds.((a * n) + b) = 0 then
               if rank.(a) < rank.(b) then `Always else `Never
             else begin
               incr nv;
               `Lit !nv
             end)
        done
      done;
      let vars = !nv + 2 in
      list_size (int_range 0 10)
        (list_size (int_range 1 3)
           (int_range 1 vars >>= fun v -> oneofl [ v; -v ]))
      >>= fun clauses ->
      int_range (-vars) vars >>= fun assumption ->
      return (n, table, vars, clauses, assumption))
  in
  QCheck.make
    ~print:(fun (n, _, vars, clauses, assumption) ->
      Printf.sprintf "n=%d vars=%d assume=%d %s" n vars assumption
        (Format.asprintf "%a" Cnf.pp (Cnf.make ~num_vars:vars clauses)))
    gen

let prop_order_propagator_matches_eager =
  QCheck.Test.make ~name:"order propagator = eager transitivity (Dpll)"
    ~count:300 order_instance (fun (n, table, vars, clauses, assumption) ->
      let before a b =
        if a = b then `Never
        else if a < b then table.((a * n) + b)
        else
          match table.((b * n) + a) with
          | `Always -> `Never
          | `Never -> `Always
          | `Lit l -> `Lit (-l)
      in
      let order = { Cdcl.events = n; before } in
      (* ¬(a<b) ∨ ¬(b<c) ∨ (a<c) for every ordered triple, constants
         folded: a true literal drops the clause, a false one drops out. *)
      let transitivity = ref [] in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if a <> b && b <> c && a <> c then begin
              let lit positive = function
                | `Always -> if positive then `Sat else `Drop
                | `Never -> if positive then `Drop else `Sat
                | `Lit l -> `Keep (if positive then l else -l)
              in
              let lits =
                [ lit false (before a b); lit false (before b c); lit true (before a c) ]
              in
              if not (List.mem `Sat lits) then
                transitivity :=
                  List.filter_map (function `Keep l -> Some l | _ -> None) lits
                  :: !transitivity
            end
          done
        done
      done;
      let f = Cnf.make ~num_vars:vars clauses in
      let eager extra =
        Dpll.is_satisfiable
          (Cnf.make ~num_vars:vars (extra @ !transitivity @ clauses))
      in
      let t = Cdcl.make ~orders:[ order ] f in
      let lazy_answer assumptions =
        match Cdcl.solve_assuming t assumptions with
        | Cdcl.Sat m ->
            if Cdcl.linear_order order m = None then
              QCheck.Test.fail_report "model is not a linear order";
            true
        | Cdcl.Unsat -> false
      in
      lazy_answer [] = eager []
      && (assumption = 0 || lazy_answer [ assumption ] = eager [ [ assumption ] ]))

let test_malformed_orders_rejected () =
  let f = Cnf.make ~num_vars:3 [] in
  let order before = { Cdcl.events = 3; before } in
  let var a b = if a = b then `Never else if a < b then `Lit (a + b) else `Lit (-(a + b)) in
  let rejects name before =
    match Cdcl.make ~orders:[ order before ] f with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  ignore (Cdcl.make ~orders:[ order var ] f);
  rejects "reflexive pair" (fun a b -> if a = b then `Always else var a b);
  rejects "asymmetric pair" (fun a b -> if (a, b) = (1, 0) then `Lit 1 else var a b);
  rejects "constant cycle" (fun a b ->
      if a = b then `Never else if (b - a + 3) mod 3 = 1 then `Always else `Never);
  rejects "shared variable" (fun a b ->
      if a = b then `Never else if a < b then `Lit 1 else `Lit (-1))

let prop_medium_random_agrees =
  QCheck.Test.make ~name:"CDCL agrees with DPLL on 12-var random 3-CNF"
    ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 20 60))
    (fun (seed, nc) ->
      let f = Sat_gen.random_3cnf ~seed ~num_vars:12 ~num_clauses:nc in
      Cdcl.is_satisfiable f = Dpll.is_satisfiable f)

let suite =
  [
    Alcotest.test_case "trivial" `Quick test_trivial;
    Alcotest.test_case "tautologies" `Quick test_tautology_dropped;
    Alcotest.test_case "fixed families" `Quick test_fixed_families;
    Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
    Alcotest.test_case "stats record learning" `Quick test_stats_record_learning;
    Alcotest.test_case "larger random instances" `Quick test_larger_random;
    Alcotest.test_case "assumption probes" `Quick test_assumptions_basic;
    Alcotest.test_case "assumptions validated" `Quick
      test_assumptions_validated;
    Alcotest.test_case "dead solver stays Unsat" `Quick
      test_assumptions_dead_solver;
    qcheck prop_assumptions_agree_with_fresh;
    qcheck prop_agrees_with_dpll;
    qcheck prop_witness_valid;
    qcheck prop_medium_random_agrees;
    qcheck prop_order_propagator_matches_eager;
    Alcotest.test_case "malformed order copies rejected" `Quick
      test_malformed_orders_rejected;
  ]
