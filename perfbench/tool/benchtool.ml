(* Input generator, in-process oracle and traced run for the perfbench
   workloads.  perfbench/run.py drives it; every subcommand is a pure
   function of its seed and prints one JSON object on stdout.

     benchtool reductions SEED DIR   Theorem 1/3 instances + Dpll verdicts
     benchtool pool SEED DIR         serve request pool + Api answers
     benchtool trace-stream FILE JOBS
     benchtool trace-exact SEED DIR
     benchtool trace-serve DIR SEQFILE

   The trace-* subcommands time calls into each layer's public
   functions on the inputs the untraced run used, and report per-layer
   seconds and counts.  Spans live in the benchmark, not in the
   program. *)

let now = Unix.gettimeofday

(* Accumulated per-layer seconds and counts, printed once at exit. *)
let times : (string, float) Hashtbl.t = Hashtbl.create 32
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let span name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add times name (now () -. t0)) f

let count name v = add counts name (float_of_int v)

(* Printed by hand: Jsonout rounds floats to six decimals. *)
let print_metrics extra =
  let fields =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) times []
    @ Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    @ extra
  in
  let fields = List.sort compare fields in
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s%S: %.17g" (if i = 0 then "" else ", ") k v)
    fields;
  print_endline "}"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* exact_reductions: Theorem 1 (sem) and Theorem 3 (event) reductions.

   The slot list fixes style, size and satisfiability, so every seed
   yields the same mix of SAT and UNSAT instances on both sides of the
   auto ladder's 128-event SAT cap; the seed picks the formulas.  A
   slot draws [Sat_gen.random_3cnf] until the formula has the slot's
   model count and, when satisfiable, the observed execution runs [a]
   before [b] — so the schedule with [b] first has to be found by search,
   not read off the trace (an unsatisfiable formula always runs [a]
   first).  Event ids are observed-schedule positions. *)

type slot = { style : string; nvars : int; nclauses : int; models : int }
(* [models]: the exact number of satisfying assignments a drawn formula
   must have — 0 for an unsatisfiable slot, otherwise the fewest the
   slot's shape allows (a 3-clause over three variables rules out one of
   eight assignments, so five clauses leave at least three).  Few models
   means few schedules put [b] before [a]: the hard side of Theorems 1
   and 3, at every seed alike. *)

(* Several formulas per shape, so one lucky draw moves a run's medians
   less.  The 148-event unsatisfiable shape is the most repeated: its
   sat-engine verdicts sit at the median of a pass and vary least from
   formula to formula.  The 196-event shape runs once — its sat-engine
   verdict alone takes a quarter of a pass. *)
let slots =
  let copies n s = List.init n (fun _ -> s) in
  List.concat
    [
      copies 1 { style = "sem"; nvars = 3; nclauses = 5; models = 3 };
      copies 1 { style = "event"; nvars = 3; nclauses = 5; models = 3 };
      copies 2 { style = "event"; nvars = 3; nclauses = 8; models = 1 };
      copies 2 { style = "event"; nvars = 4; nclauses = 10; models = 1 };
      copies 2 { style = "event"; nvars = 4; nclauses = 12; models = 1 };
      copies 4 { style = "event"; nvars = 4; nclauses = 14; models = 0 };
      copies 1 { style = "sem"; nvars = 4; nclauses = 17; models = 1 };
    ]

type instance = {
  slot : slot;
  formula : Cnf.t;
  sat : bool;
  trace : Trace.t;
  file : string;
}

let instances ~seed ~dir =
  List.mapi
    (fun k slot ->
      let trace_of f =
        if slot.style = "sem" then Reduction_sem.trace (Reduction_sem.build f)
        else Reduction_evt.trace (Reduction_evt.build f)
      in
      let rec draw attempt =
        if attempt >= 1_000_000 then
          failwith
            (Printf.sprintf "slot %d: no formula with %d models" k slot.models);
        let f =
          Sat_gen.random_3cnf
            ~seed:((seed * 7919) + (k * 1_000_003) + attempt)
            ~num_vars:slot.nvars ~num_clauses:slot.nclauses
        in
        if Dpll.count_models f <> slot.models then draw (attempt + 1)
        else if slot.models = 0 then (f, trace_of f)
        else
          let trace = trace_of f in
          let id l = (Trace.find_event trace l).Event.id in
          if id "a" < id "b" then (f, trace) else draw (attempt + 1)
      in
      let formula, trace = draw 0 in
      let file =
        Filename.concat dir
          (Printf.sprintf "r%02d_%s_%d_%d.eotrace" k slot.style slot.nvars
             slot.nclauses)
      in
      { slot; formula; sat = Dpll.is_satisfiable formula; trace; file })
    slots

let cmd_reductions seed dir =
  let item i =
    Trace_io.save i.file i.trace;
    let lits c = Jsonout.List (List.map (fun l -> Jsonout.Int l) c) in
    Jsonout.Obj
      [
        ("file", Jsonout.Str i.file);
        ("style", Jsonout.Str i.slot.style);
        ("vars", Jsonout.Int i.formula.Cnf.num_vars);
        ("clauses", Jsonout.List (List.map lits i.formula.Cnf.clauses));
        ("events", Jsonout.Int (Trace.n_events i.trace));
        ("dpll_sat", Jsonout.Bool i.sat);
      ]
  in
  print_endline
    (Jsonout.to_string
       (Jsonout.Obj
          [ ("instances", Jsonout.List (List.map item (instances ~seed ~dir))) ]))

(* ------------------------------------------------------------------ *)
(* serve_mixed: a pool of Progen programs, one per distinct canonical
   structure.  Program_key is canonical over structure, so an entry is
   kept only when its key is new — varying constants alone would all hit
   one cache entry.

   Everything that sets a request's cost is a function of its popularity
   rank, not of the seed: the program's shape (events per process, which
   bounds its interleavings), the query mix, the engine and the memory
   model.  The seed picks the programs within each shape, the pair
   queries and (in run.py) the request order, so every seed offers the
   same mix of hot and cold work. *)

let pool_size = 160

(* Events per process, sorted; 4 to 7 events in all, so a cold request
   costs about as much as its parsing and rendering — no request's cost
   is set by a long enumeration, whose length would vary with the
   dependences of whichever program a seed drew. *)
let shapes =
  [| [ 2; 2 ]; [ 2; 3 ]; [ 3; 3 ]; [ 2; 2; 2 ]; [ 1; 2; 3 ]; [ 2; 2; 3 ]; [ 3; 4 ];
     [ 1; 3; 3 ] |]

let query_mixes =
  [|
    [ "relations" ];
    [ "races" ];
    [ "schedules" ];
    [ "relations"; "races" ];
    [ "schedules"; "races" ];
  |]

let engines = [| "packed"; "auto"; "packed"; "sat" |]
let models = [| None; Some "tso"; None; None; Some "pso"; None; None |]

let pool_config =
  {
    Progen.processes = (2, 3);
    stmts_per_process = (1, 4);
    shared_vars = 3;
    semaphores = 1;
    binary_semaphores = false;
    event_variables = 1;
  }

let shape_of trace =
  let per = Hashtbl.create 4 in
  Array.iter
    (fun e ->
      Hashtbl.replace per e.Event.pid
        (1 + Option.value ~default:0 (Hashtbl.find_opt per e.Event.pid)))
    trace.Trace.events;
  List.sort compare (Hashtbl.fold (fun _ n acc -> n :: acc) per [])

let request_line ~id ~src ~queries ~engine ~model =
  Jsonout.to_string
    (Jsonout.Obj
       ([
          ("schema", Jsonout.Str "eventorder.request/1");
          ("id", Jsonout.Int id);
          ("op", Jsonout.Str "batch");
          ("program", Jsonout.Str src);
          ("queries", Jsonout.List (List.map (fun q -> Jsonout.Str q) queries));
          ("engine", Jsonout.Str engine);
        ]
       @ (match model with Some m -> [ ("model", Jsonout.Str m) ] | None -> [])
       @ [ ("stats", Jsonout.Bool true) ]))

let oracle_config () =
  { (Api.default_config ()) with Api.jobs = 1; cache = Session.no_cache }

(* Draws Progen programs until one completes with [shape] and a key not
   seen yet. *)
let draw_program ~seed ~seen ~draw shape =
  let rec go () =
    if !draw > 5_000_000 then failwith "pool: too few distinct programs";
    let ast = Progen.generate pool_config ~seed:((seed * 100_003) + !draw) in
    incr draw;
    let src = Format.asprintf "%a" Ast.pp ast in
    match Interp.run (Parse.program src) with
    | exception _ -> go ()
    | trace ->
        if trace.Trace.outcome <> Trace.Completed || shape_of trace <> shape
        then go ()
        else
          let key =
            Program_key.hash (Program_key.of_execution (Trace.to_execution trace))
          in
          if Hashtbl.mem seen key then go ()
          else begin
            Hashtbl.add seen key ();
            (src, Trace.n_events trace)
          end
  in
  go ()

let pool_request ~rng ~seed ~seen ~draw r =
  let src, ne = draw_program ~seed ~seen ~draw shapes.(r mod Array.length shapes) in
  let queries =
    let q = query_mixes.(r mod Array.length query_mixes) in
    (* Every third entry adds a per-pair query on two events named by
       id. *)
    if r mod 3 = 0 then
      let rel = [| "mhb"; "chb"; "ccw" |].(r / 3 mod 3) in
      let a = Random.State.int rng ne in
      let b = Random.State.int rng ne in
      q @ [ Printf.sprintf "%s:%d:%d" rel a b ]
    else q
  in
  request_line ~id:r ~src ~queries
    ~engine:engines.(r / 2 mod Array.length engines)
    ~model:models.(r mod Array.length models)

let cmd_pool seed dir =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let seen = Hashtbl.create 256 and draw = ref 0 in
  let lines = List.init pool_size (pool_request ~rng ~seed ~seen ~draw) in
  let config = oracle_config () in
  let expected =
    List.map
      (fun l -> Jsonout.to_string (Api.handle_line config l).Api.response)
      lines
  in
  write_file (Filename.concat dir "requests.ndjson") (String.concat "\n" lines ^ "\n");
  write_file (Filename.concat dir "expected.ndjson")
    (String.concat "\n" expected ^ "\n");
  Printf.printf "{\"pool\": %d, \"draws\": %d}\n" pool_size !draw

(* ------------------------------------------------------------------ *)
(* Traced runs. *)

(* stream_races: the streaming path of [races --engine auto] on a saved
   trace, with its three linear sub-passes also timed on their own so
   [Triage.races_big]'s self time can be separated out. *)
let cmd_trace_stream file jobs =
  let t0 = now () in
  let big = span "prog.bigtrace_read_s" (fun () -> Bigtrace.read file) in
  let c = Counters.create () in
  let report =
    span "triage.races_big_s" (fun () ->
        Triage.races_big ~stats:c ~jobs big)
  in
  let pipeline = now () -. t0 in
  ignore (span "prog.observed_replays_s" (fun () -> Bigtrace.observed_replays big));
  let pairs, _ =
    span "prog.conflicting_pairs_s" (fun () -> Bigtrace.conflicting_pairs big)
  in
  count "prog.candidates" (List.length pairs);
  ignore
    (span "approx.order_clock_build_s" (fun () ->
         Order_clock.build
           ~pids:(Array.map (fun e -> e.Event.pid) big.Bigtrace.events)
           ~kinds:(Array.map (fun e -> e.Event.kind) big.Bigtrace.events)
           ~po_preds:(fun e -> big.Bigtrace.po_preds.(e))
           ~sem_init:big.Bigtrace.sem_init ~sem_binary:big.Bigtrace.sem_binary
           ~ev_init:big.Bigtrace.ev_init ()));
  count "triage.tier_hits.approx" (Counters.get c Counters.Triage_approx_hits);
  count "triage.escalations" (Counters.get c Counters.Triage_escalations);
  let decided =
    if report.Triage.candidates = 0 then 1.
    else
      float_of_int (report.Triage.refuted + report.Triage.certified)
      /. float_of_int report.Triage.candidates
  in
  print_metrics
    [
      ("traced_wall_s", now () -. t0);
      ("pipeline_s", pipeline);
      ("triage.tier1_decided_ratio", decided);
      ("undecided", float_of_int report.Triage.undecided);
    ]

(* exact_reductions: per instance shape, the layers under [batch FILE
   mhb:a:b chb:b:a] — execution and key construction, skeleton, then
   the auto ladder as a whole (for its tier counters) and each of its
   tiers called directly under the same slice caps, and the sat
   engine's encode + solve. *)
let cmd_trace_exact seed dir =
  let t0 = now () in
  (* One instance per shape: the repeated shapes add formulas, not
     layers, and a traced run must stay well inside the time limit. *)
  let insts =
    List.fold_left
      (fun acc i -> if List.exists (fun j -> j.slot = i.slot) acc then acc else i :: acc)
      [] (instances ~seed ~dir)
    |> List.rev
  in
  let wrong = ref 0 in
  List.iter
    (fun i ->
      let trace = Trace_io.load i.file in
      let x = span "model.to_execution_s" (fun () -> Trace.to_execution trace) in
      ignore (span "model.program_key_s" (fun () -> Program_key.of_execution x));
      let sk = span "feasible.skeleton_s" (fun () -> Skeleton.of_execution x) in
      let a = (Trace.find_event trace "a").Event.id
      and b = (Trace.find_event trace "b").Event.id in
      (* The auto engine end to end, for the tier counters. *)
      let c = Counters.create () in
      let engine = Engine.current () in
      Engine.set Engine.Auto;
      span "triage.auto_answer_s" (fun () ->
          let tel = Telemetry.create () in
          let session =
            Session.of_execution ~jobs:1 ~stats:tel ~cache:Session.no_cache x
          in
          Triage.attach session;
          ignore (Api.answers session trace x [ "mhb:a:b"; "chb:b:a" ]);
          Counters.merge_into ~dst:c (Telemetry.counters tel));
      Engine.set engine;
      count "triage.tier_hits.approx" (Counters.get c Counters.Triage_approx_hits);
      count "triage.tier_hits.reach" (Counters.get c Counters.Triage_reach_hits);
      count "triage.tier_hits.sat" (Counters.get c Counters.Triage_sat_hits);
      count "triage.tier_hits.enum" (Counters.get c Counters.Triage_enum_hits);
      count "triage.escalations" (Counters.get c Counters.Triage_escalations);
      (* Tier 2: reachability under the ladder's node slice. *)
      let budget =
        Budget.sub Budget.unlimited ~node_budget:(Config.triage_reach_nodes ()) ()
      in
      span "feasible.reach_s" (fun () ->
          let r = Reach.create ~budget sk in
          try
            ignore (Reach.must_before r a b);
            ignore (Reach.exists_before r b a)
          with Budget.Expired -> ());
      (* States expanded, whether or not the slice expired. *)
      count "feasible.reach_states" (Budget.nodes_spent budget);
      (* Tier 4: bounded enumeration under the ladder's node slice. *)
      let ec = Counters.create () in
      span "feasible.enumerate_s" (fun () ->
          let budget =
            Budget.sub Budget.unlimited ~node_budget:(Config.triage_enum_nodes ()) ()
          in
          ignore
            (Enumerate.iter ~stats:ec ~budget sk (fun s ->
                 let rec scan j =
                   j < Array.length s && s.(j) <> a && (s.(j) = b || scan (j + 1))
                 in
                 if scan 0 then raise Enumerate.Stop)));
      count "feasible.enum_nodes" (Counters.get ec Counters.Enum_nodes);
      (* The sat engine: encode once, one probe for "b before a". *)
      let enc =
        span "encode.build_s" (fun () -> Encode.build (Session.encode_program sk))
      in
      count "encode.clauses" (Encode.num_clauses enc);
      count "encode.vars" (Encode.num_vars enc);
      let b_before_a =
        span "sat.solve_s" (fun () ->
            match Encode.order_literal enc b a with
            | `Always -> true
            | `Never -> false
            | `Lit l ->
                let solver = Cdcl.make (Encode.cnf enc) in
                let res = Cdcl.solve_assuming solver [ l ] in
                let st = Cdcl.stats solver in
                count "sat.conflicts" st.Cdcl.conflicts;
                count "sat.propagations" st.Cdcl.propagations;
                res <> Cdcl.Unsat)
      in
      (* b can precede a iff the formula is satisfiable (Theorems 1-4). *)
      if b_before_a <> i.sat then incr wrong)
    insts;
  print_metrics
    [ ("traced_wall_s", now () -. t0); ("sat_probe_wrong", float_of_int !wrong) ]

(* serve_mixed: the same request lines in the client's order, answered
   in process by [Api.handle_line] with a shared cache (one worker, no
   socket).  After each request the layers under it are called directly
   on its program, under the request's engine and memory model: the ones
   every request pays (parse, run, execution, key, skeleton) always, and
   the exact engines only when the request missed the session cache, as
   the server's did.  Each query goes to the layer [Session] routes it
   to: [relations] to enumeration, [schedules] to the state engine's
   count, [races] to the race layer, and a pair query to the state
   engine (packed), the encoder and CDCL (sat) or the triage ladder on a
   session of its own (auto). *)
type probe = {
  src : string;
  queries : string list;
  engine : Engine.t;
  model : Memmodel.t;
}

let probe_of_line line =
  match Jsonin.parse line with
  | Ok (Jsonout.Obj fields) ->
      let str k =
        match List.assoc_opt k fields with Some (Jsonout.Str s) -> Some s | _ -> None
      in
      let queries =
        match List.assoc_opt "queries" fields with
        | Some (Jsonout.List qs) ->
            List.filter_map (function Jsonout.Str q -> Some q | _ -> None) qs
        | _ -> []
      in
      {
        src = Option.value ~default:"" (str "program");
        queries;
        engine =
          Option.value ~default:(Engine.default_of_env ())
            (Option.bind (str "engine") Engine.of_string);
        model =
          Option.value ~default:(Memmodel.default_of_env ())
            (Option.bind (str "model") Memmodel.of_string);
      }
  | _ -> failwith "trace-serve: malformed request line"

(* A pair query on the sat engine, as [Session] asks the encoder:
   mhb is "feasible and b never before a", chb one witness, ccw one race
   witness. *)
let sat_pair enc rel a b =
  match rel with
  | Relations.MHB ->
      a <> b
      && Encode.feasible_witness enc <> None
      && Encode.exists_before_witness enc b a = None
  | Relations.CHB -> Encode.exists_before_witness enc a b <> None
  | _ -> Encode.race_witness enc a b <> None

let reach_pair r rel a b =
  match rel with
  | Relations.MHB -> a <> b && Reach.must_before r a b
  | Relations.CHB -> Reach.exists_before r a b
  | _ -> Reach.exists_race r a b

let session_pair s rel a b =
  match rel with
  | Relations.MHB -> Session.must_before s a b
  | Relations.CHB -> Session.exists_before s a b
  | _ -> Session.exists_race s a b

let probe_request ~cold p =
  Engine.set p.engine;
  Memmodel.set p.model;
  let trace = span "prog.parse_interp_s" (fun () -> Interp.run (Parse.program p.src)) in
  let x = span "model.to_execution_s" (fun () -> Trace.to_execution trace) in
  ignore (span "model.program_key_s" (fun () -> Program_key.of_execution x));
  let sk = span "feasible.skeleton_s" (fun () -> Skeleton.of_execution x) in
  if cold then begin
    (* One state engine, encoder and ladder session per request, shared
       by its queries as a session shares them. *)
    let reach = lazy (Reach.create sk) in
    let enc =
      lazy (span "encode.build_s" (fun () -> Encode.build (Session.encode_program sk)))
    in
    let ladder =
      lazy
        (let s = Session.create ~cache:Session.no_cache sk in
         Triage.attach s;
         s)
    in
    List.iter
      (fun q ->
        match (q, String.index_opt q ':') with
        | "relations", _ ->
            ignore (span "feasible.enumerate_s" (fun () -> Enumerate.iter sk (fun _ -> ())))
        | "schedules", _ ->
            ignore
              (span "feasible.reach_s" (fun () -> Reach.schedule_count (Lazy.force reach)))
        | "races", _ -> ignore (span "race.feasible_races_s" (fun () -> Race.feasible_races x))
        | _, Some i -> (
            let rel = Option.get (Api.relation_of_string (String.sub q 0 i)) in
            let rest = String.sub q (i + 1) (String.length q - i - 1) in
            let _, _, a, b = Api.resolve_pair trace x ~query:q rest in
            match p.engine with
            | Engine.Sat ->
                let enc = Lazy.force enc in
                ignore (span "sat.solve_s" (fun () -> sat_pair enc rel a b))
            | Engine.Auto ->
                let s = Lazy.force ladder in
                ignore (span "triage.auto_answer_s" (fun () -> session_pair s rel a b))
            | Engine.Packed | Engine.Naive ->
                let r = Lazy.force reach in
                ignore (span "feasible.reach_s" (fun () -> reach_pair r rel a b)))
        | _ -> ())
      p.queries
  end

let cmd_trace_serve dir seqfile =
  let t0 = now () in
  let lines = Array.of_list (read_lines (Filename.concat dir "requests.ndjson")) in
  let parsed = Array.map probe_of_line lines in
  let seq =
    List.filter_map
      (fun l -> if l = "" then None else Some (int_of_string (String.trim l)))
      (read_lines seqfile)
  in
  let config =
    { (Api.default_config ()) with Api.jobs = 1; cache = Session.default_cache () }
  in
  Session.clear_memory_cache ();
  let c = Counters.create () in
  let handle = ref [] and probes = ref 0. in
  List.iter
    (fun k ->
      let t = now () in
      let h = Api.handle_line config lines.(k) in
      handle := (now () -. t) :: !handle;
      let misses =
        match h.Api.telemetry with
        | Some tel ->
            let rc = Telemetry.counters tel in
            Counters.merge_into ~dst:c rc;
            Counters.get rc Counters.Cache_misses
        | None -> 0
      in
      let t = now () in
      probe_request ~cold:(misses > 0) parsed.(k);
      probes := !probes +. (now () -. t))
    seq;
  let handled_s = List.fold_left ( +. ) 0. !handle in
  let sorted = List.sort compare !handle in
  let p50 = List.nth sorted (List.length sorted / 2) in
  let g k = Counters.get c k in
  let hits = g Counters.Cache_memory_hits + g Counters.Cache_disk_hits in
  let lookups = hits + g Counters.Cache_misses in
  count "triage.tier_hits.approx" (g Counters.Triage_approx_hits);
  count "triage.tier_hits.reach" (g Counters.Triage_reach_hits);
  count "triage.tier_hits.sat" (g Counters.Triage_sat_hits);
  count "triage.tier_hits.enum" (g Counters.Triage_enum_hits);
  count "triage.escalations" (g Counters.Triage_escalations);
  count "feasible.reach_states" (g Counters.Reach_memo_misses);
  count "feasible.enum_nodes" (g Counters.Enum_nodes);
  count "encode.clauses" (g Counters.Encoder_clauses);
  count "encode.vars" (g Counters.Encoder_vars);
  count "sat.conflicts" (g Counters.Solver_conflicts);
  count "sat.propagations" (g Counters.Solver_propagations);
  print_metrics
    [
      ("traced_wall_s", now () -. t0);
      ("probes_s", !probes);
      ("api.handle_line_s", handled_s);
      ("api.handle_line_p50_s", p50);
      ("requests", float_of_int (List.length seq));
      ( "feasible.session_cache_hit_ratio",
        if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups );
    ]

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "reductions"; seed; dir ] -> cmd_reductions (int_of_string seed) dir
  | [ "pool"; seed; dir ] -> cmd_pool (int_of_string seed) dir
  | [ "trace-stream"; file; jobs ] -> cmd_trace_stream file (int_of_string jobs)
  | [ "trace-exact"; seed; dir ] -> cmd_trace_exact (int_of_string seed) dir
  | [ "trace-serve"; dir; seqfile ] -> cmd_trace_serve dir seqfile
  | _ ->
      prerr_endline
        "usage: benchtool (reductions SEED DIR | pool SEED DIR | trace-stream \
         FILE JOBS | trace-exact SEED DIR | trace-serve DIR SEQFILE)";
      exit 2
