(* Columnar traces for the streaming million-event path.  See
   bigtrace.mli. *)

type t = {
  events : Event.t array;
  po_preds : int list array;
  dep_m1 : int array;
  dep_m2 : int array;
  sync : int array;
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

let n_events t = Array.length t.events

(* ------------------------------------------------------------------ *)
(* Dependence maxima                                                   *)
(* ------------------------------------------------------------------ *)

(* Per event, the two largest distinct shared-data dependence
   predecessors ([-1] when absent) — all the prefix-enabledness test
   needs, without materialising the dependence lists (which are
   quadratic per hot variable; see Dependence.of_schedule).  Computed
   in one id-order pass keeping, per variable, its last two writers and
   last two touchers: the overall top-two predecessors of an event are
   always among its variables' per-variable top-two. *)
let dep_maxima ~num_vars events =
  let n = Array.length events in
  let m1 = Array.make n (-1) in
  let m2 = Array.make n (-1) in
  let w1 = Array.make num_vars (-1) in
  let w2 = Array.make num_vars (-1) in
  let t1 = Array.make num_vars (-1) in
  let t2 = Array.make num_vars (-1) in
  let consider e c =
    if c >= 0 && c <> m1.(e) then
      if c > m1.(e) then begin
        m2.(e) <- m1.(e);
        m1.(e) <- c
      end
      else if c > m2.(e) then m2.(e) <- c
  in
  let push_toucher v e =
    if t1.(v) <> e then begin
      t2.(v) <- t1.(v);
      t1.(v) <- e
    end
  in
  Array.iteri
    (fun e ev ->
      (* A read depends on earlier writers; a write on earlier touchers. *)
      List.iter
        (fun v ->
          if v >= 0 && v < num_vars then begin
            consider e w1.(v);
            consider e w2.(v)
          end)
        ev.Event.reads;
      List.iter
        (fun v ->
          if v >= 0 && v < num_vars then begin
            consider e t1.(v);
            consider e t2.(v)
          end)
        ev.Event.writes;
      List.iter
        (fun v -> if v >= 0 && v < num_vars then push_toucher v e)
        ev.Event.reads;
      List.iter
        (fun v ->
          if v >= 0 && v < num_vars then begin
            push_toucher v e;
            if w1.(v) <> e then begin
              w2.(v) <- w1.(v);
              w1.(v) <- e
            end
          end)
        ev.Event.writes)
    events;
  (m1, m2)

let dep_pred_max_excluding t ~event ~excluding =
  if t.dep_m1.(event) = excluding then t.dep_m2.(event) else t.dep_m1.(event)

let po_pred_max t e = List.fold_left max (-1) t.po_preds.(e)

(* ------------------------------------------------------------------ *)
(* The replay column                                                   *)
(* ------------------------------------------------------------------ *)

(* Each event's effect on the synchronization state as one int: its
   semaphore or event variable shifted left by three, or'ed with the
   operation — 0 none (computation, fork, join), 1 P, 2 V, 3 binary V,
   4 Post, 5 Wait, 6 Clear.  A replay step reads one int and touches
   one counter. *)
let sync_code ~sem_binary e =
  let code op arg = (arg lsl 3) lor op in
  match e.Event.kind with
  | Event.Computation | Event.Sync (Event.Fork | Event.Join) -> 0
  | Event.Sync (Event.Sem_p s) -> code 1 s
  | Event.Sync (Event.Sem_v s) -> code (if sem_binary.(s) then 3 else 2) s
  | Event.Sync (Event.Post v) -> code 4 v
  | Event.Sync (Event.Wait v) -> code 5 v
  | Event.Sync (Event.Clear v) -> code 6 v

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let build ~events ~po_preds ~outcome ~violations ~var_names ~sem_names
    ~ev_names ~sem_init ~sem_binary ~ev_init ~final_store ~process_names =
  let dep_m1, dep_m2 = dep_maxima ~num_vars:(Array.length var_names) events in
  {
    events;
    po_preds;
    dep_m1;
    dep_m2;
    sync = Array.map (sync_code ~sem_binary) events;
    outcome;
    violations;
    var_names;
    sem_names;
    ev_names;
    sem_init;
    sem_binary;
    ev_init;
    final_store;
    process_names;
  }

let make ~events ~po_edges ~outcome ~violations ~var_names ~sem_names
    ~ev_names ~sem_init ~sem_binary ~ev_init ~final_store ~process_names =
  let n = Array.length events in
  let po_preds = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        failwith "po edge out of range";
      po_preds.(b) <- a :: po_preds.(b))
    po_edges;
  build ~events ~po_preds ~outcome ~violations ~var_names ~sem_names ~ev_names
    ~sem_init ~sem_binary ~ev_init ~final_store ~process_names

let of_trace (tr : Trace.t) =
  let po_edges = ref [] in
  Rel.iter (fun a b -> po_edges := (a, b) :: !po_edges) tr.Trace.program_order;
  make ~events:tr.Trace.events ~po_edges:!po_edges ~outcome:tr.Trace.outcome
    ~violations:tr.Trace.violations ~var_names:tr.Trace.var_names
    ~sem_names:tr.Trace.sem_names ~ev_names:tr.Trace.ev_names
    ~sem_init:tr.Trace.sem_init ~sem_binary:tr.Trace.sem_binary
    ~ev_init:tr.Trace.ev_init ~final_store:tr.Trace.final_store
    ~process_names:tr.Trace.process_names

let to_trace t =
  let n = n_events t in
  let pairs = ref [] in
  Array.iteri
    (fun b preds -> List.iter (fun a -> pairs := (a, b) :: !pairs) preds)
    t.po_preds;
  {
    Trace.events = t.events;
    program_order = Rel.of_pairs n !pairs;
    outcome = t.outcome;
    violations = t.violations;
    var_names = t.var_names;
    sem_names = t.sem_names;
    ev_names = t.ev_names;
    sem_init = t.sem_init;
    sem_binary = t.sem_binary;
    ev_init = t.ev_init;
    final_store = t.final_store;
    process_names = t.process_names;
  }

(* ------------------------------------------------------------------ *)
(* Streaming I/O                                                       *)
(* ------------------------------------------------------------------ *)

let read path =
  let p = Trace_io.read_parts path in
  (* Each event's predecessors in file order: cons the edges last to
     first. *)
  let po_preds = Array.make (Array.length p.Trace_io.events) [] in
  for i = Array.length p.Trace_io.po_src - 1 downto 0 do
    let b = p.Trace_io.po_dst.(i) in
    po_preds.(b) <- p.Trace_io.po_src.(i) :: po_preds.(b)
  done;
  build ~events:p.Trace_io.events ~po_preds ~outcome:p.Trace_io.outcome
    ~violations:p.Trace_io.violations ~var_names:p.Trace_io.var_names
    ~sem_names:p.Trace_io.sem_names ~ev_names:p.Trace_io.ev_names
    ~sem_init:p.Trace_io.sem_init ~sem_binary:p.Trace_io.sem_binary
    ~ev_init:p.Trace_io.ev_init ~final_store:p.Trace_io.final_store
    ~process_names:p.Trace_io.process_names

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let line fmt = Printf.ksprintf (fun s -> output_string oc (s ^ "\n")) fmt in
      line "eotrace 1";
      (match t.outcome with
      | Trace.Completed -> line "outcome completed"
      | Trace.Fuel_exhausted -> line "outcome fuel_exhausted"
      | Trace.Deadlocked pids ->
          line "outcome deadlocked %s"
            (String.concat " " (List.map string_of_int pids)));
      line "vars %s" (String.concat " " (Array.to_list t.var_names));
      line "sems %s"
        (String.concat " "
           (List.mapi
              (fun i name -> if t.sem_binary.(i) then name ^ "*" else name)
              (Array.to_list t.sem_names)));
      line "events %s" (String.concat " " (Array.to_list t.ev_names));
      line "sem_init %s"
        (String.concat " " (List.map string_of_int (Array.to_list t.sem_init)));
      line "ev_init %s"
        (String.concat " "
           (List.map (fun v -> if v then "1" else "0")
              (Array.to_list t.ev_init)));
      List.iter (fun (pid, name) -> line "process %d %s" pid name)
        t.process_names;
      Array.iter
        (fun e ->
          line "event %d %d %d %s %s reads %s writes %s" e.Event.id e.Event.pid
            e.Event.seq
            (String.concat " " (Trace_io.kind_tokens e.Event.kind))
            (Trace_io.quote e.Event.label)
            (String.concat " " (List.map string_of_int e.Event.reads))
            (String.concat " " (List.map string_of_int e.Event.writes)))
        t.events;
      (* Each event's predecessors in list order, the order [read]
         rebuilds them in. *)
      Array.iteri
        (fun b preds -> List.iter (fun a -> line "po %d %d" a b) preds)
        t.po_preds;
      List.iter (fun e -> line "violation %d" e) t.violations;
      List.iter (fun (x, v) -> line "final %s %d" x v) t.final_store)

(* ------------------------------------------------------------------ *)
(* Race candidates                                                     *)
(* ------------------------------------------------------------------ *)

exception Cap_hit

(* One sweep in id order.  Each variable's earlier computation readers
   and writers are linked lists threaded through flat node arrays,
   newest first.  An event's partners are collected once each (with
   their conflict variables) before the next event starts, so every
   pair is discovered exactly at its higher event; a final counting
   sort on the lower event puts the pairs in (lower, higher) order. *)
let conflicting_pairs ?(max_candidates = max_int) t =
  let n = n_events t in
  let num_vars = Array.length t.var_names in
  let in_range v = v >= 0 && v < num_vars in
  let touches = ref 0 in
  Array.iter
    (fun ev ->
      if Event.is_computation ev then
        touches :=
          !touches + List.length ev.Event.reads + List.length ev.Event.writes)
    t.events;
  let node_ev = Array.make !touches 0 in
  let node_pid = Array.make !touches 0 in
  let node_next = Array.make !touches (-1) in
  let nodes = ref 0 in
  let writers = Array.make num_vars (-1) in
  let readers = Array.make num_vars (-1) in
  let push heads v e pid =
    let k = !nodes in
    node_ev.(k) <- e;
    node_pid.(k) <- pid;
    node_next.(k) <- heads.(v);
    heads.(v) <- k;
    incr nodes
  in
  (* The current event's partners: [slot.(w)] indexes [partner] while
     [partner.(slot.(w)) = w] holds for a slot below [npart]. *)
  let slot = Array.make n 0 in
  let partner = ref (Array.make 16 0) in
  let partner_vars = ref (Array.make 16 []) in
  let npart = ref 0 in
  let count = ref 0 in
  let truncated = ref false in
  let out_a = ref (Array.make 256 0) in
  let out_b = ref (Array.make 256 0) in
  let out_vars = ref (Array.make 256 []) in
  let nout = ref 0 in
  let widen a len fill =
    let a' = Array.make (2 * Array.length a) fill in
    Array.blit a 0 a' 0 len;
    a'
  in
  let emit e =
    for i = 0 to !npart - 1 do
      if !nout = Array.length !out_a then begin
        out_a := widen !out_a !nout 0;
        out_b := widen !out_b !nout 0;
        out_vars := widen !out_vars !nout []
      end;
      !out_a.(!nout) <- !partner.(i);
      !out_b.(!nout) <- e;
      !out_vars.(!nout) <- List.sort_uniq Int.compare !partner_vars.(i);
      incr nout
    done;
    npart := 0
  in
  let found w v =
    let s = slot.(w) in
    if s < !npart && !partner.(s) = w then
      !partner_vars.(s) <- v :: !partner_vars.(s)
    else begin
      if !count >= max_candidates then begin
        truncated := true;
        raise Cap_hit
      end;
      incr count;
      if !npart = Array.length !partner then begin
        partner := widen !partner !npart 0;
        partner_vars := widen !partner_vars !npart []
      end;
      slot.(w) <- !npart;
      !partner.(!npart) <- w;
      !partner_vars.(!npart) <- [ v ];
      incr npart
    end
  in
  let rec visit k pid v =
    if k >= 0 then begin
      if node_pid.(k) <> pid then found node_ev.(k) v;
      visit node_next.(k) pid v
    end
  in
  let current = ref 0 in
  (try
     Array.iteri
       (fun e ev ->
         if Event.is_computation ev then begin
           current := e;
           let pid = ev.Event.pid in
           List.iter
             (fun v -> if in_range v then visit writers.(v) pid v)
             ev.Event.reads;
           List.iter
             (fun v ->
               if in_range v then begin
                 visit writers.(v) pid v;
                 visit readers.(v) pid v
               end)
             ev.Event.writes;
           emit e;
           List.iter
             (fun v -> if in_range v then push readers v e pid)
             ev.Event.reads;
           List.iter
             (fun v -> if in_range v then push writers v e pid)
             ev.Event.writes
         end)
       t.events
   with Cap_hit -> emit !current);
  (* Counting sort on the lower event, stable in the higher one. *)
  let start = Array.make (n + 1) 0 in
  for i = 0 to !nout - 1 do
    let a = !out_a.(i) in
    start.(a + 1) <- start.(a + 1) + 1
  done;
  for a = 1 to n do
    start.(a) <- start.(a) + start.(a - 1)
  done;
  let order = Array.make !nout 0 in
  for i = 0 to !nout - 1 do
    let a = !out_a.(i) in
    order.(start.(a)) <- i;
    start.(a) <- start.(a) + 1
  done;
  let pairs = ref [] in
  for j = !nout - 1 downto 0 do
    let i = order.(j) in
    pairs := (!out_a.(i), !out_b.(i), !out_vars.(i)) :: !pairs
  done;
  (!pairs, !truncated)

(* ------------------------------------------------------------------ *)
(* Replay certification                                                *)
(* ------------------------------------------------------------------ *)

exception Blocked

(* Replays the events [lo, hi) of the column, skipping [skip]: each
   event's synchronization effect (see [sync_code]) applied to the
   semaphore counters and event flags. *)
let replay_range sem ev sync ~skip lo hi =
  for e = lo to hi - 1 do
    let code = sync.(e) in
    if code <> 0 && e <> skip then begin
      let arg = code lsr 3 in
      match code land 7 with
      | 1 ->
          if sem.(arg) <= 0 then raise Blocked;
          sem.(arg) <- sem.(arg) - 1
      | 2 -> sem.(arg) <- sem.(arg) + 1
      | 3 -> sem.(arg) <- 1
      | 4 -> ev.(arg) <- true
      | 5 -> if not ev.(arg) then raise Blocked
      | _ -> ev.(arg) <- false
    end
  done

let observed_replays t =
  let sem = Array.copy t.sem_init in
  let ev = Array.copy t.ev_init in
  let n = n_events t in
  (* Precedence is forward by construction (ids are in observed order
     and [build] computes dependence maxima the same way), so the
     synchronization state is the only thing left to check. *)
  try
    let ok = ref true in
    for b = 0 to n - 1 do
      ok := !ok && po_pred_max t b < b
    done;
    replay_range sem ev t.sync ~skip:(-1) 0 n;
    !ok
  with Blocked -> false

let certify_swap t a b =
  (* Replay the observed schedule with [b] hoisted to run back-to-back
     with [a], in the order [b; a]: prefix unchanged, then [b], then
     [a], then the rest in observed order.  Both pair events are
     computations, so only synchronization enabledness can differ — and
     it cannot, but this runs the actual certificate schedule rather
     than trusting the argument. *)
  let n = n_events t in
  if a < 0 || b < 0 || a >= n || b >= n || a = b then false
  else
    let lo, hi = if a < b then (a, b) else (b, a) in
    let sem = Array.copy t.sem_init in
    let ev = Array.copy t.ev_init in
    try
      replay_range sem ev t.sync ~skip:(-1) 0 lo;
      replay_range sem ev t.sync ~skip:(-1) hi (hi + 1);
      replay_range sem ev t.sync ~skip:(-1) lo (lo + 1);
      replay_range sem ev t.sync ~skip:hi (lo + 1) n;
      true
    with Blocked -> false
