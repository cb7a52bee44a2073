type cache = { memory : bool; dir : string option }

let no_cache = { memory = false; dir = None }
let default_cache () = { memory = true; dir = Config.cache_dir () }

(* Process-wide LRU over serialized payloads, shared by every session so
   repeated analyses of one program amortize across sessions too.  Entry
   count is tiny (the payloads, not the programs, dominate), so a
   move-to-front assoc list is exact LRU at no bookkeeping cost.  Each
   session is still a single-domain object, but the LRU itself is the
   cross-request shared state of the analysis server — sessions living
   on different worker domains hit it concurrently — so its (tiny)
   critical sections run under one mutex. *)
module Lru = struct
  let capacity = 64
  let entries : (string * string) list ref = ref []
  let m = Mutex.create ()

  let locked f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f

  let find key =
    locked @@ fun () ->
    match List.assoc_opt key !entries with
    | None -> None
    | Some payload ->
        entries := (key, payload) :: List.remove_assoc key !entries;
        Some payload

  let store key payload =
    locked @@ fun () ->
    let rest = List.remove_assoc key !entries in
    let rest =
      if List.length rest >= capacity then List.filteri (fun i _ -> i < capacity - 1) rest
      else rest
    in
    entries := (key, payload) :: rest

  let clear () = locked (fun () -> entries := [])
end

let clear_memory_cache () = Lru.clear ()

type 'a handle = { mutable value : 'a option; mutable force : unit -> unit }

(* Tier-1 devices for the auto engine, attached from above (the triage
   layer owns the approximation devices; this module only knows their
   verdict shape).  [Some v] must be exact — the attacher is responsible
   for sound one-sided clamping — and [None] means "escalate". *)
type oracle = {
  o_feasible : unit -> bool option;
  o_exists_before : int -> int -> bool option;
  o_must_before : int -> int -> bool option;
  o_race : int -> int -> bool option;
}

(* A registered fold, existentially packed.  [visit] uniformly takes the
   pinned order as an option: it is [Some] whenever any fold on the pass
   declared [needs_po], so the (quadratic-ish) [Pinned.po_of_schedule]
   runs at most once per schedule however many consumers ride along. *)
type consumer =
  | C : {
      needs_po : bool;
      init : unit -> 'a;
      visit : 'a -> int array -> Rel.t option -> unit;
      merge : 'a -> 'a -> unit;
      handle : 'a handle;
    }
      -> consumer

type summary = {
  n : int;
  feasible_count : int;
  truncated : bool;
  distinct_classes : int;
  before_some : Rel.t;
  comparable_some : Rel.t;
  incomparable_some : Rel.t;
}

type t = {
  sk : Skeleton.t;
  limit : int option;
  jobs : int;
  stats : Telemetry.t option;
  c : Counters.t;
  budget : Budget.t;
  cache : cache;
  key : Program_key.t Lazy.t;
  mutable reach : Reach.t option;
  mutable encoder : Encode.t option;
  mutable oracle : oracle option;  (* auto tier 1, set by Triage.attach *)
  mutable auto_reach : Reach.t option;  (* auto tier 2, under its slice *)
  mutable auto_encoder : Encode.t option;  (* auto tier 3, under its slice *)
  mutable auto_enum_budget : Budget.t option;  (* auto tier 4 allotment *)
  mutable auto_enum_reach : Reach.t option;  (* auto tier 4 race engine *)
  auto_memo : (char * int * int, bool) Hashtbl.t;
  mutable pending_full : consumer list;  (* reversed registration order *)
  mutable pending_por : consumer list;
  mutable full_stats : (int * bool) option;  (* schedules visited, truncated *)
  mutable por_stats : (int * bool) option;  (* representatives, truncated *)
  mutable summary_memo : summary option;
  mutable summary_reduced_memo : summary option;
}

let create ?limit ?(jobs = 1) ?stats ?(budget = Budget.unlimited)
    ?(cache = no_cache) sk =
  let c = match stats with Some tel -> Telemetry.counters tel | None -> Counters.null in
  {
    sk;
    limit;
    jobs;
    stats;
    c;
    budget;
    cache;
    key = lazy (Program_key.of_execution sk.Skeleton.execution);
    reach = None;
    encoder = None;
    oracle = None;
    auto_reach = None;
    auto_encoder = None;
    auto_enum_budget = None;
    auto_enum_reach = None;
    auto_memo = Hashtbl.create 64;
    pending_full = [];
    pending_por = [];
    full_stats = None;
    por_stats = None;
    summary_memo = None;
    summary_reduced_memo = None;
  }

let of_execution ?limit ?jobs ?stats ?budget ?cache x =
  create ?limit ?jobs ?stats ?budget ?cache (Skeleton.of_execution x)

let skeleton t = t.sk
let execution t = t.sk.Skeleton.execution
let key t = Lazy.force t.key
let limit t = t.limit
let jobs t = t.jobs
let budget t = t.budget
let telemetry t = t.stats
let full_pass_stats t = t.full_stats

let reach t =
  match t.reach with
  | Some r -> r
  | None ->
      let r = Reach.create ~stats:t.c ~budget:t.budget t.sk in
      t.reach <- Some r;
      r

let set_run t =
  match t.stats with
  | None -> ()
  | Some tel ->
      Telemetry.set_run tel ~engine:(Engine.to_string (Engine.current ())) ~jobs:t.jobs

(* ------------------------------------------------------------------ *)
(* The SAT backend: one compiled formula per session (built lazily,
   like [reach]), per-pair queries as assumption probes.  Every
   positive SAT answer is decoded into a schedule and certified by the
   [Replay] oracle before it is believed — an encoder bug surfaces as a
   loud failure here, never as a wrong analysis answer. *)

let encode_program (sk : Skeleton.t) =
  {
    Encode.n = sk.Skeleton.n;
    po_preds = sk.Skeleton.po_preds;
    dep_preds = sk.Skeleton.dep_preds;
    kinds = sk.Skeleton.kinds;
    sem_init = sk.Skeleton.sem_init;
    sem_binary = sk.Skeleton.sem_binary;
    ev_init = sk.Skeleton.ev_init;
  }

let encoder t =
  match t.encoder with
  | Some e -> e
  | None ->
      set_run t;
      let e = Encode.build ~stats:t.c ~budget:t.budget (encode_program t.sk) in
      t.encoder <- Some e;
      e

let certify sk schedule =
  match Replay.check sk schedule with
  | Replay.Feasible -> schedule
  | v ->
      invalid_arg
        (Format.asprintf "Session: SAT witness rejected by replay (%a)"
           Replay.pp_verdict v)

let sat_engine () = Engine.current () = Engine.Sat

let witness_before t a b =
  if sat_engine () then
    Option.map (certify t.sk) (Encode.exists_before_witness (encoder t) a b)
  else Reach.witness_before (reach t) a b

let exists_before t a b =
  if sat_engine () then witness_before t a b <> None
  else Reach.exists_before (reach t) a b

let feasible_exists t =
  if sat_engine () then
    match Encode.feasible_witness (encoder t) with
    | Some s ->
        ignore (certify t.sk s);
        true
    | None -> false
  else Reach.feasible_exists (reach t)

let must_before t a b =
  if sat_engine () then a <> b && feasible_exists t && not (exists_before t b a)
  else Reach.must_before (reach t) a b

(* Session-independent SAT race probe, for callers (the race layer)
   that decide pairs on *modified* skeletons a session never owns. *)
let sat_exists_race ?(stats = Counters.null) ?budget sk a b =
  let enc = Encode.build ~stats ?budget (encode_program sk) in
  match Encode.race_witness enc a b with
  | Some (s1, s2) ->
      ignore (certify sk s1);
      ignore (certify sk s2);
      true
  | None -> false

let exists_race t a b =
  if sat_engine () then
    match Encode.race_witness (encoder t) a b with
    | Some (s1, s2) ->
        ignore (certify t.sk s1);
        ignore (certify t.sk s2);
        true
    | None -> false
  else Reach.exists_race (reach t) a b

(* ------------------------------------------------------------------ *)
(* The auto engine: a tiered triage ladder.  Each query tries the
   attached tier-1 approximation oracle, then the memoized state engine,
   then the SAT backend, then bounded enumeration — tiers 2–4 each under
   their own [Budget.sub] slice of the session budget.  A tier that
   cannot decide (oracle [None], or a slice expiry while the session
   budget is still alive) escalates to the next; expiry of the session
   budget itself, or of the final tier, degrades exactly like every
   other engine (the [_outcome] wrappers below catch it). *)

let auto_engine () = Engine.current () = Engine.Auto
let set_oracle t o = t.oracle <- Some o
let has_oracle t = t.oracle <> None

let auto_reach t =
  match t.auto_reach with
  | Some r -> r
  | None ->
      let b =
        Budget.sub t.budget ~node_budget:(Config.triage_reach_nodes ()) ()
      in
      let r = Reach.create ~stats:t.c ~budget:b t.sk in
      t.auto_reach <- Some r;
      r

(* Past this many events the ladder skips the SAT tier (no escalation
   counted: the tier is absent, not defeated).  Rule: the largest swept
   size at which every sat-engine answer to [batch FILE mhb:a:b chb:b:a]
   on Theorem 1 reductions of random 3-CNF (formulas with one model and
   unsatisfiable ones, 4-16 draws per size over three sweeps; release
   build on a shared 2-core x86-64 box) came in under 2 s.  Slowest
   draws: 0.25 s at 196 events, 0.55 s at 288, 1.30 s at 318, then
   2.18 s at 350.  The race layer's per-pair ladder shares the cap;
   E24 in EXPERIMENTS.md also times [races --engine auto] on
   reductions and generated traces up to this size. *)
let auto_sat_cap = 318

let auto_encoder t =
  if t.sk.Skeleton.n > auto_sat_cap then None
  else
    match t.auto_encoder with
    | Some e -> Some e
    | None ->
        let b =
          Budget.sub t.budget
            ~conflict_budget:(Config.triage_sat_conflicts ())
            ()
        in
        let e = Encode.build ~stats:t.c ~budget:b (encode_program t.sk) in
        t.auto_encoder <- Some e;
        Some e

let auto_enum_budget t =
  match t.auto_enum_budget with
  | Some b -> b
  | None ->
      let b =
        Budget.sub t.budget ~node_budget:(Config.triage_enum_nodes ()) ()
      in
      t.auto_enum_budget <- Some b;
      b

let auto_enum_reach t =
  match t.auto_enum_reach with
  | Some r -> r
  | None ->
      let r = Reach.create ~stats:t.c ~budget:(auto_enum_budget t) t.sk in
      t.auto_enum_reach <- Some r;
      r

(* A tier failed to decide.  If the *session* budget is gone this is a
   real expiry (re-raised, degraded by the outcome layer); otherwise
   count the escalation and let the caller try the next tier. *)
let escalate t =
  Budget.raise_if_exhausted t.budget;
  Counters.bump t.c Counters.Triage_escalations

let try_tier t f =
  match f () with v -> Some v | exception Budget.Expired -> escalate t; None

let oracle_verdict t f =
  match t.oracle with
  | None -> None
  | Some o -> (
      match f o with
      | Some v ->
          Counters.bump t.c Counters.Triage_approx_hits;
          Some v
      | None ->
          escalate t;
          None)

let sat_tier t probe =
  match auto_encoder t with
  | None -> None
  | Some enc -> (
      match try_tier t (fun () -> probe enc) with
      | Some v ->
          Counters.bump t.c Counters.Triage_sat_hits;
          Some v
      | None -> None)

let reach_tier t f =
  match try_tier t (fun () -> f (auto_reach t)) with
  | Some v ->
      Counters.bump t.c Counters.Triage_reach_hits;
      Some v
  | None -> None

let enum_hit t v =
  Counters.bump t.c Counters.Triage_enum_hits;
  v

let memo_pair t kind a b compute =
  let key = (kind, a, b) in
  match Hashtbl.find_opt t.auto_memo key with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.add t.auto_memo key v;
      v

(* Tier 4 for the ordering queries: plain bounded schedule enumeration.
   [Enumerate.iter] stops quietly when the slice trips, so a walk can
   end incomplete: a schedule it found is still a witness, but an
   answer that rests on having seen every schedule raises [Expired]
   instead, for the outcome layer to degrade.  A completed walk is
   exact (the search space is finite). *)
let scan_before schedule a b =
  let n = Array.length schedule in
  let rec scan i =
    if i >= n then false
    else if schedule.(i) = a then true
    else if schedule.(i) = b then false
    else scan (i + 1)
  in
  scan 0

let enum_find t pred =
  let budget = auto_enum_budget t in
  let found = ref None in
  let (_ : int) =
    Enumerate.iter ~stats:t.c ~budget t.sk (fun schedule ->
        if pred schedule then begin
          found := Some (Array.copy schedule);
          raise Enumerate.Stop
        end)
  in
  if !found = None && Budget.exhausted budget then raise Budget.Expired;
  !found

let enum_witness_before t a b = enum_find t (fun s -> scan_before s a b)
let enum_exists_before t a b = enum_witness_before t a b <> None
let enum_feasible t = enum_find t (fun _ -> true) <> None

let enum_must_before t a b =
  let any = ref false in
  let contra =
    enum_find t (fun s ->
        any := true;
        scan_before s b a)
  in
  !any && contra = None

let auto_exists_before t a b =
  if a = b then false
  else
    memo_pair t 'b' a b @@ fun () ->
    match oracle_verdict t (fun o -> o.o_exists_before a b) with
    | Some v -> v
    | None -> (
        match reach_tier t (fun r -> Reach.exists_before r a b) with
        | Some v -> v
        | None -> (
            match
              sat_tier t (fun enc ->
                  match Encode.exists_before_witness enc a b with
                  | Some s ->
                      ignore (certify t.sk s);
                      true
                  | None -> false)
            with
            | Some v -> v
            | None -> enum_hit t (enum_exists_before t a b)))

let auto_witness_before t a b =
  if a = b then None
  else
    (* No memo (the witness schedule is not worth retaining) and no
       oracle tier: the approximations prove bits, not schedules. *)
    match reach_tier t (fun r -> Reach.witness_before r a b) with
    | Some w -> w
    | None -> (
        match
          sat_tier t (fun enc ->
              Option.map (certify t.sk) (Encode.exists_before_witness enc a b))
        with
        | Some w -> w
        | None -> enum_hit t (enum_witness_before t a b))

let auto_feasible_exists t =
  memo_pair t 'f' 0 0 @@ fun () ->
  match oracle_verdict t (fun o -> o.o_feasible ()) with
  | Some v -> v
  | None -> (
      match reach_tier t Reach.feasible_exists with
      | Some v -> v
      | None -> (
          match
            sat_tier t (fun enc ->
                match Encode.feasible_witness enc with
                | Some s ->
                    ignore (certify t.sk s);
                    true
                | None -> false)
          with
          | Some v -> v
          | None -> enum_hit t (enum_feasible t)))

let auto_must_before t a b =
  if a = b then false
  else
    memo_pair t 'm' a b @@ fun () ->
    match oracle_verdict t (fun o -> o.o_must_before a b) with
    | Some v -> v
    | None -> (
        match reach_tier t (fun r -> Reach.must_before r a b) with
        | Some v -> v
        | None -> (
            match
              sat_tier t (fun enc ->
                  match Encode.feasible_witness enc with
                  | None -> false
                  | Some s -> (
                      ignore (certify t.sk s);
                      match Encode.exists_before_witness enc b a with
                      | Some s' ->
                          ignore (certify t.sk s');
                          false
                      | None -> true))
            with
            | Some v -> v
            | None -> enum_hit t (enum_must_before t a b)))

let auto_exists_race t a b =
  if a = b then false
  else
    memo_pair t 'r' a b @@ fun () ->
    match oracle_verdict t (fun o -> o.o_race a b) with
    | Some v -> v
    | None -> (
        match reach_tier t (fun r -> Reach.exists_race r a b) with
        | Some v -> v
        | None -> (
            match
              sat_tier t (fun enc ->
                  match Encode.race_witness enc a b with
                  | Some (s1, s2) ->
                      ignore (certify t.sk s1);
                      ignore (certify t.sk s2);
                      true
                  | None -> false)
            with
            | Some v -> v
            | None ->
                enum_hit t (Reach.exists_race (auto_enum_reach t) a b)))

(* Route the per-pair primitives through the ladder when the auto
   engine is selected. *)
let exists_before t a b =
  if auto_engine () then auto_exists_before t a b else exists_before t a b

let witness_before t a b =
  if auto_engine () then auto_witness_before t a b else witness_before t a b

let feasible_exists t =
  if auto_engine () then auto_feasible_exists t else feasible_exists t

let must_before t a b =
  if auto_engine () then auto_must_before t a b else must_before t a b

let exists_race t a b =
  if auto_engine () then auto_exists_race t a b else exists_race t a b

let worker_counters c = if Counters.enabled c then Counters.create () else Counters.null

(* ------------------------------------------------------------------ *)
(* The keyed cache: in-memory LRU in front of the optional disk store. *)

let cache_enabled t = t.cache.memory || t.cache.dir <> None

(* Every dimension that changes what a result means is part of the key,
   so staleness is impossible by construction: engine or memory model
   or limit or program mismatch = different key = miss — cached answers
   can never cross models. *)
let entry_key t ~kind =
  Printf.sprintf "%s.%s.%s.%s.%s" (Lazy.force t.key).Program_key.hash kind
    (Engine.to_string (Engine.current ()))
    (Memmodel.to_string (Memmodel.current ()))
    (match t.limit with None -> "nolimit" | Some l -> string_of_int l)

let cache_version = "eocache/1"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let disk_path t ek =
  match t.cache.dir with None -> None | Some dir -> Some (Filename.concat dir (ek ^ ".eocache"))

let disk_read t ek =
  match disk_path t ek with
  | None -> None
  | Some path -> (
      try
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        let len = in_channel_length ic in
        let content = really_input_string ic len in
        match String.index_opt content '\n' with
        | None -> None
        | Some i -> (
            if String.sub content 0 i <> cache_version then None
            else
              let rest = String.sub content (i + 1) (len - i - 1) in
              match String.index_opt rest '\n' with
              | None -> None
              | Some j ->
                  if String.sub rest 0 j <> ek then None
                  else Some (String.sub rest (j + 1) (String.length rest - j - 1)))
      with Sys_error _ | End_of_file -> None)

(* Writers racing on one entry must never observe each other's partial
   output: each write goes to a tmp name unique per process *and* per
   write (two domains of one process share a pid), and only a complete
   tmp file is renamed — atomically — over the entry. *)
let tmp_counter = Atomic.make 0

let disk_write t ek payload =
  match disk_path t ek with
  | None -> ()
  | Some path -> (
      try
        Option.iter mkdir_p t.cache.dir;
        let tmp =
          Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
            (Atomic.fetch_and_add tmp_counter 1)
        in
        let oc = open_out_bin tmp in
        (match
           Fun.protect
             ~finally:(fun () -> close_out_noerr oc)
             (fun () ->
               output_string oc cache_version;
               output_char oc '\n';
               output_string oc ek;
               output_char oc '\n';
               output_string oc payload)
         with
        | () -> Sys.rename tmp path
        | exception e ->
            (try Sys.remove tmp with Sys_error _ -> ());
            raise e)
      with Sys_error _ -> ())

let lookup_cached t ~kind ~decode =
  if not (cache_enabled t) then None
  else begin
    let ek = entry_key t ~kind in
    let decoded src payload =
      match decode payload with
      | Some v ->
          Counters.bump t.c
            (match src with
            | `Memory -> Counters.Cache_memory_hits
            | `Disk -> Counters.Cache_disk_hits);
          if src = `Disk && t.cache.memory then Lru.store ek payload;
          Some v
      | None ->
          Counters.bump t.c Counters.Cache_misses;
          None
    in
    match (if t.cache.memory then Lru.find ek else None) with
    | Some payload -> decoded `Memory payload
    | None -> (
        match disk_read t ek with
        | Some payload -> decoded `Disk payload
        | None ->
            Counters.bump t.c Counters.Cache_misses;
            None)
  end

(* The auto ladder's enumeration slice was cut: some answer of this
   session depends on the [EO_TRIAGE_ENUM_NODES] setting, which the
   cache key does not carry. *)
let enum_slice_cut t =
  match t.auto_enum_budget with Some b -> Budget.exhausted b | None -> false

let store_cached t ~kind payload =
  (* Budget-truncated results are partial in a nondeterministic,
     timing-dependent way; memoizing them inside this session is fine,
     but they must never be filed under a key a later (unbudgeted)
     session would trust. *)
  if cache_enabled t && not (Budget.exhausted t.budget || enum_slice_cut t)
  then begin
    let ek = entry_key t ~kind in
    if t.cache.memory then Lru.store ek payload;
    disk_write t ek payload;
    Counters.bump t.c Counters.Cache_stores
  end

(* ------------------------------------------------------------------ *)
(* Pass drivers.  Each drains every fold registered on its pass: one
   traversal serves them all.  The parallel paths follow the invariance
   discipline of {!Parallel}: per-task accumulators and counters are
   created per subtree and merged on the coordinating domain in task
   order, so results and search counters are bit-identical to jobs=1. *)

(* Instantiate one consumer for a sequential walk: an [apply] to call
   per schedule and a [finish] that publishes the accumulator. *)
let sequential_instances consumers =
  List.map
    (fun (C r) ->
      let acc = r.init () in
      ((fun schedule po -> r.visit acc schedule po), fun () -> r.handle.value <- Some acc))
    consumers

(* Instantiate for a parallel walk: a coordinator-side master plus a
   per-task factory whose [commit] merges into the master (commits run
   on the coordinator, in task order). *)
let parallel_instances consumers =
  List.map
    (fun (C r) ->
      let master = r.init () in
      let make_task () =
        let acc = r.init () in
        ((fun schedule po -> r.visit acc schedule po), fun () -> r.merge master acc)
      in
      (make_task, fun () -> r.handle.value <- Some master))
    consumers

let needs_po consumers = List.exists (fun (C r) -> r.needs_po) consumers

let run_full t =
  match t.pending_full with
  | [] -> ()
  | pending ->
      t.pending_full <- [];
      let consumers = List.rev pending in
      let c = t.c in
      set_run t;
      Counters.bump c Counters.Session_passes;
      Counters.time c Counters.T_total @@ fun () ->
      let sk = t.sk in
      let with_po = needs_po consumers in
      let po_opt schedule =
        if with_po then Some (Pinned.po_of_schedule sk schedule) else None
      in
      let run_sequential () =
        let insts = sequential_instances consumers in
        let count =
          Counters.time c Counters.T_enumerate (fun () ->
              Enumerate.iter ?limit:t.limit ~stats:c ~budget:t.budget sk
                (fun schedule ->
                  let po = po_opt schedule in
                  List.iter (fun (apply, _) -> apply schedule po) insts))
        in
        let truncated =
          (match t.limit with Some l -> count >= l | None -> false)
          || Budget.exhausted t.budget
        in
        t.full_stats <- Some (count, truncated);
        List.iter (fun (_, finish) -> finish ()) insts
      in
      let parallel = t.jobs > 1 && t.limit = None && Engine.current () = Engine.Packed in
      if not parallel then run_sequential ()
      else begin
        match Parallel.split_prefixes ~stats:c sk ~jobs:t.jobs with
        | None -> run_sequential ()
        | Some (depth, prefixes) ->
            Option.iter (fun tel -> Telemetry.set_split_depth tel depth) t.stats;
            let insts = parallel_instances consumers in
            let results =
              Counters.time c Counters.T_enumerate (fun () ->
                  Parallel.map ?telemetry:t.stats ~budget:t.budget ~jobs:t.jobs
                    (fun prefix ->
                      let wc = worker_counters c in
                      let tasks = List.map (fun (make_task, _) -> make_task ()) insts in
                      let count =
                        Enumerate.iter_from ~stats:wc ~budget:t.budget sk ~prefix
                          (fun schedule ->
                            let po = po_opt schedule in
                            List.iter (fun (apply, _) -> apply schedule po) tasks)
                      in
                      (count, List.map snd tasks, wc))
                    prefixes)
            in
            Option.iter
              (fun tel ->
                Telemetry.set_task_schedules tel (Array.map (fun (k, _, _) -> k) results))
              t.stats;
            let total =
              Array.fold_left
                (fun total (count, commits, wc) ->
                  Counters.bump c Counters.Par_merges;
                  Counters.merge_into ~dst:c wc;
                  List.iter (fun commit -> commit ()) commits;
                  total + count)
                0 results
            in
            t.full_stats <- Some (total, Budget.exhausted t.budget);
            List.iter (fun (_, finish) -> finish ()) insts
      end

let run_por t =
  match t.pending_por with
  | [] -> ()
  | pending ->
      t.pending_por <- [];
      let consumers = List.rev pending in
      let c = t.c in
      set_run t;
      Counters.bump c Counters.Session_passes;
      Counters.time c Counters.T_total @@ fun () ->
      let sk = t.sk in
      let run_sequential () =
        let insts = sequential_instances consumers in
        let reps =
          Counters.time c Counters.T_enumerate (fun () ->
              Por.iter_representatives ?limit:t.limit ~stats:c ~budget:t.budget
                sk (fun schedule ->
                  let po = Some (Pinned.po_of_schedule sk schedule) in
                  List.iter (fun (apply, _) -> apply schedule po) insts))
        in
        let truncated =
          (match t.limit with Some l -> reps >= l | None -> false)
          || Budget.exhausted t.budget
        in
        t.por_stats <- Some (reps, truncated);
        List.iter (fun (_, finish) -> finish ()) insts
      in
      let parallel = t.jobs > 1 && t.limit = None && Engine.current () = Engine.Packed in
      if not parallel then run_sequential ()
      else begin
        match Parallel.split_por_tasks ~stats:c sk ~jobs:t.jobs with
        | None -> run_sequential ()
        | Some (depth, tasks) ->
            Option.iter (fun tel -> Telemetry.set_split_depth tel depth) t.stats;
            let insts = parallel_instances consumers in
            let parts =
              Counters.time c Counters.T_enumerate (fun () ->
                  Parallel.map ?telemetry:t.stats ~budget:t.budget ~jobs:t.jobs
                    (fun task ->
                      let wc = worker_counters c in
                      let tinsts = List.map (fun (make_task, _) -> make_task ()) insts in
                      let reps =
                        Por.iter_task ~stats:wc ~budget:t.budget sk task
                          (fun schedule ->
                            let po = Some (Pinned.po_of_schedule sk schedule) in
                            List.iter (fun (apply, _) -> apply schedule po) tinsts)
                      in
                      (reps, List.map snd tinsts, wc))
                    tasks)
            in
            Option.iter
              (fun tel ->
                Telemetry.set_task_schedules tel (Array.map (fun (r, _, _) -> r) parts))
              t.stats;
            let total =
              Array.fold_left
                (fun total (reps, commits, wc) ->
                  Counters.bump c Counters.Par_merges;
                  Counters.merge_into ~dst:c wc;
                  List.iter (fun commit -> commit ()) commits;
                  total + reps)
                0 parts
            in
            t.por_stats <- Some (total, Budget.exhausted t.budget);
            List.iter (fun (_, finish) -> finish ()) insts
      end

(* ------------------------------------------------------------------ *)
(* Registration. *)

let register_full t ~needs_po ~init ~visit ~merge =
  let handle = { value = None; force = Fun.id } in
  handle.force <- (fun () -> run_full t);
  t.pending_full <- C { needs_po; init; visit; merge; handle } :: t.pending_full;
  handle

let fold_schedules t ~init ~visit ~merge =
  register_full t ~needs_po:false ~init
    ~visit:(fun acc schedule _po -> visit acc schedule)
    ~merge

let fold_pinned t ~init ~visit ~merge =
  register_full t ~needs_po:true ~init
    ~visit:(fun acc schedule po -> visit acc schedule (Option.get po))
    ~merge

let fold_classes t ~init ~visit ~merge =
  let handle = { value = None; force = Fun.id } in
  handle.force <- (fun () -> run_por t);
  t.pending_por <-
    C
      {
        needs_po = true;
        init;
        visit = (fun acc schedule po -> visit acc schedule (Option.get po));
        merge;
        handle;
      }
    :: t.pending_por;
  handle

let result h =
  match h.value with
  | Some v -> v
  | None ->
      h.force ();
      Option.get h.value

(* ------------------------------------------------------------------ *)
(* The summary consumer (what [Relations.t] is rebuilt from), moved
   here from lib/core so one registered fold can serve it. *)

type sum_acc = {
  before : Rel.t;
  comparable : Rel.t;
  incomparable : Rel.t;
  classes : unit Wordtbl.t;
  position : int array;
}

let make_acc n =
  {
    before = Rel.create n;
    comparable = Rel.create n;
    incomparable = Rel.create n;
    classes = Wordtbl.create 64;
    position = Array.make n 0;
  }

let record_class acc po =
  let key = Rel.pack po in
  if not (Wordtbl.mem acc.classes key) then Wordtbl.add acc.classes key ()

let record_comparability acc po =
  let n = Array.length acc.position in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then
        if Rel.mem po a b || Rel.mem po b a then Rel.add acc.comparable a b
        else Rel.add acc.incomparable a b
    done
  done

let visit_full acc schedule po =
  let n = Array.length schedule in
  Array.iteri (fun pos e -> acc.position.(e) <- pos) schedule;
  record_class acc po;
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && acc.position.(a) < acc.position.(b) then Rel.add acc.before a b
    done
  done;
  record_comparability acc po

let visit_class acc _schedule po =
  record_class acc po;
  record_comparability acc po

let merge_acc dst src =
  Rel.union_into dst.before src.before;
  Rel.union_into dst.comparable src.comparable;
  Rel.union_into dst.incomparable src.incomparable;
  Wordtbl.iter
    (fun k () -> if not (Wordtbl.mem dst.classes k) then Wordtbl.add dst.classes k ())
    src.classes

(* ------------------------------------------------------------------ *)
(* Summary (de)serialization, in canonical coordinates. *)

let encode_rel buf to_canonical tag rel =
  let pairs =
    List.sort compare
      (List.map (fun (a, b) -> (to_canonical.(a), to_canonical.(b))) (Rel.to_pairs rel))
  in
  Printf.bprintf buf "%s %d\n" tag (List.length pairs);
  List.iter (fun (a, b) -> Printf.bprintf buf "%d %d\n" a b) pairs

let encode_summary t s =
  let tc = (Lazy.force t.key).Program_key.to_canonical in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "summary %d %d %b %d\n" s.n s.feasible_count s.truncated
    s.distinct_classes;
  encode_rel buf tc "before" s.before_some;
  encode_rel buf tc "comparable" s.comparable_some;
  encode_rel buf tc "incomparable" s.incomparable_some;
  Buffer.contents buf

exception Malformed

let decode_summary t payload =
  let oc = (Lazy.force t.key).Program_key.of_canonical in
  let lines = Array.of_list (String.split_on_char '\n' payload) in
  let cursor = ref 0 in
  let next () =
    if !cursor >= Array.length lines then raise Malformed
    else begin
      let l = lines.(!cursor) in
      incr cursor;
      l
    end
  in
  try
    let n, feasible_count, truncated, distinct_classes =
      Scanf.sscanf (next ()) "summary %d %d %B %d" (fun a b c d -> (a, b, c, d))
    in
    if n <> Array.length oc then None
    else begin
      let decode_rel tag =
        let count = Scanf.sscanf (next ()) "%s %d" (fun t c -> if t <> tag then raise Malformed else c) in
        let rel = Rel.create n in
        for _ = 1 to count do
          let a, b = Scanf.sscanf (next ()) "%d %d" (fun a b -> (a, b)) in
          if a < 0 || a >= n || b < 0 || b >= n then raise Malformed;
          Rel.add rel oc.(a) oc.(b)
        done;
        rel
      in
      let before_some = decode_rel "before" in
      let comparable_some = decode_rel "comparable" in
      let incomparable_some = decode_rel "incomparable" in
      Some
        {
          n;
          feasible_count;
          truncated;
          distinct_classes;
          before_some;
          comparable_some;
          incomparable_some;
        }
    end
  with Malformed | Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* ------------------------------------------------------------------ *)
(* Cached whole-program summaries. *)

let compute_summary_full t =
  let n = t.sk.Skeleton.n in
  let handle =
    fold_pinned t ~init:(fun () -> make_acc n) ~visit:visit_full ~merge:merge_acc
  in
  let acc = result handle in
  let feasible_count, truncated = Option.get t.full_stats in
  {
    n;
    feasible_count;
    truncated;
    distinct_classes = Wordtbl.length acc.classes;
    before_some = acc.before;
    comparable_some = acc.comparable;
    incomparable_some = acc.incomparable;
  }

let compute_summary_reduced t =
  let n = t.sk.Skeleton.n in
  let c = t.c in
  set_run t;
  let reach = reach t in
  let parallel = t.jobs > 1 && Engine.current () = Engine.Packed in
  let before_some = Rel.create n in
  (* Happened-before bits: n² reachability queries.  Parallel mode splits
     the rows into one contiguous block per worker, each with its own
     memoizing engine (the memo tables are not shared between domains);
     blocks touch disjoint rows, so the union is trivially deterministic. *)
  let fill_before reach rel lo hi =
    for a = lo to hi do
      for b = 0 to n - 1 do
        if Reach.exists_before reach a b then Rel.add rel a b
      done
    done
  in
  (* Under the SAT engine the happened-before bits come from assumption
     probes on the shared compiled formula (each positive answer
     replay-certified); class structure and counting below stay on the
     enumeration engines either way. *)
  (* Under auto a pair whose ladder ends in a cut enumeration walk
     stays unset (the sound direction) and marks the summary truncated;
     the other pairs are still filled by the tiers that can decide
     them.  Only the session budget's own expiry stops the fill. *)
  let cut = ref false in
  let fill_before_sat rel =
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if a <> b then
          match exists_before t a b with
          | true -> Rel.add rel a b
          | false -> ()
          | exception Budget.Expired ->
              Budget.raise_if_exhausted t.budget;
              cut := true
      done
    done
  in
  Counters.time c Counters.T_total (fun () ->
      Counters.time c Counters.T_before (fun () ->
          (* Expiry mid-fill leaves the rows already decided in place:
             a sound under-approximation of the could-have-before bits. *)
          if sat_engine () || auto_engine () then (
            try fill_before_sat before_some with Budget.Expired -> ())
          else if (not parallel) || n < 2 then (
            try fill_before reach before_some 0 (n - 1)
            with Budget.Expired -> ())
          else begin
            let k = min t.jobs n in
            let ranges =
              Array.init k (fun i ->
                  let lo = i * n / k and hi = (((i + 1) * n) / k) - 1 in
                  (lo, hi))
            in
            let parts =
              Parallel.map ?telemetry:t.stats ~budget:t.budget ~jobs:t.jobs
                (fun (lo, hi) ->
                  let wc = worker_counters c in
                  let rel = Rel.create n in
                  let worker_reach =
                    Reach.create ~stats:wc ~budget:t.budget t.sk
                  in
                  (try fill_before worker_reach rel lo hi
                   with Budget.Expired -> ());
                  Reach.stats_commit worker_reach;
                  (rel, wc))
                ranges
            in
            Array.iter
              (fun (rel, wc) ->
                Counters.merge_into ~dst:c wc;
                Rel.union_into before_some rel)
              parts
          end));
  (* Comparability bits and class count ride the POR pass (together with
     any other class folds registered on this session). *)
  let handle =
    fold_classes t ~init:(fun () -> make_acc n) ~visit:visit_class ~merge:merge_acc
  in
  let acc = result handle in
  let truncated =
    (match t.por_stats with Some (_, tr) -> tr | None -> false)
    || !cut
    || Budget.exhausted t.budget
  in
  (* A DP count cut short has no partial value; 0 is the only sound
     under-count, and [truncated] above tells the reader it is one. *)
  let feasible_count =
    try
      Counters.time c Counters.T_total (fun () ->
          Counters.time c Counters.T_count (fun () ->
              Reach.schedule_count reach))
    with Budget.Expired -> 0
  in
  Reach.stats_commit reach;
  {
    n;
    feasible_count;
    truncated;
    distinct_classes = Wordtbl.length acc.classes;
    before_some;
    comparable_some = acc.comparable;
    incomparable_some = acc.incomparable;
  }

(* Every session answer is attributed to the model it was decided
   under — the per-pair outcome wrappers bump in [outcome_of]; the
   whole-trace entry points (summaries, cached blobs) bump here. *)
let bump_model t =
  Counters.bump t.c (Memmodel.counter_key (Memmodel.current ()))

let cached_summary t ~kind ~memo ~set_memo ~compute =
  Counters.bump t.c Counters.Session_queries;
  bump_model t;
  match memo with
  | Some s -> s
  | None ->
      let s =
        match lookup_cached t ~kind ~decode:(decode_summary t) with
        | Some s -> s
        | None ->
            let s = compute t in
            if cache_enabled t then store_cached t ~kind (encode_summary t s);
            s
      in
      Counters.set t.c Counters.Classes s.distinct_classes;
      set_memo s;
      s

let summary t =
  cached_summary t ~kind:"summary-full" ~memo:t.summary_memo
    ~set_memo:(fun s -> t.summary_memo <- Some s)
    ~compute:compute_summary_full

let summary_reduced t =
  cached_summary t ~kind:"summary-reduced" ~memo:t.summary_reduced_memo
    ~set_memo:(fun s -> t.summary_reduced_memo <- Some s)
    ~compute:compute_summary_reduced

let schedule_count t =
  Counters.bump t.c Counters.Session_queries;
  Reach.schedule_count (reach t)

let cached_blob t ~kind produce =
  Counters.bump t.c Counters.Session_queries;
  bump_model t;
  match lookup_cached t ~kind ~decode:(fun p -> Some p) with
  | Some payload -> payload
  | None ->
      let payload = produce () in
      store_cached t ~kind payload;
      payload

(* ------------------------------------------------------------------ *)
(* Typed degradation: budget expiry never crosses this API as an
   exception.  Could-have queries degrade to [false] / [None] — a sound
   under-report, the same direction as a [?limit] hit — while must-have
   queries degrade to [true], a sound over-approximation.  Either way
   the partial answer errs on the side the relation's contract already
   allows, and the [outcome] type says which kind of answer this is. *)

let degraded t v =
  Counters.bump t.c Counters.Timeout_expirations;
  Counters.bump t.c Counters.Timeout_degraded;
  Budget.Bound_hit v

let outcome_of t ~fallback f =
  bump_model t;
  match f () with
  | v -> Budget.Exact v
  | exception Budget.Expired -> degraded t fallback

let feasible_exists_outcome t =
  outcome_of t ~fallback:true (fun () -> feasible_exists t)

let exists_before_outcome t a b =
  outcome_of t ~fallback:false (fun () -> exists_before t a b)

let witness_before_outcome t a b =
  outcome_of t ~fallback:None (fun () -> witness_before t a b)

let must_before_outcome t a b =
  if a = b then Budget.Exact false
  else outcome_of t ~fallback:true (fun () -> must_before t a b)

let exists_race_outcome t a b =
  outcome_of t ~fallback:false (fun () -> exists_race t a b)

let schedule_count_outcome t =
  outcome_of t ~fallback:0 (fun () -> schedule_count t)

(* Summaries truncate internally (enumeration stops like a [?limit]
   hit) rather than raising, so the outcome is read off the record's
   own [truncated] flag. *)
let summary_mark t s =
  if s.truncated then begin
    if Budget.exhausted t.budget then
      Counters.bump t.c Counters.Timeout_degraded;
    Budget.Bound_hit s
  end
  else Budget.Exact s

let summary_outcome t = summary_mark t (summary t)
let summary_reduced_outcome t = summary_mark t (summary_reduced t)

(* The plain (bool-returning) query API is the outcome API with the
   degradation folded in — existing callers keep their signatures and
   inherit graceful expiry for free. *)
let feasible_exists t = Budget.value (feasible_exists_outcome t)
let exists_before t a b = Budget.value (exists_before_outcome t a b)
let witness_before t a b = Budget.value (witness_before_outcome t a b)
let must_before t a b = Budget.value (must_before_outcome t a b)
let exists_race t a b = Budget.value (exists_race_outcome t a b)
let schedule_count t = Budget.value (schedule_count_outcome t)
