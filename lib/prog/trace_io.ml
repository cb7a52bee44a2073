let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let kind_tokens = function
  | Event.Computation -> [ "computation" ]
  | Event.Sync (Event.Sem_p s) -> [ "sem_p"; string_of_int s ]
  | Event.Sync (Event.Sem_v s) -> [ "sem_v"; string_of_int s ]
  | Event.Sync (Event.Post v) -> [ "post"; string_of_int v ]
  | Event.Sync (Event.Wait v) -> [ "wait"; string_of_int v ]
  | Event.Sync (Event.Clear v) -> [ "clear"; string_of_int v ]
  | Event.Sync Event.Fork -> [ "fork" ]
  | Event.Sync Event.Join -> [ "join" ]

let to_string (t : Trace.t) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "eotrace 1";
  (match t.Trace.outcome with
  | Trace.Completed -> line "outcome completed"
  | Trace.Fuel_exhausted -> line "outcome fuel_exhausted"
  | Trace.Deadlocked pids ->
      line "outcome deadlocked %s"
        (String.concat " " (List.map string_of_int pids)));
  line "vars %s" (String.concat " " (Array.to_list t.Trace.var_names));
  line "sems %s"
    (String.concat " "
       (List.mapi
          (fun i name -> if t.Trace.sem_binary.(i) then name ^ "*" else name)
          (Array.to_list t.Trace.sem_names)));
  line "events %s" (String.concat " " (Array.to_list t.Trace.ev_names));
  line "sem_init %s"
    (String.concat " " (List.map string_of_int (Array.to_list t.Trace.sem_init)));
  line "ev_init %s"
    (String.concat " "
       (List.map (fun v -> if v then "1" else "0") (Array.to_list t.Trace.ev_init)));
  List.iter
    (fun (pid, name) -> line "process %d %s" pid name)
    t.Trace.process_names;
  Array.iter
    (fun e ->
      line "event %d %d %d %s %s reads %s writes %s" e.Event.id e.Event.pid
        e.Event.seq
        (String.concat " " (kind_tokens e.Event.kind))
        (quote e.Event.label)
        (String.concat " " (List.map string_of_int e.Event.reads))
        (String.concat " " (List.map string_of_int e.Event.writes)))
    t.Trace.events;
  Rel.iter (fun a b -> line "po %d %d" a b) t.Trace.program_order;
  List.iter (fun e -> line "violation %d" e) t.Trace.violations;
  List.iter (fun (x, v) -> line "final %s %d" x v) t.Trace.final_store;
  Buffer.contents b


(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)
(* ------------------------------------------------------------------ *)

(* One parsed line of the eotrace format.  The readers consume
   directives one at a time and never hold the whole file in memory. *)
type directive =
  | D_blank
  | D_header
  | D_outcome of Trace.outcome
  | D_vars of string array
  | D_sems of string array * bool array
  | D_events of string array
  | D_sem_init of int array
  | D_ev_init of bool array
  | D_process of int * string
  | D_event of Event.t
  | D_po of int * int
  | D_violation of int
  | D_final of string * int

(* A cursor over the token spans of one line of a byte buffer.  Each
   line is split into spans in place; strings are cut out of the buffer
   only for names and labels, and integers are read where they lie, so
   a 10^6-event load allocates little beyond the events themselves. *)
type scanner = {
  mutable buf : Bytes.t;
  mutable lineno : int;
  mutable ntok : int;
  mutable tstart : int array;
  mutable tstop : int array;
  mutable tesc : bool array;  (* quoted span holding backslash escapes *)
  mutable ints : int array;  (* an event's reads then writes *)
  labels : string array;  (* direct-mapped label cache *)
}

let label_slots = 256

let new_scanner buf =
  {
    buf;
    lineno = 0;
    ntok = 0;
    tstart = Array.make 16 0;
    tstop = Array.make 16 0;
    tesc = Array.make 16 false;
    ints = Array.make 16 0;
    labels = Array.make label_slots "";
  }

let fail sc fmt =
  Printf.ksprintf
    (fun s -> failwith (Printf.sprintf "line %d: %s" sc.lineno s))
    fmt

let grow a fill =
  let a' = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let push_token sc ts te esc =
  if sc.ntok = Array.length sc.tstart then begin
    sc.tstart <- grow sc.tstart 0;
    sc.tstop <- grow sc.tstop 0;
    sc.tesc <- grow sc.tesc false
  end;
  sc.tstart.(sc.ntok) <- ts;
  sc.tstop.(sc.ntok) <- te;
  sc.tesc.(sc.ntok) <- esc;
  sc.ntok <- sc.ntok + 1

let[@inline] is_blank = function
  | ' ' | '\t' | '\n' | '\r' | '\012' -> true
  | _ -> false

(* Splits the line [s, e) of the buffer into tokens: space-separated,
   a token opening with a double quote runs to the closing quote
   (backslash escapes), and a [#] outside a quoted token starts a
   comment.  Blanks (as [String.trim] counts them) are dropped from
   both ends of what precedes the comment; inside the line only spaces
   separate tokens. *)
let tokenize sc s e =
  let b = sc.buf in
  sc.ntok <- 0;
  let i = ref s in
  while !i < e && is_blank (Bytes.unsafe_get b !i) do incr i done;
  let stop = ref e in
  while !i < !stop do
    match Bytes.unsafe_get b !i with
    | ' ' -> incr i
    | '#' -> stop := !i
    | '"' ->
        let j = ref (!i + 1) and esc = ref false in
        while !j < e && Bytes.unsafe_get b !j <> '"' do
          if Bytes.unsafe_get b !j = '\\' && !j + 1 < e then begin
            esc := true;
            j := !j + 2
          end
          else incr j
        done;
        if !j >= e then fail sc "unterminated string";
        push_token sc (!i + 1) !j !esc;
        i := !j + 1
    | _ ->
        let j = ref !i in
        while
          !j < e
          &&
          let c = Bytes.unsafe_get b !j in
          c <> ' ' && c <> '#'
        do
          incr j
        done;
        let k = ref !j in
        while !k < e && is_blank (Bytes.unsafe_get b !k) do incr k done;
        if !k < e && Bytes.unsafe_get b !k <> '#' then begin
          push_token sc !i !j false;
          i := !j
        end
        else begin
          (* The last token: trailing blanks are not part of it. *)
          let te = ref !j in
          while !te > !i && is_blank (Bytes.unsafe_get b (!te - 1)) do
            decr te
          done;
          if !te > !i then push_token sc !i !te false;
          stop := !i
        end
  done

let tok_string sc k =
  let s = sc.tstart.(k) and e = sc.tstop.(k) in
  if not sc.tesc.(k) then Bytes.sub_string sc.buf s (e - s)
  else begin
    let out = Buffer.create (e - s) in
    let i = ref s in
    while !i < e do
      (match Bytes.get sc.buf !i with
      | '\\' ->
          incr i;
          Buffer.add_char out
            (match Bytes.get sc.buf !i with 'n' -> '\n' | c -> c)
      | c -> Buffer.add_char out c);
      incr i
    done;
    Buffer.contents out
  end

let rec bytes_match buf s lit i len =
  i >= len
  || Bytes.unsafe_get buf (s + i) = String.unsafe_get lit i
     && bytes_match buf s lit (i + 1) len

let span_equals sc s e lit =
  e - s = String.length lit && bytes_match sc.buf s lit 0 (e - s)

let tok_is sc k lit =
  if sc.tesc.(k) then tok_string sc k = lit
  else span_equals sc sc.tstart.(k) sc.tstop.(k) lit

(* The decimal value of the digits [i, e) of [b] on top of [acc]; [-1]
   at a non-digit. *)
let rec decimal b e i acc =
  if i >= e then acc
  else
    match Bytes.unsafe_get b i with
    | '0' .. '9' as c -> decimal b e (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* Integers as [int_of_string] reads them; plain decimals of up to 18
   digits (which cannot overflow) are read in place. *)
let tok_int sc k =
  let b = sc.buf and s = sc.tstart.(k) and e = sc.tstop.(k) in
  let neg = e > s && Bytes.unsafe_get b s = '-' in
  let d = if neg then s + 1 else s in
  let v =
    if sc.tesc.(k) || e - d < 1 || e - d > 18 then -1 else decimal b e d 0
  in
  if v >= 0 then if neg then -v else v
  else
    let tok = tok_string sc k in
    match int_of_string_opt tok with
    | Some i -> i
    | None -> fail sc "expected integer, got %S" tok

(* A recorded trace names its events after a handful of statements, so
   labels go through a small direct-mapped cache: a hit shares the
   string instead of allocating one per event. *)
let tok_label sc k =
  if sc.tesc.(k) then tok_string sc k
  else
    let s = sc.tstart.(k) and e = sc.tstop.(k) in
    let h = ref 0 in
    for i = s to e - 1 do
      h := (!h * 31) + Char.code (Bytes.unsafe_get sc.buf i)
    done;
    let slot = !h land (label_slots - 1) in
    let cached = sc.labels.(slot) in
    if span_equals sc s e cached then cached
    else
      let l = Bytes.sub_string sc.buf s (e - s) in
      sc.labels.(slot) <- l;
      l

(* [ints.(lo) .. ints.(i)] in order, in front of [acc]. *)
let rec int_list ints lo i acc =
  if i < lo then acc else int_list ints lo (i - 1) (ints.(i) :: acc)

let push_int sc i v =
  if i = Array.length sc.ints then sc.ints <- grow sc.ints 0;
  sc.ints.(i) <- v

let sync_kind sc op =
  if sc.ntok <= 5 then fail sc "bad event kind";
  Event.Sync (op (tok_int sc 5))

(* [event ID PID SEQ KIND [ARG] LABEL reads V* writes V*].  Integers
   are converted in the order the format's diagnostics have always
   reported them: the kind argument, reads and writes left to right,
   then seq, pid and id. *)
let parse_event sc =
  let n = sc.ntok in
  let kind =
    if n <= 4 then fail sc "bad event kind"
    else if tok_is sc 4 "computation" then Event.Computation
    else if tok_is sc 4 "sem_p" then sync_kind sc (fun s -> Event.Sem_p s)
    else if tok_is sc 4 "sem_v" then sync_kind sc (fun s -> Event.Sem_v s)
    else if tok_is sc 4 "post" then sync_kind sc (fun v -> Event.Post v)
    else if tok_is sc 4 "wait" then sync_kind sc (fun v -> Event.Wait v)
    else if tok_is sc 4 "clear" then sync_kind sc (fun v -> Event.Clear v)
    else if tok_is sc 4 "fork" then Event.Sync Event.Fork
    else if tok_is sc 4 "join" then Event.Sync Event.Join
    else fail sc "bad event kind"
  in
  (* The label follows the kind and its argument, if any. *)
  let k =
    match kind with
    | Event.Computation | Event.Sync (Event.Fork | Event.Join) -> 5
    | Event.Sync _ -> 6
  in
  if k >= n then fail sc "missing label";
  let label = tok_label sc k in
  if k + 1 >= n || not (tok_is sc (k + 1) "reads") then fail sc "missing reads";
  let j = ref (k + 2) in
  while !j < n && not (tok_is sc !j "writes") do
    push_int sc (!j - k - 2) (tok_int sc !j);
    incr j
  done;
  if !j >= n then fail sc "missing writes";
  let nreads = !j - k - 2 in
  for w = !j + 1 to n - 1 do
    push_int sc (nreads + w - !j - 1) (tok_int sc w)
  done;
  let nints = nreads + n - !j - 1 in
  let seq = tok_int sc 3 in
  let pid = tok_int sc 2 in
  let id = tok_int sc 1 in
  D_event
    {
      Event.id;
      pid;
      seq;
      kind;
      label;
      reads = int_list sc.ints 0 (nreads - 1) [];
      writes = int_list sc.ints nreads (nints - 1) [];
    }

(* Every directive but [event] and [po]. *)
let parse_header sc =
  let n = sc.ntok in
  let is k lit = tok_is sc k lit in
  let from k f = Array.init (n - k) (fun i -> f (k + i)) in
  if is 0 "eotrace" then
    if n = 2 && is 1 "1" then D_header else fail sc "unsupported version"
  else if is 0 "outcome" then
    D_outcome
      (if n = 2 && is 1 "completed" then Trace.Completed
       else if n = 2 && is 1 "fuel_exhausted" then Trace.Fuel_exhausted
       else if n >= 2 && is 1 "deadlocked" then
         Trace.Deadlocked (Array.to_list (from 2 (tok_int sc)))
       else fail sc "bad outcome")
  else if is 0 "vars" then D_vars (from 1 (tok_string sc))
  else if is 0 "sems" then
    let names = from 1 (tok_string sc) in
    let binary =
      Array.map (fun s -> s <> "" && s.[String.length s - 1] = '*') names
    in
    D_sems
      ( Array.mapi
          (fun i s ->
            if binary.(i) then String.sub s 0 (String.length s - 1) else s)
          names,
        binary )
  else if is 0 "events" then D_events (from 1 (tok_string sc))
  else if is 0 "sem_init" then D_sem_init (from 1 (tok_int sc))
  else if is 0 "ev_init" then D_ev_init (from 1 (fun k -> is k "1"))
  else if is 0 "process" && n = 3 then
    let pid = tok_int sc 1 in
    D_process (pid, tok_string sc 2)
  else if is 0 "violation" && n = 2 then D_violation (tok_int sc 1)
  else if is 0 "final" && n = 3 then
    let v = tok_int sc 2 in
    D_final (tok_string sc 1, v)
  else fail sc "unknown directive %S" (tok_string sc 0)

let parse_tokens sc =
  let n = sc.ntok in
  if n = 0 then D_blank
  else if tok_is sc 0 "event" && n >= 4 then parse_event sc
  else if tok_is sc 0 "po" && n = 3 then
    let b = tok_int sc 2 in
    let a = tok_int sc 1 in
    D_po (a, b)
  else parse_header sc

let parse_line ~lineno raw =
  let sc = new_scanner (Bytes.unsafe_of_string raw) in
  sc.lineno <- lineno;
  tokenize sc 0 (String.length raw);
  parse_tokens sc

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

type parts = {
  events : Event.t array;
  po_src : int array;
  po_dst : int array;
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

(* A growable array. *)
type 'a column = { mutable items : 'a array; mutable len : int }

let new_column () = { items = [||]; len = 0 }

let column_push c x =
  if c.len = Array.length c.items then c.items <- grow c.items x;
  c.items.(c.len) <- x;
  c.len <- c.len + 1

let column_contents c = Array.sub c.items 0 c.len

(* Trace assembly state: feed directives in file order, then [finish]. *)
type builder = {
  mutable outcome : Trace.outcome option;
  mutable var_names : string array;
  mutable sem_names : string array;
  mutable sem_binary : bool array;
  mutable ev_names : string array;
  mutable sem_init : int array;
  mutable ev_init : bool array;
  mutable processes : (int * string) list;
  events : Event.t column;
  mutable in_order : bool;  (* every event so far arrived at its id's slot *)
  po_src : int column;
  po_dst : int column;
  mutable violations : int list;
  mutable final : (string * int) list;
  mutable saw_header : bool;
}

let new_builder () =
  {
    outcome = None;
    var_names = [||];
    sem_names = [||];
    sem_binary = [||];
    ev_names = [||];
    sem_init = [||];
    ev_init = [||];
    processes = [];
    events = new_column ();
    in_order = true;
    po_src = new_column ();
    po_dst = new_column ();
    violations = [];
    final = [];
    saw_header = false;
  }

let feed b = function
  | D_blank -> ()
  | D_header -> b.saw_header <- true
  | D_outcome o -> b.outcome <- Some o
  | D_vars names -> b.var_names <- names
  | D_sems (names, binary) ->
      b.sem_names <- names;
      b.sem_binary <- binary
  | D_events names -> b.ev_names <- names
  | D_sem_init values -> b.sem_init <- values
  | D_ev_init values -> b.ev_init <- values
  | D_process (pid, name) -> b.processes <- (pid, name) :: b.processes
  | D_event e ->
      if e.Event.id <> b.events.len then b.in_order <- false;
      column_push b.events e
  | D_po (x, y) ->
      column_push b.po_src x;
      column_push b.po_dst y
  | D_violation e -> b.violations <- e :: b.violations
  | D_final (x, v) -> b.final <- (x, v) :: b.final

(* Events in id order.  A file written in schedule order needs no
   sorting; otherwise each event is placed at its id's slot, which
   fails unless the ids are exactly 0..n-1. *)
let dense_events b =
  let events = column_contents b.events in
  if b.in_order then events
  else begin
    let n = Array.length events in
    let placed = Array.make n None in
    Array.iter
      (fun e ->
        let id = e.Event.id in
        if id < 0 || id >= n || placed.(id) <> None then
          failwith "event ids are not dense from 0";
        placed.(id) <- Some e)
      events;
    Array.map Option.get placed
  end

(* The id-range rule: every variable, semaphore and event-variable id
   an event names is declared, and every declared semaphore and event
   variable has an initial value. *)
let check_ids b events =
  let nvars = Array.length b.var_names
  and nsems = Array.length b.sem_names
  and nevs = Array.length b.ev_names in
  if Array.length b.sem_init <> nsems then
    failwith
      (Printf.sprintf "sem_init lists %d values for %d semaphores"
         (Array.length b.sem_init) nsems);
  if Array.length b.ev_init <> nevs then
    failwith
      (Printf.sprintf "ev_init lists %d values for %d event variables"
         (Array.length b.ev_init) nevs);
  let check e what id bound =
    if id < 0 || id >= bound then
      failwith
        (Printf.sprintf "event %d: %s id %d out of range (%d declared)"
           e.Event.id what id bound)
  in
  Array.iter
    (fun e ->
      List.iter (fun v -> check e "variable" v nvars) e.Event.reads;
      List.iter (fun v -> check e "variable" v nvars) e.Event.writes;
      match e.Event.kind with
      | Event.Sync (Event.Sem_p s | Event.Sem_v s) ->
          check e "semaphore" s nsems
      | Event.Sync (Event.Post v | Event.Wait v | Event.Clear v) ->
          check e "event variable" v nevs
      | Event.Computation | Event.Sync (Event.Fork | Event.Join) -> ())
    events

let finish b =
  if not b.saw_header then failwith "missing 'eotrace 1' header";
  let outcome =
    match b.outcome with Some o -> o | None -> failwith "missing outcome line"
  in
  let events = dense_events b in
  let n = Array.length events in
  let po_src = column_contents b.po_src and po_dst = column_contents b.po_dst in
  Array.iteri
    (fun i a ->
      let c = po_dst.(i) in
      if a < 0 || a >= n || c < 0 || c >= n then
        failwith (Printf.sprintf "po %d %d: event id out of range" a c))
    po_src;
  check_ids b events;
  {
    events;
    po_src;
    po_dst;
    outcome;
    violations = List.rev b.violations;
    var_names = b.var_names;
    sem_names = b.sem_names;
    ev_names = b.ev_names;
    sem_init = b.sem_init;
    sem_binary = b.sem_binary;
    ev_init = b.ev_init;
    final_store = List.rev b.final;
    process_names = List.rev b.processes;
  }

(* Feeds every line of the buffer's [0, len) region that ends in a
   newline (and, when [last], the unterminated tail) to the builder.
   The newline search resumes at [from], the end of what an earlier
   call already searched.  Returns where the unconsumed tail starts. *)
let scan_lines sc b ~last ~from len =
  let buf = sc.buf in
  let s = ref 0 in
  for j = from to len - 1 do
    if Bytes.unsafe_get buf j = '\n' then begin
      sc.lineno <- sc.lineno + 1;
      tokenize sc !s j;
      feed b (parse_tokens sc);
      s := j + 1
    end
  done;
  if last && !s < len then begin
    sc.lineno <- sc.lineno + 1;
    tokenize sc !s len;
    feed b (parse_tokens sc);
    s := len
  end;
  !s

let parts_of_string text =
  let b = new_builder () in
  let sc = new_scanner (Bytes.unsafe_of_string text) in
  ignore (scan_lines sc b ~last:true ~from:0 (String.length text));
  finish b

(* Streams the file through a fixed buffer (grown only for a line
   longer than it): peak memory is the buffer plus the builder's
   accumulated events, never the whole file. *)
let read_parts path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = new_builder () in
      let sc = new_scanner (Bytes.create 65536) in
      let len = ref 0 and eof = ref false in
      while not !eof do
        if !len = Bytes.length sc.buf then begin
          let bigger = Bytes.create (2 * !len) in
          Bytes.blit sc.buf 0 bigger 0 !len;
          sc.buf <- bigger
        end;
        let got = input ic sc.buf !len (Bytes.length sc.buf - !len) in
        eof := got = 0;
        let s = scan_lines sc b ~last:!eof ~from:!len (!len + got) in
        len := !len + got - s;
        Bytes.blit sc.buf s sc.buf 0 !len
      done;
      finish b)

let trace_of_parts (p : parts) =
  let n = Array.length p.events in
  let program_order = Rel.create n in
  Array.iteri (fun i a -> Rel.add program_order a p.po_dst.(i)) p.po_src;
  {
    Trace.events = p.events;
    program_order;
    outcome = p.outcome;
    violations = p.violations;
    var_names = p.var_names;
    sem_names = p.sem_names;
    ev_names = p.ev_names;
    sem_init = p.sem_init;
    sem_binary = p.sem_binary;
    ev_init = p.ev_init;
    final_store = p.final_store;
    process_names = p.process_names;
  }

let of_string text = trace_of_parts (parts_of_string text)
let load path = trace_of_parts (read_parts path)

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc
