let qcheck = QCheck_alcotest.to_alcotest

let roundtrip t =
  let t' = Trace_io.of_string (Trace_io.to_string t) in
  t'.Trace.events = t.Trace.events
  && Rel.equal t'.Trace.program_order t.Trace.program_order
  && t'.Trace.outcome = t.Trace.outcome
  && t'.Trace.var_names = t.Trace.var_names
  && t'.Trace.sem_names = t.Trace.sem_names
  && t'.Trace.sem_binary = t.Trace.sem_binary
  && t'.Trace.ev_names = t.Trace.ev_names
  && t'.Trace.sem_init = t.Trace.sem_init
  && t'.Trace.ev_init = t.Trace.ev_init
  && t'.Trace.final_store = t.Trace.final_store
  && t'.Trace.process_names = t.Trace.process_names

let test_roundtrip_fixtures () =
  List.iter
    (fun src ->
      let t = Interp.run (Parse.program src) in
      Alcotest.(check bool) ("roundtrip: " ^ src) true (roundtrip t))
    [
      "proc a { x := 1 }\nproc b { y := x }";
      "sem s = 1\nbinsem t = 0\nproc a { p(s); v(t) }\nproc b { p(t); v(s) }";
      "proc main { cobegin { post(e) } { wait(e); clear(e) } coend }";
      "proc main { l: skip; if 1 = 1 { x := 1 } else { skip } }";
      (* Deadlocking program: outcome must round-trip too. *)
      "sem s = 0\nproc a { p(s) }";
    ]

let test_label_quoting () =
  let t =
    Interp.run (Parse.program "proc a { weird := 1 + 2 * 3 }")
  in
  Alcotest.(check bool) "labels with spaces survive" true (roundtrip t);
  (* A label with embedded quotes/backslashes via the event constructor. *)
  let e =
    Event.make ~id:0 ~pid:0 ~seq:0 ~kind:Event.Computation
      ~label:"say \"hi\" \\ there\nnewline" ()
  in
  let t =
    {
      Trace.events = [| e |];
      program_order = Rel.create 1;
      outcome = Trace.Completed;
      violations = [];
      var_names = [||];
      sem_names = [||];
      ev_names = [||];
      sem_init = [||];
      sem_binary = [||];
      ev_init = [||];
      final_store = [];
      process_names = [ (0, "p") ];
    }
  in
  Alcotest.(check bool) "escapes survive" true (roundtrip t)

let test_analysis_equivalence () =
  (* The analysis of a reloaded trace matches the original. *)
  let t = Interp.run (Parse.program
    "sem s = 0\nproc a { x := 1; v(s) }\nproc b { p(s); y := x }") in
  let t' = Trace_io.of_string (Trace_io.to_string t) in
  let s = Relations.compute (Skeleton.of_execution (Trace.to_execution t)) in
  let s' = Relations.compute (Skeleton.of_execution (Trace.to_execution t')) in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Relations.relation_name r)
        true
        (Rel.equal (Relations.to_rel s r) (Relations.to_rel s' r)))
    Relations.all_relations

let expect_failure name text =
  Alcotest.test_case name `Quick (fun () ->
      match Trace_io.of_string text with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected parse failure")

let test_comment_after_label () =
  (* A comment may follow a quoted label; a '#' inside a label is part
     of it, and survives a round trip. *)
  let header =
    "eotrace 1\noutcome completed\nvars x\nsems\nevents\nsem_init\nev_init\n\
     process 0 p\n"
  in
  let plain =
    Trace_io.of_string
      (header ^ "event 0 0 0 computation \"w\" reads  writes 0\n")
  in
  let commented =
    Trace_io.of_string
      (header ^ "event 0 0 0 computation \"w\" reads  writes 0   # note\n")
  in
  Alcotest.(check bool) "comment after a label is ignored" true
    (roundtrip plain && plain.Trace.events = commented.Trace.events);
  let hashed =
    Trace_io.of_string
      (header
     ^ "event 0 0 0 computation \"w # not a comment\" reads writes 0 #c\n")
  in
  Alcotest.(check string) "'#' inside a label is kept" "w # not a comment"
    hashed.Trace.events.(0).Event.label;
  Alcotest.(check bool) "labels holding '#' round-trip" true (roundtrip hashed)

(* ------------------------------------------------------------------ *)
(* The span scanner against the reference tokenizer and parser. *)

let outcome f = match f () with d -> Ok d | exception Failure m -> Error m

(* Lines near and inside the grammar: well-formed directives with some
   tokens swapped for noise, and token soup, joined by spaces, tabs and
   runs of blanks, with optional leading blanks and trailing blanks or
   comments. *)
let line_gen =
  let open QCheck.Gen in
  let int_tok =
    frequency
      [
        (4, map string_of_int (int_range (-3) 40));
        ( 1,
          oneofl
            [
              "0x1f"; "0b101"; "0o17"; "0u12"; "1_000"; "_1"; "1_"; "+3"; "-";
              "007"; "-0"; "1e3"; "99999999999999999999";
              "4611686018427387903"; "4611686018427387904";
              "-4611686018427387904"; "0x7fffffffffffffff";
              "123456789012345678"; "1234567890123456789";
              "9223372036854775808"; "18446744073709551616";
            ] );
      ]
  in
  let quoted =
    let piece =
      oneofl
        [
          "a"; "b"; " "; "  "; "#"; "\t"; "*"; "w"; "'";
          "\\\""; "\\\\"; "\\n"; "\\x";
        ]
    in
    map2
      (fun pieces close -> "\"" ^ String.concat "" pieces ^ close)
      (list_size (int_bound 5) piece)
      (frequency [ (12, return "\""); (1, return ""); (1, return "\\") ])
  in
  let word =
    oneofl
      [
        "event"; "po"; "eotrace"; "outcome"; "vars"; "sems"; "events";
        "sem_init"; "ev_init"; "process"; "violation"; "final"; "completed";
        "fuel_exhausted"; "deadlocked"; "computation"; "sem_p"; "sem_v";
        "post"; "wait"; "clear"; "fork"; "join"; "reads"; "writes"; "1"; "0";
        "x"; "s*"; "*"; "bogus"; "#"; "#c"; "a#b"; "\"po\""; "\"1\""; "x\ty";
      ]
  in
  let noise = frequency [ (3, word); (2, int_tok); (1, quoted) ] in
  let maybe_noise tok = frequency [ (12, return tok); (1, noise) ] in
  let kind =
    frequency
      [
        (3, return [ "computation" ]);
        ( 3,
          map2
            (fun k a -> [ k; a ])
            (oneofl [ "sem_p"; "sem_v"; "post"; "wait"; "clear" ])
            int_tok );
        (1, map (fun k -> [ k ]) (oneofl [ "fork"; "join" ]));
        (1, map (fun w -> [ w ]) noise);
      ]
  in
  let event =
    int_tok >>= fun id ->
    int_tok >>= fun pid ->
    int_tok >>= fun seq ->
    kind >>= fun kind ->
    quoted >>= fun label ->
    list_size (int_bound 3) int_tok >>= fun reads ->
    list_size (int_bound 3) int_tok >>= fun writes ->
    flatten_l
      (List.map maybe_noise
         ([ "event"; id; pid; seq ] @ kind @ [ label; "reads" ] @ reads
         @ ("writes" :: writes)))
  in
  let directive =
    oneof
      [
        map2 (fun a b -> [ "po"; a; b ]) int_tok int_tok;
        map2 (fun p n -> [ "process"; p; n ]) int_tok (oneof [ word; quoted ]);
        map2 (fun x v -> [ "final"; x; v ]) word int_tok;
        map (fun v -> [ "violation"; v ]) int_tok;
        map (fun vs -> "sem_init" :: vs) (list_size (int_bound 4) int_tok);
        map (fun vs -> "ev_init" :: vs) (list_size (int_bound 4) int_tok);
        map (fun ns -> "sems" :: ns) (list_size (int_bound 4) word);
        map
          (fun ps -> "outcome" :: "deadlocked" :: ps)
          (list_size (int_bound 3) int_tok);
        map (fun t -> [ "outcome"; t ]) word;
        map (fun v -> [ "eotrace"; v ]) int_tok;
      ]
    >>= fun toks -> flatten_l (List.map maybe_noise toks)
  in
  let soup = list_size (int_bound 7) noise in
  let sep =
    frequency [ (8, return " "); (1, oneofl [ "  "; "\t"; " \t "; "\r" ]) ]
  in
  let edge = oneofl [ ""; ""; ""; " "; "\t"; "  "; "\r" ] in
  let trailer =
    oneofl
      [
        ""; ""; ""; " "; "\t"; " \t"; "\r"; "  # note"; " #"; "#x \"q\"";
        "\t# c";
      ]
  in
  frequency [ (4, event); (3, directive); (2, soup) ] >>= fun toks ->
  let rec join = function
    | [] -> return ""
    | [ t ] -> return t
    | t :: rest -> map2 (fun s r -> t ^ s ^ r) sep (join rest)
  in
  map3 (fun lead body trail -> lead ^ body ^ trail) edge (join toks) trailer

let prop_scanner_matches_reference =
  QCheck.Test.make ~name:"span scanner = reference tokenizer and parser"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") line_gen)
    (fun line ->
      outcome (fun () -> Trace_io.parse_line ~lineno:7 line)
      = outcome (fun () -> Ref_trace_io.parse_line ~lineno:7 line))

let prop_random_roundtrip =
  QCheck.Test.make ~name:"random program traces roundtrip" ~count:100
    Gen_progs.arbitrary_program (fun prog ->
      roundtrip (Interp.run prog))

let suite =
  [
    Alcotest.test_case "fixture roundtrips" `Quick test_roundtrip_fixtures;
    Alcotest.test_case "label quoting" `Quick test_label_quoting;
    Alcotest.test_case "analysis equivalence" `Quick test_analysis_equivalence;
    expect_failure "missing header" "outcome completed\n";
    expect_failure "bad version" "eotrace 2\noutcome completed\n";
    expect_failure "unknown directive" "eotrace 1\noutcome completed\nbogus 1\n";
    expect_failure "missing outcome" "eotrace 1\nvars\n";
    expect_failure "bad event kind"
      "eotrace 1\noutcome completed\nevent 0 0 0 zap \"l\" reads writes\n";
    expect_failure "po edge out of range"
      "eotrace 1\noutcome completed\nevent 0 0 0 computation \"l\" reads writes\n\
       po 0 1\n";
    expect_failure "sem_init shorter than sems"
      "eotrace 1\noutcome completed\nsems s\nevent 0 0 0 sem_v 0 \"V\" reads writes\n";
    expect_failure "event variable out of range"
      "eotrace 1\noutcome completed\nevent 0 0 0 post 0 \"P\" reads writes\n";
    expect_failure "non-dense ids"
      "eotrace 1\noutcome completed\nevent 1 0 0 computation \"l\" reads writes\n";
    qcheck prop_random_roundtrip;
    Alcotest.test_case "comment after a quoted label" `Quick
      test_comment_after_label;
    qcheck prop_scanner_matches_reference;
  ]
