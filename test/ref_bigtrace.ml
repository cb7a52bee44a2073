(* Reference implementation of the streaming race candidates: the
   Hashtbl-keyed sweep the library used before its flat one, kept as the
   oracle the flat sweep is differentially tested against (same output,
   including the truncation point under [max_candidates]). *)

exception Cap_hit

let conflicting_pairs ?(max_candidates = max_int) t =
  let num_vars = Array.length t.Bigtrace.var_names in
  let pairs : (int * int, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let count = ref 0 in
  let truncated = ref false in
  let add a b v =
    let key = if a < b then (a, b) else (b, a) in
    match Hashtbl.find_opt pairs key with
    | Some vars -> vars := v :: !vars
    | None ->
        if !count >= max_candidates then begin
          truncated := true;
          raise Cap_hit
        end;
        incr count;
        Hashtbl.add pairs key (ref [ v ])
  in
  (* Per variable, computation touches seen so far (id order). *)
  let writers = Array.make num_vars [] in
  let readers = Array.make num_vars [] in
  (try
     Array.iteri
       (fun e ev ->
         if Event.is_computation ev then begin
           let pid = ev.Event.pid in
           List.iter
             (fun v ->
               if v >= 0 && v < num_vars then
                 List.iter
                   (fun (w, wpid) -> if wpid <> pid then add w e v)
                   writers.(v))
             ev.Event.reads;
           List.iter
             (fun v ->
               if v >= 0 && v < num_vars then begin
                 List.iter
                   (fun (w, wpid) -> if wpid <> pid then add w e v)
                   writers.(v);
                 List.iter
                   (fun (r, rpid) -> if rpid <> pid then add r e v)
                   readers.(v)
               end)
             ev.Event.writes;
           List.iter
             (fun v ->
               if v >= 0 && v < num_vars then
                 readers.(v) <- (e, pid) :: readers.(v))
             ev.Event.reads;
           List.iter
             (fun v ->
               if v >= 0 && v < num_vars then
                 writers.(v) <- (e, pid) :: writers.(v))
             ev.Event.writes
         end)
       t.Bigtrace.events
   with Cap_hit -> ());
  let out =
    Hashtbl.fold
      (fun (a, b) vars acc ->
        (a, b, List.sort_uniq compare !vars) :: acc)
      pairs []
  in
  (List.sort compare out, !truncated)

