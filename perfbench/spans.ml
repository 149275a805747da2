(* In-memory span recorder for the traced run.

   A span is one call into a layer, recorded from the benchmark's own
   code: name, start, end, parent span and the minor words allocated
   while it was open. Spans opened under one top-level span (one
   command, one flush) share that span's id as their group. Nothing is
   written until [write] at the end of the run. A disabled recorder
   runs the function and records nothing. *)

type span = {
  id : int;
  group : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  t0 : float;
  t1 : float;
  words : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** most recent first *)
  mutable next_id : int;
  mutable stack : (int * int) list;  (** open (id, group), innermost first *)
}

let create ~enabled = { enabled; spans = []; next_id = 0; stack = [] }

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent, group = match t.stack with [] -> (-1, id) | (p, g) :: _ -> (p, g) in
    t.stack <- (id, group) :: t.stack;
    let w0 = Gc.minor_words () in
    let t0 = Clock.now () in
    let close () =
      let t1 = Clock.now () in
      let words = Gc.minor_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.spans <- { id; group; parent; name; t0; t1; words } :: t.spans
    in
    Fun.protect ~finally:close f
  end

let spans t = List.rev t.spans

type total = {
  count : int;
  wall : float;  (** summed span durations *)
  self : float;  (** summed durations minus direct children's *)
  self_words : float;
}

let zero = { count = 0; wall = 0.; self = 0.; self_words = 0. }

(* Children run strictly inside their parent on one thread, so a
   span's self time is its duration minus the sum of its direct
   children's. *)
let totals t =
  let child_time = Hashtbl.create 64 and child_words = Hashtbl.create 64 in
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        bump child_time s.parent (s.t1 -. s.t0);
        bump child_words s.parent s.words
      end)
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      let a = Option.value ~default:zero (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name
        {
          count = a.count + 1;
          wall = a.wall +. d;
          self = a.self +. d -. get child_time;
          self_words = a.self_words +. s.words -. get child_words;
        })
    t.spans;
  fun name -> Option.value ~default:zero (Hashtbl.find_opt by_name name)

let to_json t =
  let base = match List.rev t.spans with [] -> 0. | s :: _ -> s.t0 in
  Telemetry.Json.List
    (List.map
       (fun s ->
         Telemetry.Json.Obj
           [ ("id", Telemetry.Json.Int s.id); ("group", Telemetry.Json.Int s.group);
             ("parent", Telemetry.Json.Int s.parent); ("name", Telemetry.Json.String s.name);
             ("start_s", Telemetry.Json.Float (s.t0 -. base));
             ("end_s", Telemetry.Json.Float (s.t1 -. base));
             ("minor_words", Telemetry.Json.Float s.words) ])
       (spans t))
