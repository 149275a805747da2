(* Determinism self-check of the benchmark at a tiny scale: the exact
   metrics repeat for one seed, another seed gives another trace, and
   every metric is printed by name with the unit BENCHMARK.json
   declares. *)

open Perfbench

let check = Alcotest.check

let setup name ~seed =
  fst (Workloads.setup (Spans.create ~enabled:false) (Workloads.tiny name) ~seed)

(* Everything a run produces that does not depend on the wall clock:
   judged counts, minor words, and the merged telemetry JSON (the
   serve session's virtual update-apply quantiles among it). *)
let exact name ~seed =
  let spec = Workloads.tiny name in
  let inputs, ready = Workloads.setup (Spans.create ~enabled:false) spec ~seed in
  let r = Workloads.run_once inputs ready in
  let c = r.Workloads.counts in
  ( [ c.Harness.Replay.c_packets; c.Harness.Replay.c_connections; c.Harness.Replay.c_broken ],
    r.Workloads.gc.Workloads.words,
    r.Workloads.json )

(* netwide-failover replays on worker Domains, whose spawn and join
   allocate a varying amount: at this scale its minor words agree only
   within a few percent (at full scale, within 0.1%). *)
let same_seed_same_metrics name () =
  let counts1, words1, json1 = exact name ~seed:7 and counts2, words2, json2 = exact name ~seed:7 in
  check Alcotest.(list int) "counts" counts1 counts2;
  if String.equal name "netwide-failover" then
    check Alcotest.bool "minor words within 5%" true (Float.abs (words1 -. words2) <= 0.05 *. words1)
  else check (Alcotest.float 0.) "minor words" words1 words2;
  check Alcotest.string "telemetry JSON" json1 json2

let other_seed_other_trace name () =
  let a = setup name ~seed:7 and b = setup name ~seed:8 in
  let fingerprint (i : Workloads.inputs) =
    let t = i.Workloads.trace in
    (Array.to_list t.Harness.Packed_trace.times, Array.map Netcore.Five_tuple.to_string t.Harness.Packed_trace.flow_tuples)
  in
  check Alcotest.bool "traces differ" false (fingerprint a = fingerprint b)

let declared key =
  let doc =
    match Telemetry.Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  match Telemetry.Json.member key doc with
  | Some (Telemetry.Json.List xs) ->
    List.map
      (fun x ->
        match (Telemetry.Json.member "name" x, Telemetry.Json.member "unit" x) with
        | Some (Telemetry.Json.String n), Some (Telemetry.Json.String u) -> (n, u)
        | _ -> Alcotest.failf "%s entry without name/unit" key)
      xs
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let printed_with_units key ~traced name () =
  let o = Workloads.execute (Workloads.tiny name) ~seed:3 ~seconds:0. ~traced in
  List.iter (fun (n, ok) -> check Alcotest.bool n true ok) o.Workloads.checks;
  let metrics = if traced then o.Workloads.layers else o.Workloads.e2e in
  check
    Alcotest.(list (pair string string))
    "names and units" (declared key)
    (List.map (fun x -> (x.Workloads.name, x.Workloads.unit_)) metrics);
  List.iter2
    (fun x line ->
      let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
      check Alcotest.string "name" x.Workloads.name (List.hd words);
      check Alcotest.string "unit" x.Workloads.unit_ (List.nth words 2))
    metrics (Workloads.metric_lines metrics)

let () =
  let per_workload f = List.map (fun w -> Alcotest.test_case w `Quick (f w)) Workloads.names in
  Alcotest.run "perfbench"
    [ ("same seed, same exact metrics", per_workload same_seed_same_metrics);
      ("other seed, other trace", per_workload other_seed_other_trace);
      ("end-to-end metrics printed with units", per_workload (printed_with_units "end_to_end" ~traced:false));
      ("per-layer metrics printed with units", per_workload (printed_with_units "per_layer" ~traced:true)) ]
