(* perfbench: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--nproc N] [--git-rev REV]

   --trace 0 prints every end-to-end metric, --trace 1 every per-layer
   metric (and writes the spans to perfbench/out/). The last line of
   standard output is the JSON result; the exit code is 1 when any
   output check failed, 2 on bad arguments. run.py supplies --nproc and
   --git-rev. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (steady|churn|serve-updates|netwide-failover) --seed N --seconds S \
     --trace 0|1 [--nproc N] [--git-rev REV]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec get key = function
    | k :: v :: _ when String.equal k key -> Some v
    | _ :: rest -> get key rest
    | [] -> None
  in
  let int_arg key = Option.bind (get key args) int_of_string_opt in
  let spec = Option.bind (get "--workload" args) Workloads.full in
  match (spec, int_arg "--seed", int_arg "--seconds", get "--trace" args) with
  | Some spec, Some seed, Some seconds, Some (("0" | "1") as t) when seconds > 0 ->
    let traced = String.equal t "1" in
    let provenance =
      [ ("workload", Telemetry.Json.String spec.Workloads.name); ("seed", Telemetry.Json.Int seed);
        ("seconds", Telemetry.Json.Int seconds); ("trace", Telemetry.Json.Bool traced);
        ("nproc", Option.fold ~none:Telemetry.Json.Null ~some:(fun n -> Telemetry.Json.Int n) (int_arg "--nproc"));
        ("recommended_domain_count", Telemetry.Json.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", Telemetry.Json.String Sys.ocaml_version);
        ("flambda", Telemetry.Json.Bool Build_info.flambda);
        ("git_rev", Telemetry.Json.String (Option.value ~default:"unknown" (get "--git-rev" args))) ]
    in
    print_endline ("provenance " ^ Telemetry.Json.to_string (Telemetry.Json.Obj provenance));
    let o = Workloads.execute spec ~seed ~seconds:(float_of_int seconds) ~traced in
    List.iter print_endline o.Workloads.notes;
    List.iter
      (fun (name, ok) -> Printf.printf "check %-4s %s\n" (if ok then "ok" else "FAIL") name)
      o.Workloads.checks;
    let metrics = if traced then o.Workloads.layers else o.Workloads.e2e in
    print_endline (if traced then "per-layer metrics (traced run):" else "end-to-end metrics:");
    List.iter print_endline (Workloads.metric_lines metrics);
    if traced then begin
      let dir = Filename.concat "perfbench" "out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" spec.Workloads.name seed) in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Telemetry.Json.to_string_pretty
               (Telemetry.Json.Obj
                  [ ("provenance", Telemetry.Json.Obj provenance);
                    ("spans", Spans.to_json o.Workloads.recorder) ]));
          output_char oc '\n');
      print_endline ("spans written to " ^ path)
    end;
    let correct = List.for_all snd o.Workloads.checks in
    let result =
      Telemetry.Json.Obj
        [ ("correct", Telemetry.Json.Bool correct); ("attempted", Telemetry.Json.Int o.Workloads.attempted);
          ("failed", Telemetry.Json.Int o.Workloads.failed);
          ( "metrics",
            Telemetry.Json.Obj
              (List.map
                 (fun x ->
                   ( x.Workloads.name,
                     Telemetry.Json.Obj
                       [ ("value", Telemetry.Json.Float x.Workloads.value);
                         ("unit", Telemetry.Json.String x.Workloads.unit_) ] ))
                 metrics) ) ]
    in
    print_endline (Telemetry.Json.to_string result);
    exit (if correct then 0 else 1)
  | _ -> usage ()
