(* The four workloads, their measured runs and their traced runs.

   Every workload is built from the seed alone: Simnet flows (or, for
   netwide-failover, a seeded flow list) compiled into a packed trace,
   plus the serve script or the topology events. The measured phase
   calls the public entry point a user calls (Harness.Replay.run, one
   Control.Session.exec_line per script line, Netwide.Replay.run) and
   ends with the merged telemetry snapshot rendered as JSON. The traced
   run re-drives the same inputs through the layer APIs
   (Replay.Stepper, Protocol.parse + Session.exec, ...) with a span
   around each call. *)

type shape =
  | Steady of { conns_per_sec_per_vip : float; trace_seconds : float }
  | Churn of { conns_per_sec_per_vip : float; trace_seconds : float }
  | Serve of { conns_per_sec_per_vip : float; updates : int }
  | Netwide of { flows : int }

type spec = {
  name : string;
  shape : shape;
}

(* Set-up runs [setup_reps] times (setup_s is the median); measured
   repetitions run until --seconds have passed, at least [min_reps] and
   at most [max_reps] of them. *)
let setup_reps = 5
let min_reps = 5
let max_reps = 30

let names = [ "steady"; "churn"; "serve-updates"; "netwide-failover" ]

(* Sized so that one run of each workload, set-up and checks included,
   takes 20-30 s on a 2-core host (see README.md). *)
let full name =
  let spec shape = Some { name; shape } in
  match name with
  | "steady" -> spec (Steady { conns_per_sec_per_vip = 750.; trace_seconds = 50. })
  | "churn" -> spec (Churn { conns_per_sec_per_vip = 4000.; trace_seconds = 10. })
  | "serve-updates" -> spec (Serve { conns_per_sec_per_vip = 250.; updates = 1200 })
  | "netwide-failover" -> spec (Netwide { flows = 36_000 })
  | _ -> None

(* The same shapes at a scale the unit test can afford. *)
let tiny name =
  let shape =
    match name with
    | "steady" -> Steady { conns_per_sec_per_vip = 10.; trace_seconds = 10. }
    | "churn" -> Churn { conns_per_sec_per_vip = 100.; trace_seconds = 2. }
    | "serve-updates" -> Serve { conns_per_sec_per_vip = 5.; updates = 120 }
    | "netwide-failover" -> Netwide { flows = 300 }
    | _ -> invalid_arg ("Workloads.tiny: " ^ name)
  in
  { name; shape }

(* ---------- inputs ---------- *)

let n_vips = 4
let dips_per_vip = 8
let vips () = Experiments.Common.vips_of ~n_vips ~dips_per_vip

let make_switch vips =
  let sw = Silkroad.Switch.create Silkroad.Config.default in
  List.iter (fun (vip, pool) -> Silkroad.Switch.add_vip sw vip pool) vips;
  sw

(* serve-updates: one update every 48/1024 s (~47 ms), followed by four
   1/1024 s advances that walk the session through the update's
   Recording/Dual window. Every step is dyadic, so the session's summed
   clock equals the batch control times exactly. *)
let tick = 1. /. 1024.
let cadence = 48. *. tick

(* median 50 ms, p99 1 s: most flows end within the early probes *)
let churn_durations = Simnet.Dist.lognormal_of_quantiles ~median:0.05 ~p99:1.

type inputs = {
  vips : (Netcore.Endpoint.t * Lb.Dip_pool.t) list;
  trace : Harness.Packed_trace.t;
  controls : (float * Harness.Replay.control) list;
      (** serve: the batch equivalent of the script; netwide: backlog + update *)
  script : (string * bool) array;  (** serve: (line, is an update command) *)
  events : (float * Netwide.Replay.event) list;  (** netwide topology events *)
}

(* The serve client: per VIP, remove a member, add it back, then replace
   a member by a never-seen DIP, round-robin over the VIPs. A mirror of
   each pool keeps every command valid. *)
let serve_script vips ~updates =
  let vip_arr = Array.of_list vips in
  let members = Array.map (fun (_, pool) -> ref (Array.to_list (Lb.Dip_pool.members pool))) vip_arr in
  let removed = Array.make (Array.length vip_arr) None in
  let fresh = ref 0 in
  let now = ref 0. in
  let lines = ref [] and controls = ref [] in
  let emit l u = lines := (l, u) :: !lines in
  let advance dt =
    now := !now +. dt;
    emit (Control.Protocol.render { Control.Protocol.seq = None; cmd = Advance dt }) false
  in
  for step = 0 to updates - 1 do
    let v_i = step mod Array.length vip_arr in
    let vip, _ = vip_arr.(v_i) in
    let ms = members.(v_i) in
    let per = step / Array.length vip_arr in
    let nth k = List.nth !ms (k mod List.length !ms) in
    let cmd, update =
      match per mod 3 with
      | 0 ->
        let d = nth (per / 3) in
        ms := List.filter (fun x -> not (Netcore.Endpoint.equal x d)) !ms;
        removed.(v_i) <- Some d;
        (Control.Protocol.Dip_remove (vip, d), Lb.Balancer.Dip_remove d)
      | 1 ->
        let d = Option.get removed.(v_i) in
        ms := !ms @ [ d ];
        (Control.Protocol.Dip_add (vip, d), Lb.Balancer.Dip_add d)
      | _ ->
        incr fresh;
        let old_dip = nth (per / 3) in
        let new_dip = Experiments.Common.dip (9000 + !fresh) in
        ms := List.map (fun x -> if Netcore.Endpoint.equal x old_dip then new_dip else x) !ms;
        (Control.Protocol.Dip_replace { vip; old_dip; new_dip }, Lb.Balancer.Dip_replace { old_dip; new_dip })
    in
    advance (cadence -. (4. *. tick));
    emit (Control.Protocol.render { Control.Protocol.seq = Some step; cmd }) true;
    controls := (!now, vip, update) :: !controls;
    for _ = 1 to 4 do
      advance tick
    done
  done;
  emit "drain" false;
  (Array.of_list (List.rev !lines), List.rev !controls)

(* netwide-failover flows: uniform starts over 25 s, 0.5-60.5 s long *)
let netwide_flows ~seed ~n vips =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let vips = Array.of_list vips in
  List.init n (fun id ->
      let vip, _ = vips.(Random.State.int rng (Array.length vips)) in
      let src =
        Netcore.Endpoint.v4
          (1 + Random.State.int rng 200)
          (Random.State.int rng 250) (Random.State.int rng 250)
          (1 + Random.State.int rng 250)
          (1024 + Random.State.int rng 50000)
      in
      {
        Simnet.Flow.id;
        tuple = Netcore.Five_tuple.make ~src ~dst:vip ~proto:Netcore.Protocol.Tcp;
        start = Random.State.float rng 25.;
        duration = 0.5 +. Random.State.float rng 60.;
        bytes_per_sec = 1000.;
      })

let netwide_horizon = 120.

let layer name switches sram =
  { Silkroad.Assignment.layer_name = name; switches; sram_budget_bits = sram; capacity_gbps = 10_000. }

(* 1 Core (pure transit) + 2 ToR holding 50 MB of LB SRAM each *)
let build_topology vips =
  Netwide.Topology.build
    ~layers:[ layer "core" 1 0; layer "tor" 2 (50 * 8 * 1024 * 1024) ]
    ~vips ()

(* The first ToR (node 1) fails at 30 s and recovers at 90 s; the CPU
   of every switch stalls at 29 s so the DIP removal at 30.4 s is still
   in flight while the re-routed flows arrive at the surviving ToR. *)
let failover_controls vips =
  let vip0, pool0 = List.hd vips in
  (29., Harness.Replay.Cpu_backlog 1_000_000)
  :: Harness.Replay.controls_of_updates ~horizon:netwide_horizon
       [ (30.4, vip0, Lb.Balancer.Dip_remove (Lb.Dip_pool.members pool0).(0)) ]

let failover_events = [ (30., Netwide.Replay.Switch_down 1); (90., Netwide.Replay.Switch_up 1) ]

(* The flows and the rest of the inputs, which wait for the compiled
   trace. *)
let generate spec ~seed =
  let vips = vips () in
  let scenario ?duration conns_per_sec_per_vip trace_seconds =
    Experiments.Common.scenario ~seed ~n_vips ~dips_per_vip ?duration ~conns_per_sec_per_vip
      ~updates_per_min:0. ~trace_seconds ()
  in
  let batch (s : Experiments.Common.scenario) =
    ( s.Experiments.Common.flows,
      s.Experiments.Common.horizon,
      None,
      fun trace -> { vips; trace; controls = []; script = [||]; events = [] } )
  in
  match spec.shape with
  | Steady { conns_per_sec_per_vip; trace_seconds } -> batch (scenario conns_per_sec_per_vip trace_seconds)
  | Churn { conns_per_sec_per_vip; trace_seconds } ->
    batch (scenario ~duration:churn_durations conns_per_sec_per_vip trace_seconds)
  | Serve { conns_per_sec_per_vip; updates } ->
    let s = scenario conns_per_sec_per_vip (float_of_int updates *. cadence) in
    let script, updates = serve_script vips ~updates in
    let horizon = s.Experiments.Common.horizon in
    let controls = Harness.Replay.controls_of_updates ~horizon updates in
    (s.Experiments.Common.flows, horizon, None, fun trace -> { vips; trace; controls; script; events = [] })
  | Netwide { flows } ->
    ( netwide_flows ~seed ~n:flows vips,
      netwide_horizon,
      Some 1.,
      fun trace -> { vips; trace; controls = failover_controls vips; script = [||]; events = failover_events } )

(* ---------- set-up ---------- *)

type ready =
  | Batch_ready
  | Session_ready of Control.Session.t
  | Topology_ready of Netwide.Topology.t

let make_ready tr spec inputs =
  match spec.shape with
  | Steady _ | Churn _ -> Batch_ready
  | Serve _ ->
    Session_ready
      (Spans.span tr "control.session_create" (fun () ->
           Control.Session.create ~vips:inputs.vips ~trace:inputs.trace ()))
  | Netwide _ ->
    Topology_ready (Spans.span tr "netwide.topology_build" (fun () -> build_topology inputs.vips))

let untraced = Spans.create ~enabled:false

(* Seed to ready: generation, trace compile, then what the workload
   needs before its first packet (a session, a topology). Batch replays
   partition inside Replay.run, so their set-up ends at the compiled
   trace; the traced run times one partition on its own. *)
let setup tr spec ~seed =
  let flows, horizon, probe_interval, inputs_of =
    Spans.span tr "simnet.generate" (fun () -> generate spec ~seed)
  in
  let trace =
    Spans.span tr "packed_trace.compile" (fun () ->
        Harness.Packed_trace.compile ?probe_interval ~horizon flows)
  in
  let inputs = inputs_of trace in
  let ready = make_ready tr spec inputs in
  if tr.Spans.enabled then
    Spans.span tr "packed_trace.partition" (fun () ->
        ignore
          (Harness.Packed_trace.partition trace ~shards:1 ~shard_of:(Harness.Replay.shard_of ~shards:1)));
  (inputs, ready)

(* ---------- measured runs ---------- *)

type gc = {
  words : float;  (** minor words allocated *)
  promoted : float;
  minor_gcs : int;
  major_gcs : int;
}

type run = {
  counts : Harness.Replay.counts;
  wall : float;
  gc : gc;
  json : string;  (** merged telemetry snapshot *)
  failures : string list;  (** commands answered with err, updates left pending *)
  update_walls : float array;  (** serve: wall seconds of each update command *)
  moved_flows : int;  (** netwide: flow re-homings *)
}

(* Level the heap first so a repetition does not inherit the previous
   one's garbage. Gc.quick_stat includes the allocation of Domains that
   have already ended. *)
let measured f =
  Gc.compact ();
  let s0 = Gc.quick_stat () in
  let x, wall = Clock.time f in
  let s1 = Gc.quick_stat () in
  ( x,
    wall,
    {
      words = s1.Gc.minor_words -. s0.Gc.minor_words;
      promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let snapshot_json reg = Telemetry.Snapshot.to_json (Telemetry.Registry.snapshot reg)

let counts_of (r : Harness.Replay.result) =
  {
    Harness.Replay.c_packets = r.Harness.Replay.packets;
    c_dropped = r.Harness.Replay.dropped;
    c_connections = r.Harness.Replay.connections;
    c_broken = r.Harness.Replay.broken;
    c_violations = r.Harness.Replay.violations;
  }

let netwide_counts (r : Netwide.Replay.result) =
  {
    Harness.Replay.c_packets = r.Netwide.Replay.packets;
    c_dropped = r.Netwide.Replay.dropped;
    c_connections = r.Netwide.Replay.connections;
    c_broken = r.Netwide.Replay.broken;
    c_violations = r.Netwide.Replay.violations;
  }

let batch_replay inputs =
  Harness.Replay.run ~mode:Harness.Replay.Batch
    ~make_switch:(fun () -> make_switch inputs.vips)
    ~trace:inputs.trace ~controls:inputs.controls ()

let netwide_replay inputs topo ~parallel =
  Netwide.Replay.run ~parallel ~topo ~trace:inputs.trace ~controls:inputs.controls
    ~events:inputs.events ()

(* One serve session: every script line through exec_line, each timed,
   then the merged metrics export. *)
let serve_session inputs session =
  let n_updates = Array.fold_left (fun n (_, u) -> if u then n + 1 else n) 0 inputs.script in
  let update_walls = Array.make n_updates 0. in
  let k = ref 0 and failures = ref [] in
  Array.iter
    (fun (line, is_update) ->
      let t0 = Clock.now () in
      let resp = Control.Session.exec_line session line in
      let dt = Clock.now () -. t0 in
      if is_update then begin
        update_walls.(!k) <- dt;
        incr k
      end;
      match resp with
      | Some { Control.Protocol.body = Ok _; _ } -> ()
      | Some { Control.Protocol.body = Error e; _ } -> failures := (line ^ ": " ^ e) :: !failures
      | None -> failures := (line ^ ": no response") :: !failures)
    inputs.script;
  let json = snapshot_json (Control.Session.metrics session) in
  (json, update_walls, List.rev !failures)

let pending_failures session =
  match Control.Session.pending_updates session with
  | 0 -> []
  | n -> [ Printf.sprintf "%d updates pending after drain" n ]

(* One measured repetition. Sessions and topologies carry state, so
   [ready] is used once. *)
let run_once inputs ready =
  match ready with
  | Batch_ready ->
    let (r, json), wall, gc =
      measured (fun () ->
          let r = batch_replay inputs in
          (r, snapshot_json r.Harness.Replay.telemetry))
    in
    { counts = counts_of r; wall; gc; json; failures = []; update_walls = [||]; moved_flows = 0 }
  | Session_ready session ->
    let (json, update_walls, failures), wall, gc = measured (fun () -> serve_session inputs session) in
    {
      counts = Control.Session.counts session;
      wall;
      gc;
      json;
      failures = failures @ pending_failures session;
      update_walls;
      moved_flows = 0;
    }
  | Topology_ready topo ->
    let (r, json), wall, gc =
      measured (fun () ->
          let r = netwide_replay inputs topo ~parallel:true in
          (r, snapshot_json r.Netwide.Replay.telemetry))
    in
    {
      counts = netwide_counts r;
      wall;
      gc;
      json;
      failures = [];
      update_walls = [||];
      moved_flows = r.Netwide.Replay.moved_flows;
    }

(* ---------- statistics ---------- *)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank quantile of raw samples *)
let quantile q samples =
  if Array.length samples = 0 then 0.
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let n = Array.length s in
    s.(Int.min (n - 1) (Int.max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

(* ---------- metrics ---------- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let m name value unit_ = { name; value; unit_ }

(* Every per-layer metric of the traced run. A layer a workload does not
   exercise reads 0 there (no apply spans on steady, no route lookups
   off netwide-failover). *)
let layer_units =
  [ ("five_tuple.hash_ns", "ns"); ("five_tuple.hash_words", "words"); ("conn_table.lookup_ns", "ns");
    ("conn_table.lookup_words", "words"); ("conn_table.lookup_hit_share", "ratio");
    ("dip_pool_table.select_ns", "ns"); ("dip_pool_table.select_words", "words");
    ("replay.flush_ns_per_pkt", "ns"); ("replay.flush_words_per_pkt", "words");
    ("switch.fast_path_share", "ratio"); ("learning.offered", "count");
    ("learning.offered_per_conn", "ratio"); ("learning.dropped", "count");
    ("switch_cpu.work_items", "count"); ("switch_cpu.queue_delay_p50", "s");
    ("switch_cpu.queue_delay_p99", "s"); ("switch.insert_overflows", "count");
    ("switch.overflow_retries", "count"); ("conn_table.greedy_kicks", "count");
    ("conn_table.bfs_expansions", "count"); ("timer_wheel.ns", "ns"); ("control.parse_us", "us");
    ("replay.apply_ms_per_update", "ms"); ("control.exec_update_ms", "ms");
    ("control.exec_advance_ms", "ms"); ("control.update_wall_share", "ratio");
    ("control.update_p50_ms", "ms"); ("control.update_p99_ms", "ms");
    ("control.update_samples", "count"); ("control.update_apply_p50", "s");
    ("control.update_apply_p99", "s"); ("simnet.generate_s", "s"); ("packed_trace.compile_s", "s");
    ("packed_trace.partition_s", "s"); ("netwide.route_owner_ns", "ns");
    ("netwide.moved_flows", "count"); ("worker.cpu_per_wall", "ratio"); ("worker.cpu_s", "s");
    ("worker.wall_s", "s"); ("telemetry.merge_ms", "ms"); ("telemetry.snapshot_json_ms", "ms");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.promoted_words_per_pkt", "words"); ("judge.broken_frac", "ratio");
    ("trace.overhead_s", "s") ]

(* ---------- checks ---------- *)

let broken_frac (c : Harness.Replay.counts) =
  float_of_int c.Harness.Replay.c_broken /. float_of_int (Int.max 1 c.Harness.Replay.c_connections)

let same_counts (a : Harness.Replay.counts) (b : Harness.Replay.counts) =
  a.Harness.Replay.c_packets = b.Harness.Replay.c_packets
  && a.Harness.Replay.c_dropped = b.Harness.Replay.c_dropped
  && a.Harness.Replay.c_connections = b.Harness.Replay.c_connections
  && a.Harness.Replay.c_broken = b.Harness.Replay.c_broken
  && a.Harness.Replay.c_violations = b.Harness.Replay.c_violations

let run_checks spec inputs (run : run) =
  let c = run.counts and trace = inputs.trace in
  [ ("broken_frac <= 0.001", broken_frac c <= 0.001);
    ("judged packets = trace packets", c.Harness.Replay.c_packets = Harness.Packed_trace.n_packets trace);
    ("judged connections = trace flows", c.Harness.Replay.c_connections = Harness.Packed_trace.n_flows trace) ]
  @
  match spec.shape with
  | Serve _ -> [ ("every command ok, 0 updates pending after drain", run.failures = []) ]
  | Netwide _ ->
    [ ("0 network-wide PCC violations", c.Harness.Replay.c_violations = 0);
      ("re-homed flows > 0", run.moved_flows > 0) ]
  | Steady _ | Churn _ -> []

(* ---------- per-layer probes (traced run) ---------- *)

let histogram_quantile reg name q =
  match Telemetry.Registry.find_histogram reg name with
  | Some h -> Telemetry.Histogram.quantile h q
  | None -> 0.

(* ns and minor words per call of [f i] for i in [0, n): the median of
   three timed passes. *)
let per_call n f =
  let pass () =
    let w0 = Gc.minor_words () in
    let (), dt =
      Clock.time (fun () ->
          for i = 0 to n - 1 do
            f i
          done)
    in
    (dt, Gc.minor_words () -. w0)
  in
  let passes = List.init 3 (fun _ -> pass ()) in
  let n = float_of_int (Int.max 1 n) in
  (median (List.map fst passes) *. 1e9 /. n, median (List.map snd passes) /. n)

let hash_probe trace =
  let tuples = trace.Harness.Packed_trace.flow_tuples in
  let ns, words =
    per_call (Array.length tuples) (fun i -> ignore (Netcore.Five_tuple.hash ~seed:1 tuples.(i)))
  in
  [ m "five_tuple.hash_ns" ns "ns"; m "five_tuple.hash_words" words "words" ]

(* ConnTable lookups and DIP selections over the workload's own tuples,
   against the live table at the trace's median packet time. *)
let table_probes tr trace sw =
  let tuples = trace.Harness.Packed_trace.flow_tuples in
  let n = Array.length tuples in
  let ct = Silkroad.Switch.conn_table sw in
  let hits = ref 0 in
  Array.iter (fun t -> if Silkroad.Conn_table.lookup_code ct t >= 0 then incr hits) tuples;
  let lookup_ns, lookup_words =
    Spans.span tr "conn_table.lookup" (fun () ->
        per_call n (fun i -> ignore (Silkroad.Conn_table.lookup_code ct tuples.(i))))
  in
  let pools = Silkroad.Switch.pools sw and vt = Silkroad.Switch.vip_table sw in
  let vip_of i = trace.Harness.Packed_trace.vips.(trace.Harness.Packed_trace.flow_vip.(i)) in
  let versions =
    Array.init n (fun i -> Option.value ~default:0 (Silkroad.Vip_table.current vt (vip_of i)))
  in
  let select_ns, select_words =
    Spans.span tr "dip_pool_table.select" (fun () ->
        per_call n (fun i ->
            ignore
              (Silkroad.Dip_pool_table.select_dip_fast pools ~vip:(vip_of i) ~version:versions.(i)
                 tuples.(i) ~none:Netcore.Endpoint.none)))
  in
  [ m "conn_table.lookup_ns" lookup_ns "ns"; m "conn_table.lookup_words" lookup_words "words";
    m "conn_table.lookup_hit_share" (float_of_int !hits /. float_of_int (Int.max 1 n)) "ratio";
    m "dip_pool_table.select_ns" select_ns "ns"; m "dip_pool_table.select_words" select_words "words" ]

(* The counters of the switch left after a whole run. *)
let switch_counters sw ~connections =
  let st = Silkroad.Switch.stats sw and reg = Silkroad.Switch.metrics sw in
  let ct = Silkroad.Switch.conn_table sw in
  let count name = float_of_int (Telemetry.Registry.counter_value reg name) in
  let delay q = histogram_quantile reg "switch_cpu.queue_delay" q in
  let asic = st.Silkroad.Switch.asic_packets and cpu = st.Silkroad.Switch.cpu_packets in
  [ m "switch.fast_path_share" (float_of_int asic /. float_of_int (Int.max 1 (asic + cpu))) "ratio";
    m "learning.offered" (count "learning.offered") "count";
    m "learning.offered_per_conn" (count "learning.offered" /. float_of_int (Int.max 1 connections)) "ratio";
    m "learning.dropped" (count "learning.dropped") "count";
    m "switch_cpu.work_items" (count "switch_cpu.work_items") "count";
    m "switch_cpu.queue_delay_p50" (delay 0.5) "s"; m "switch_cpu.queue_delay_p99" (delay 0.99) "s";
    m "switch.insert_overflows" (float_of_int st.Silkroad.Switch.insert_overflows) "count";
    m "switch.overflow_retries" (float_of_int st.Silkroad.Switch.overflow_retries) "count";
    m "conn_table.greedy_kicks" (float_of_int (Silkroad.Conn_table.greedy_kicks ct)) "count";
    m "conn_table.bfs_expansions" (float_of_int (Silkroad.Conn_table.bfs_expansions ct)) "count" ]

(* The switch's aging discipline on a standalone wheel: a schedule per
   SYN, a cancel per FIN and an advance per packet, in trace order. *)
let timer_wheel_probe tr trace =
  let cfg = Silkroad.Config.default in
  let idle = cfg.Silkroad.Config.idle_timeout in
  let times = trace.Harness.Packed_trace.times and flows = trace.Harness.Packed_trace.pkt_flow in
  let flags = trace.Harness.Packed_trace.pkt_flags and tuples = trace.Harness.Packed_trace.flow_tuples in
  let n = Array.length times in
  let calls = ref 0 in
  let (), dt =
    Clock.time (fun () ->
        Spans.span tr "timer_wheel.replay" (fun () ->
            let w = Asic.Timer_wheel.create ~granularity:(idle /. 4.) ~slots:16 () in
            for i = 0 to n - 1 do
              let f = Netcore.Tcp_flags.of_byte (Char.code (Bytes.get flags i)) in
              let key = tuples.(flows.(i)) and now = times.(i) in
              if Netcore.Tcp_flags.is_connection_start f then begin
                Asic.Timer_wheel.schedule w ~key ~at:(now +. idle);
                incr calls
              end
              else if Netcore.Tcp_flags.is_connection_end f then begin
                Asic.Timer_wheel.cancel w ~key;
                incr calls
              end;
              ignore (Asic.Timer_wheel.advance w ~now)
            done))
  in
  [ m "timer_wheel.ns" (dt *. 1e9 /. float_of_int (Int.max 1 (n + !calls))) "ns" ]

(* Flush in whole virtual seconds from [from] up to [until], one span
   per flush. *)
let flush_seconds tr st ~from ~until =
  let t = ref (Float.floor from +. 1.) in
  while !t < until do
    let at = !t in
    Spans.span tr "replay.flush" (fun () -> Harness.Replay.Stepper.flush_to st at);
    t := at +. 1.
  done;
  Spans.span tr "replay.flush" (fun () -> Harness.Replay.Stepper.flush_to st until)

(* The batch replay through Replay.Stepper, which is what Replay.run
   does, with a span around each flush and each control's apply. The
   table probes run at the median packet time; their time is returned
   so that it can be left out of the traced wall time. *)
let traced_replay tr inputs =
  let trace = inputs.trace in
  let horizon = trace.Harness.Packed_trace.horizon in
  let sh =
    Spans.span tr "replay.make_shared" (fun () -> Harness.Replay.Stepper.make_shared ~trace ~shards:1)
  in
  let sw = make_switch inputs.vips in
  let st = Harness.Replay.Stepper.create sh ~shard:0 ~batched:true sw in
  let times = trace.Harness.Packed_trace.times in
  let mid = if Array.length times = 0 then 0. else times.(Array.length times / 2) in
  let probes = ref [] and probe_wall = ref 0. in
  let steps =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.map (fun (at, c) -> (at, Some c)) inputs.controls @ [ (mid, None) ])
  in
  let last =
    List.fold_left
      (fun from (at, step) ->
        flush_seconds tr st ~from ~until:at;
        (match step with
         | Some ctrl -> Spans.span tr "replay.apply" (fun () -> Harness.Replay.Stepper.apply st ~at ctrl)
         | None ->
           let p, dt = Clock.time (fun () -> table_probes tr trace sw) in
           probes := p;
           probe_wall := dt);
        at)
      0. steps
  in
  flush_seconds tr st ~from:last ~until:horizon;
  Spans.span tr "replay.finish" (fun () -> Harness.Replay.Stepper.finish st ~now:horizon);
  let reg =
    Spans.span tr "telemetry.merge" (fun () -> Telemetry.Registry.merge_all [ Silkroad.Switch.metrics sw ])
  in
  ignore (Spans.span tr "telemetry.snapshot_json" (fun () -> snapshot_json reg));
  (Harness.Replay.Stepper.counts st, sw, !probes, !probe_wall)

(* The serve session with each command under one top-level span and
   Protocol.parse and Session.exec as its children. *)
let traced_session tr inputs session =
  let failures = ref [] in
  Array.iter
    (fun (line, is_update) ->
      let kind =
        if is_update then "control.update"
        else if String.equal line "drain" then "control.drain"
        else "control.advance"
      in
      Spans.span tr kind (fun () ->
          match Spans.span tr "control.parse" (fun () -> Control.Protocol.parse line) with
          | Ok (Some l) -> (
            match Spans.span tr "control.exec" (fun () -> Control.Session.exec session l) with
            | { Control.Protocol.body = Ok _; _ } -> ()
            | { Control.Protocol.body = Error e; _ } -> failures := (line ^ ": " ^ e) :: !failures)
          | Ok None -> failures := (line ^ ": blank") :: !failures
          | Error e -> failures := (line ^ ": " ^ e) :: !failures))
    inputs.script;
  let reg = Spans.span tr "telemetry.merge" (fun () -> Control.Session.metrics session) in
  ignore (Spans.span tr "telemetry.snapshot_json" (fun () -> snapshot_json reg));
  List.rev !failures @ pending_failures session

let route_probe inputs topo =
  let trace = inputs.trace in
  let tuples = trace.Harness.Packed_trace.flow_tuples in
  let vip_of i = trace.Harness.Packed_trace.vips.(trace.Harness.Packed_trace.flow_vip.(i)) in
  fst (per_call (Array.length tuples) (fun i -> ignore (Netwide.Route.owner topo ~vip:(vip_of i) tuples.(i))))

(* ---------- one invocation ---------- *)

type outcome = {
  e2e : metric list;  (** untraced run: every end-to-end metric *)
  layers : metric list;  (** traced run: every per-layer metric *)
  checks : (string * bool) list;
  attempted : int;  (** connections judged in one repetition *)
  failed : int;  (** of which broken *)
  notes : string list;  (** human-readable lines for the report *)
  recorder : Spans.t;
}

(* [reps] set-ups, each from the seed alone; the last is kept. *)
let setup_repeated tr spec ~seed ~reps =
  let kept = ref None and walls = ref [] in
  for _ = 1 to reps do
    kept := None;
    Gc.compact ();
    let x, wall = Clock.time (fun () -> setup tr spec ~seed) in
    walls := wall :: !walls;
    kept := Some x
  done;
  (Option.get !kept, List.rev !walls)

let peak_heap_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let netwide_sequential_check inputs (parallel : run) =
  let s = netwide_replay inputs (build_topology inputs.vips) ~parallel:false in
  ( "parallel telemetry JSON = sequential",
    String.equal (snapshot_json s.Netwide.Replay.telemetry) parallel.json )

let update_latency_note (r : run) =
  let w = r.update_walls in
  Printf.sprintf "update exec_line wall latency: p50 %.3f ms, p99 %.3f ms over %d updates"
    (quantile 0.5 w *. 1e3) (quantile 0.99 w *. 1e3) (Array.length w)

(* The untraced run: set-up [setup_reps] times, then measured
   repetitions until [seconds] of measured wall time have passed
   (within [min_reps, max_reps]). Times are medians. *)
let measure spec ~seed ~seconds =
  let tr = untraced in
  let (inputs, ready), setup_walls = setup_repeated tr spec ~seed ~reps:setup_reps in
  (* the first repetition grows the heap to its working size and is
     not counted *)
  let warmup = run_once inputs ready in
  (* read here, not after the time-boxed loop, so that it depends on the
     seed alone: set-ups plus one repetition reach the process's peak *)
  let peak = peak_heap_mib () in
  let rec loop acc n spent =
    let r = run_once inputs (make_ready untraced spec inputs) in
    let acc = r :: acc and n = n + 1 and spent = spent +. r.wall in
    if n >= max_reps || (n >= min_reps && spent >= seconds) then List.rev acc
    else loop acc n spent
  in
  let runs = loop [] 0 0. in
  let first = List.hd runs in
  let c = first.counts in
  let packets = float_of_int (Int.max 1 c.Harness.Replay.c_packets) in
  let checks =
    run_checks spec inputs first
    @ [ ( "every repetition has the same counts and telemetry JSON",
          List.for_all (fun r -> same_counts r.counts c && String.equal r.json first.json) (warmup :: runs) ) ]
    @ match spec.shape with Netwide _ -> [ netwide_sequential_check inputs first ] | _ -> []
  in
  let walls = List.map (fun r -> r.wall) runs in
  let e2e =
    [ m "setup_s" (median setup_walls) "s"; m "pkts_per_s" (packets /. median walls) "1/s";
      m "alloc_words_per_pkt" (median (List.map (fun r -> r.gc.words) runs) /. packets) "words";
      m "peak_heap_mb" peak "MiB"; m "intact_frac" (1. -. broken_frac c) "ratio" ]
  in
  let notes =
    [ Printf.sprintf "%d packets, %d connections, %d broken; %d set-ups, 1 + %d repetitions"
        c.Harness.Replay.c_packets c.Harness.Replay.c_connections c.Harness.Replay.c_broken
        (List.length setup_walls) (List.length runs);
      Printf.sprintf "warm-up repetition (not counted): %.3f s" warmup.wall;
      "set-up walls (s): " ^ String.concat " " (List.map (Printf.sprintf "%.3f") setup_walls);
      "measured walls (s): " ^ String.concat " " (List.map (Printf.sprintf "%.3f") walls) ]
    @ match spec.shape with Serve _ -> [ update_latency_note first ] | _ -> []
  in
  {
    e2e;
    layers = [];
    checks;
    attempted = c.Harness.Replay.c_connections;
    failed = c.Harness.Replay.c_broken;
    notes;
    recorder = tr;
  }

(* Fill the canonical per-layer list: computed values where the
   workload exercises the layer, 0 elsewhere. *)
let complete_layers computed =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name layer_units) then invalid_arg ("unlisted layer metric " ^ x.name))
    computed;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> String.equal x.name name) computed with
      | Some x -> { x with unit_ }
      | None -> m name 0. unit_)
    layer_units

(* The traced run: one set-up and one untraced repetition (the base for
   the overhead and the GC counts), then the same work again with spans
   around every layer call, then the layer probes. *)
let trace_layers spec ~seed =
  let tr = Spans.create ~enabled:true in
  let (inputs, ready), _ = setup_repeated tr spec ~seed ~reps:1 in
  let warmup = run_once inputs ready in
  let base = run_once inputs (make_ready untraced spec inputs) in
  let trace = inputs.trace in
  let packets = float_of_int (Int.max 1 base.counts.Harness.Replay.c_packets) in
  let checks =
    ref
      (run_checks spec inputs base
      @ [ ("warm-up = base repetition", same_counts warmup.counts base.counts && String.equal warmup.json base.json) ])
  in
  let check name ok = checks := !checks @ [ (name, ok) ] in
  let traced_wall, specific =
    match spec.shape with
    | Steady _ | Churn _ ->
      let (counts, sw, probes, probe_wall), wall = Clock.time (fun () -> traced_replay tr inputs) in
      check "stepper replay = Replay.run" (same_counts counts base.counts);
      (wall -. probe_wall, probes @ switch_counters sw ~connections:counts.Harness.Replay.c_connections)
    | Serve _ ->
      let session =
        Spans.span tr "control.session_create" (fun () ->
            Control.Session.create ~vips:inputs.vips ~trace ())
      in
      let failures, wall = Clock.time (fun () -> traced_session tr inputs session) in
      let sc = Control.Session.counts session in
      check "traced session: every command ok, 0 pending" (failures = []);
      check "traced session = untraced session" (same_counts sc base.counts);
      check "session = batch Replay.run of the equivalent controls"
        (same_counts (counts_of (batch_replay inputs)) sc);
      let counts, _, probes, _ = traced_replay tr inputs in
      check "stepper replay = session" (same_counts counts sc);
      let tot = Spans.totals tr in
      let ctl = Control.Session.control_metrics session in
      let w = base.update_walls in
      ( wall,
        probes
        @ switch_counters (Control.Session.switches session).(0) ~connections:sc.Harness.Replay.c_connections
        @ [ m "control.update_wall_share" ((tot "control.update").Spans.wall /. wall) "ratio";
            m "control.update_p50_ms" (quantile 0.5 w *. 1e3) "ms";
            m "control.update_p99_ms" (quantile 0.99 w *. 1e3) "ms";
            m "control.update_samples" (float_of_int (Array.length w)) "count";
            m "control.update_apply_p50" (histogram_quantile ctl "control.update_apply_seconds" 0.5) "s";
            m "control.update_apply_p99" (histogram_quantile ctl "control.update_apply_seconds" 0.99) "s" ] )
    | Netwide _ ->
      let topo = build_topology inputs.vips in
      Gc.compact ();
      let cpu0 = Clock.cpu () in
      let r, wall =
        Clock.time (fun () ->
            Spans.span tr "netwide.replay" (fun () -> netwide_replay inputs topo ~parallel:true))
      in
      let cpu = Clock.cpu () -. cpu0 in
      let reg = Spans.span tr "telemetry.merge" (fun () -> Telemetry.Registry.merge_all [ r.Netwide.Replay.telemetry ]) in
      let json = Spans.span tr "telemetry.snapshot_json" (fun () -> snapshot_json reg) in
      check "traced netwide replay = untraced" (String.equal json base.json);
      let name, ok = netwide_sequential_check inputs base in
      check name ok;
      ( wall,
        [ m "netwide.route_owner_ns" (route_probe inputs (build_topology inputs.vips)) "ns";
          m "netwide.moved_flows" (float_of_int r.Netwide.Replay.moved_flows) "count";
          m "worker.cpu_per_wall" (cpu /. wall) "ratio"; m "worker.cpu_s" cpu "s";
          m "worker.wall_s" wall "s" ] )
  in
  let tot = Spans.totals tr in
  let mean name scale =
    let t = tot name in
    if t.Spans.count = 0 then 0. else t.Spans.wall /. float_of_int t.Spans.count *. scale
  in
  let flush = tot "replay.flush" in
  let layers =
    complete_layers
      (hash_probe trace @ timer_wheel_probe tr trace @ specific
      @ [ m "replay.flush_ns_per_pkt" (flush.Spans.self *. 1e9 /. packets) "ns";
          m "replay.flush_words_per_pkt" (flush.Spans.self_words /. packets) "words";
          m "replay.apply_ms_per_update" (mean "replay.apply" 1e3) "ms";
          m "control.parse_us" (mean "control.parse" 1e6) "us";
          m "control.exec_update_ms" (mean "control.update" 1e3) "ms";
          m "control.exec_advance_ms" (mean "control.advance" 1e3) "ms";
          m "simnet.generate_s" (mean "simnet.generate" 1.) "s";
          m "packed_trace.compile_s" (mean "packed_trace.compile" 1.) "s";
          m "packed_trace.partition_s" (mean "packed_trace.partition" 1.) "s";
          m "telemetry.merge_ms" (mean "telemetry.merge" 1e3) "ms";
          m "telemetry.snapshot_json_ms" (mean "telemetry.snapshot_json" 1e3) "ms";
          m "gc.minor_collections" (float_of_int base.gc.minor_gcs) "count";
          m "gc.major_collections" (float_of_int base.gc.major_gcs) "count";
          m "gc.promoted_words_per_pkt" (base.gc.promoted /. packets) "words";
          m "judge.broken_frac" (broken_frac base.counts) "ratio";
          m "trace.overhead_s" (traced_wall -. base.wall) "s" ])
  in
  {
    e2e = [];
    layers;
    checks = !checks;
    attempted = base.counts.Harness.Replay.c_connections;
    failed = base.counts.Harness.Replay.c_broken;
    notes =
      [ Printf.sprintf "untraced %.3f s, traced %.3f s, %d spans" base.wall traced_wall
          (List.length (Spans.spans tr)) ];
    recorder = tr;
  }

let execute spec ~seed ~seconds ~traced =
  if traced then trace_layers spec ~seed else measure spec ~seed ~seconds

(* One "name value unit" line per metric. *)
let metric_lines xs = List.map (fun x -> Printf.sprintf "  %-30s %.6g %s" x.name x.value x.unit_) xs
