(** Flat pre-encoded packet traces for the replay fast path.

    A packed trace is the driver's packet schedule with all the boxing
    stripped: per-packet time, flow index and flag byte live in three
    parallel arrays sorted by (time, emission order) — the exact order
    {!Driver.run}'s event queue would fire them in — and per-flow
    metadata (5-tuple, VIP, id) lives in flow-indexed arrays. The
    replay engines ({!Replay}, [Netwide.Replay]) stream these through
    {!Silkroad.Switch.process_batch} or {!Silkroad.Switch.process_flow}
    without building a packet record per probe, and judge each packet
    with {!Judge} by its flow index.

    The binary codec ([save]/[load]) makes a compiled trace a reusable
    artifact: compile a big workload once, replay it under many
    configurations. *)

type t = {
  horizon : float;
  vips : Netcore.Endpoint.t array;  (** distinct VIPs, first-appearance order *)
  flow_ids : int array;
  flow_vip : int array;  (** per flow: index into [vips] *)
  flow_tuples : Netcore.Five_tuple.t array;
  times : float array;  (** per packet; sorted, ties in emission order *)
  pkt_flow : int array;  (** per packet: flow index *)
  pkt_flags : Bytes.t;  (** per packet: {!Netcore.Tcp_flags.to_byte} *)
}

val n_flows : t -> int
val n_packets : t -> int

val compile :
  ?early_offsets:float list ->
  ?probe_interval:float ->
  horizon:float ->
  Simnet.Flow.t list ->
  t
(** Pre-encode the packet trains {!Driver.probe_points} generates for
    these flows (same defaults as {!Driver.run}). Flows starting at or
    after the horizon are dropped. *)

type partition = {
  pt_shards : int;
  flow_shard : int array;  (** per flow: owning shard *)
  sh_times : float array array;  (** per shard: packet times, globally ordered *)
  sh_flows : Netcore.Five_tuple.t array array;
  sh_flags : Netcore.Tcp_flags.t array array;  (** decoded flag sets *)
  sh_pflow : int array array;  (** per shard packet: global flow index *)
}
(** A trace pre-partitioned into per-shard packed sub-traces: one
    contiguous (times, flows, flags, flow-index) quadruple per shard,
    each preserving the global (time, emission) order. Built once at
    compile/load time so the replay hot loop — including the parallel
    worker handoff — touches only flat arrays. *)

val partition : t -> shards:int -> shard_of:(Netcore.Five_tuple.t -> int) -> partition
(** Gather each shard's packets into contiguous arrays (two linear
    passes; flag bytes decoded through a 64-entry table). [shard_of]
    must return values in [0, shards); raises [Invalid_argument]
    otherwise or when [shards < 1]. *)

val save : string -> t -> unit
(** Write the binary format (little-endian, magic ["SRPTRC01"]). *)

val load : string -> t
(** Read a trace written by {!save}; VIP endpoints are interned so every
    flow of a VIP shares one record. Raises [Failure] on malformed
    input. *)
