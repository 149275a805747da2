(** The fast-path replay engine: stream a {!Packed_trace.t} through one
    or more {!Silkroad.Switch.t} instances, judged by the flat PCC
    {!Judge}. The loop builds no packet records, but the switch's packet
    path itself allocates on the minor heap ([perfbench] reports it as
    [alloc_words_per_pkt]).

    Three modes, with a pinned equivalence contract:

    - [Scalar] — one switch, one {!Silkroad.Switch.process_flow} call
      per packet. Reproduces {!Driver.run}'s observable counters exactly
      (same packets, same order, same control tie-breaking).
    - [Batch] — one switch, {!Silkroad.Switch.process_batch} over the
      packet runs between control events. Byte-identical to [Scalar],
      including the merged telemetry snapshot.
    - [Sharded] — flows partitioned by 5-tuple hash over K independent
      switches ([parallel] runs them on Domains). PCC is preserved
      trivially: every packet of a flow lands on the same switch.
      Digest collisions and Bloom false positives can only involve
      co-sharded flows — a strictly smaller collision class than the
      scalar run — so equivalence with [Scalar] is stated over the
      collision-free counters only.

    Judged-workload accounting is {!Judge}, which mirrors {!Lb.Pcc}
    exactly; attack SYNs go through the switch but touch neither the
    packet counters nor the judge, as in the driver. *)

type control =
  | Update of Netcore.Endpoint.t * Lb.Balancer.update
      (** apply to the switch, with dead-server PCC exclusion for
          removals/replacements — the driver's scripted-update rule *)
  | Dip_dead of Netcore.Endpoint.t  (** ground truth only: PCC exclusion *)
  | Cpu_backlog of int
  | Attack_syn of Netcore.Five_tuple.t
  | Reroute of Lb.Balancer.reroute
      (** topology re-route (switch failure/recovery, VIP migration):
          the selected flows lose their switch-side connection state via
          {!Silkroad.Switch.forget_flows}; the PCC arrays are untouched,
          so the oracle keeps holding the re-routed connections to their
          original DIP — the network-wide consistency question. *)

type mode =
  | Scalar
  | Batch
  | Sharded of {
      shards : int;
      parallel : bool;
          (** run the shards on a worker group of
              [min shards (auto_shards ())] Domains (one spawn per extra
              worker per run, shards strided across workers). With one
              available core the group degenerates to the sequential
              loop, so parallel never loses to sequential by
              oversubscription; counters are byte-identical to the
              sequential sharded run either way. *)
    }

val auto_shards : unit -> int
(** [max 1 (Domain.recommended_domain_count ())] — the shard/worker
    count matched to this machine. *)

val controls_of_chaos : horizon:float -> Chaos.Engine.event list -> (float * control) list
(** The control stream {!Driver.run} would derive from a compiled chaos
    timeline: delivered updates, DIP deaths, CPU backlogs and attack
    SYNs, with dropped/suppressed updates and recoveries elided.
    Events at or after the horizon are discarded. *)

val controls_of_updates :
  horizon:float ->
  (float * Netcore.Endpoint.t * Lb.Balancer.update) list ->
  (float * control) list
(** Scripted updates as controls. When combining with chaos controls,
    concatenate chaos first — {!run} sorts stably by time, so the
    driver's tie order is preserved. *)

type result = {
  mode : mode;
  packets : int;  (** measured probes (attack SYNs excluded) *)
  dropped : int;
  connections : int;  (** distinct connections judged (Pcc.total) *)
  broken : int;
  violations : int;
  false_hits : int;  (** summed over shards *)
  repairs : int;
  first_dip : Netcore.Endpoint.t array;
      (** per flow index: the DIP of its first judged packet;
          {!Silkroad.Switch.no_dip} (compare with [==]) when the first
          packet was dropped or the flow never sent *)
  telemetry : Telemetry.Registry.t;
      (** replay.* counters merged with every shard switch's registry *)
  elapsed : float;
      (** process CPU seconds spent replaying ({!Stopwatch}; gather
          excluded), summed over every Domain of a parallel run *)
}

val shard_of : shards:int -> Netcore.Five_tuple.t -> int
(** The flow partition used by [Sharded] mode (dedicated hash seed,
    independent of all table seeds). *)

type counts = Judge.counts = {
  c_packets : int;
  c_dropped : int;
  c_connections : int;  (** distinct connections judged (Pcc.total) *)
  c_broken : int;
  c_violations : int;
}

val worker_group : parallel:bool -> int -> (int -> unit) -> unit
(** [worker_group ~parallel n job] runs [job 0 .. job (n-1)], the one
    Domain pool of every replay engine. With [parallel] and [n > 1] it
    uses [min n (auto_shards ())] workers, not one Domain per job: the
    caller is worker 0, one Domain is spawned per further worker, and
    worker [w] runs jobs [w, w + workers, ...] in order. Otherwise, and
    on one core, it is the plain sequential loop, so parallel never
    loses to sequential by oversubscription. Jobs running at the same
    time must touch disjoint state. *)

val removed_dip : control -> Netcore.Endpoint.t option
(** The DIP a control takes out of PCC judgement ({!Judge.exclude}): a
    removed or replaced pool member, or a dead DIP. *)

val act_on_switch : Silkroad.Switch.t -> at:float -> control -> unit
(** The effect of one control on one switch, PCC aside: advance the
    switch to [at], then request the update, queue the CPU backlog, send
    the attack SYN through the packet path, or forget the re-routed
    flows. [Dip_dead] does nothing to a switch. Which switches a control
    reaches is the caller's choice ({!Stepper.apply} picks its own
    switch, and only the owner shard for an attack SYN). *)

(** The replay loop, exposed incrementally: one stepper per shard, each
    owning a switch and a cursor into its share of the packed trace.
    {!run} is exactly "apply every control in time order, then finish" on
    these steppers — the long-running serve mode ({!Control.Session})
    drives the same steppers one command at a time, which is what makes
    a scripted serve session counter-identical to a batch replay by
    construction.

    Discipline (shared with {!run}): packets at time [t <= at] fire
    before a control applied at [at] (the driver's tie order), and
    {!Stepper.apply}/{!Stepper.finish} are the only places the switch's
    control plane is advanced outside the packet path. *)
module Stepper : sig
  type shared
  (** The trace gathered per shard plus the {!Judge} all shards of a run
      share, one judge owner per shard; writes are disjoint by flow
      owner, so parallel steppers need no locks. *)

  val make_shared : trace:Packed_trace.t -> shards:int -> shared
  val horizon : shared -> float

  val judge : shared -> Judge.t

  type t

  val create : shared -> shard:int -> batched:bool -> Silkroad.Switch.t -> t
  (** One stepper per shard, [shard] in [0 .. shards-1]. [batched] uses
      {!Silkroad.Switch.process_batch} (the fast path); [false] mirrors
      the scalar one-call-per-packet loop. *)

  val switch : t -> Silkroad.Switch.t

  val flush_to : t -> float -> unit
  (** Process this shard's packets with time [<= t] (monotone: already
      processed packets are never revisited). Does {e not} advance the
      switch's control plane beyond what the packet path itself does —
      exactly the batch loop's behaviour between controls. *)

  val apply : t -> at:float -> control -> unit
  (** [flush_to at], then apply the control: {!removed_dip} is excluded
      from PCC over this shard's flows, and {!act_on_switch} runs on
      this shard's switch, except for an attack SYN of a flow another
      shard owns (so broadcasting a control to every stepper is safe).
      Controls must be applied in non-decreasing time order. *)

  val finish : t -> now:float -> unit
  (** Process every remaining packet, then advance the switch to [now]
      (the trace horizon in {!run}; a serve session may drain later). *)

  val counts : t -> counts
  (** This shard's judge tally. *)
end

val run :
  ?mode:mode ->
  make_switch:(unit -> Silkroad.Switch.t) ->
  trace:Packed_trace.t ->
  controls:(float * control) list ->
  unit ->
  result
(** Replay the trace. [make_switch] is called once per shard and must
    return identically configured switches (same config, same VIPs and
    pools); the trace's horizon bounds the run and every switch gets a
    final [advance ~now:horizon]. Default mode: [Batch]. *)
