(** The flat per-connection-consistency judge: {!Lb.Pcc}'s verdicts
    over flow-indexed arrays, shared by every replay engine
    ({!Replay}, {!Control.Session} through {!Replay.Stepper},
    [Netwide.Replay]) and the model checker ([Analysis.Modelcheck]).

    One judge holds the first judged DIP and a state byte per flow,
    plus one tally per {e owner}: a shard, a network node, or a single
    owner for sequential callers. Callers that split flows between
    owners (one owner per flow at a time) may judge from several
    Domains at once without locks: writes to a flow's cells and to an
    owner's tally are disjoint. Judging a packet allocates nothing.

    A dropped packet is {!Silkroad.Switch.no_dip}, recognised by [==]
    only, so no real endpoint is ever mistaken for a drop. A connection
    whose first packet was dropped is broken, and its later packets are
    all violations, exactly as {!Lb.Pcc} treats [first = None]. *)

type counts = {
  c_packets : int;
  c_dropped : int;
  c_connections : int;  (** distinct connections judged (Pcc.total) *)
  c_broken : int;
  c_violations : int;
}

type t

val create : flows:int -> owners:int -> t
(** A judge over flow indices [0 .. flows-1] with [owners] tallies,
    every flow untracked. *)

val judge : t -> owner:int -> int -> Netcore.Endpoint.t -> ends:bool -> unit
(** [judge t ~owner flow dip ~ends] records one packet of [flow] that
    went to [dip] ({!Silkroad.Switch.no_dip} for a drop) on [owner]'s
    tally, as {!Lb.Pcc.judge}. [~ends] is {!Lb.Pcc.on_finish}: the
    flow's tracking state is cleared after the verdict, so its next
    packet starts a new connection. *)

val exclude : ?only:int array * int -> t -> Netcore.Endpoint.t -> unit
(** {!Lb.Pcc.on_dip_removed}: live connections whose first DIP is the
    given one stop being judged. [~only:(flow_owner, k)] restricts this
    to the flows [i] with [flow_owner.(i) = k], the part a sharded
    stepper owns. *)

val counts : t -> owner:int -> counts
val total : t -> counts
(** The sum of every owner's counts. *)

val first_dip : t -> Netcore.Endpoint.t array
(** Flow-indexed DIP of each flow's latest connection's first judged
    packet; {!Silkroad.Switch.no_dip} when it was dropped or the flow
    never sent. The judge's own array, not a copy. *)

val add_metrics : Telemetry.Registry.t -> counts -> unit
(** Add the counts to the registry's [replay.packets],
    [replay.dropped_packets], [replay.connections],
    [replay.broken_connections] and [replay.violation_packets]
    counters, the names every replay engine reports them under. *)
