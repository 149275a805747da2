(* Lb.Pcc flattened: a flow's Hashtbl entry becomes one state byte plus
   one first-DIP cell, and the verdict counters become per-owner
   tallies so that owners on different Domains never write the same
   word. *)

type counts = {
  c_packets : int;
  c_dropped : int;
  c_connections : int;
  c_broken : int;
  c_violations : int;
}

(* state bits: tracked (Pcc has an entry), excluded (its DIP was
   removed), bad (already counted broken) *)
let st_live = 1
let st_excluded = 2
let st_bad = 4

(* tally slots, [stride] words apart per owner: two owners' tallies
   never share a cache line *)
let i_packets = 0
let i_dropped = 1
let i_connections = 2
let i_broken = 3
let i_violations = 4
let stride = 16

type t = {
  first : Netcore.Endpoint.t array;
  state : Bytes.t;
  tallies : int array;
}

let no_dip = Silkroad.Switch.no_dip

let create ~flows ~owners =
  if owners < 1 then invalid_arg "Judge.create: owners must be >= 1";
  {
    first = Array.make flows no_dip;
    state = Bytes.make flows '\000';
    tallies = Array.make (owners * stride) 0;
  }

let[@inline] bump t slot = Array.unsafe_set t.tallies slot (Array.unsafe_get t.tallies slot + 1)

let judge t ~owner i dip ~ends =
  (* the two checked accesses bound every unchecked one below: [base]
     is a whole owner's slot block, and [first]/[state] share a length *)
  let base = owner * stride in
  t.tallies.(base + i_packets) <- t.tallies.(base + i_packets) + 1;
  if dip == no_dip then bump t (base + i_dropped);
  let b = Char.code (Bytes.get t.state i) in
  if b land st_live = 0 then begin
    bump t (base + i_connections);
    let bad = dip == no_dip in
    if bad then begin
      bump t (base + i_broken);
      bump t (base + i_violations)
    end;
    Array.unsafe_set t.first i dip;
    Bytes.unsafe_set t.state i (Char.unsafe_chr (st_live lor (if bad then st_bad else 0)))
  end
  else if b land st_excluded = 0 then begin
    let f = Array.unsafe_get t.first i in
    let consistent = f != no_dip && dip != no_dip && Netcore.Endpoint.equal f dip in
    if not consistent then begin
      bump t (base + i_violations);
      if b land st_bad = 0 then begin
        bump t (base + i_broken);
        Bytes.unsafe_set t.state i (Char.unsafe_chr (b lor st_bad))
      end
    end
  end;
  if ends then Bytes.unsafe_set t.state i '\000'

let exclude ?only t dip =
  let n = Array.length t.first in
  let filtered, flow_owner, k =
    match only with
    | Some (flow_owner, k) ->
      if Array.length flow_owner <> n then invalid_arg "Judge.exclude: owner array length";
      (true, flow_owner, k)
    | None -> (false, [||], 0)
  in
  for i = 0 to n - 1 do
    let b = Char.code (Bytes.unsafe_get t.state i) in
    if b land st_live <> 0 && ((not filtered) || Array.unsafe_get flow_owner i = k) then begin
      let f = Array.unsafe_get t.first i in
      if f != no_dip && Netcore.Endpoint.equal f dip then
        Bytes.unsafe_set t.state i (Char.unsafe_chr (b lor st_excluded))
    end
  done

let read value =
  {
    c_packets = value i_packets;
    c_dropped = value i_dropped;
    c_connections = value i_connections;
    c_broken = value i_broken;
    c_violations = value i_violations;
  }

let counts t ~owner = read (fun slot -> t.tallies.((owner * stride) + slot))

let total t =
  read (fun slot ->
      let sum = ref 0 in
      for owner = 0 to (Array.length t.tallies / stride) - 1 do
        sum := !sum + t.tallies.((owner * stride) + slot)
      done;
      !sum)

let first_dip t = t.first

let add_metrics reg c =
  let add name v = Telemetry.Registry.Counter.add (Telemetry.Registry.counter reg name) v in
  add "replay.packets" c.c_packets;
  add "replay.dropped_packets" c.c_dropped;
  add "replay.connections" c.c_connections;
  add "replay.broken_connections" c.c_broken;
  add "replay.violation_packets" c.c_violations
