(* Wall time comes from CLOCK_MONOTONIC through bechamel's stub, never
   from Sys.time or Harness.Stopwatch: those read process CPU time,
   which sums over Domains and so overstates a parallel run's wall
   time. CPU time is read from Unix.times, for CPU/wall ratios only. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
