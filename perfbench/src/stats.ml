let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentile levels tried for the tail, highest first. *)
let tail_levels = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* Samples the tail percentile must leave above it. *)
let tail_beyond = 10

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p ->
      (* nearest-rank percentile: the sample at 1-based rank ceil(p n) *)
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      if rank >= 1 && n - rank >= tail_beyond then Some (p, a.(rank - 1)) else None)
    tail_levels

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type elapsed = { wall : float; cpu : float }

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let clock f =
  let c0 = cpu_now () in
  let v, wall = time f in
  (v, { wall; cpu = cpu_now () -. c0 })

let close ?(rel = 1e-9) a b =
  Float.abs (a -. b) <= rel *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
