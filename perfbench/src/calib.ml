(* The reference computation.  Everything here is fixed: sizes, the
   random stream, the order of work.  It mixes what the library's passes
   spend their time on: integer-indexed graph walks over a CSR-like
   array (TRW-S sweeps, MTTC spreading), small dense float tables
   (min-sum messages), hashing into a table (interning), and dependent
   loads scattered over a 64 MiB array, which, like the 10k-host
   workloads' heaps, does not fit in the caches: on a shared host the
   caches and memory bandwidth are where other tenants' load shows.

   It allocates nothing on the OCaml heap.  Its buffers are bigarrays,
   made once and kept, so it neither moves [peak_heap_mb] nor pays for
   garbage collection, whose cost would grow with the workload's live
   heap and tie the reference's time to the code it normalizes. *)

open Bigarray

let nodes = 1 lsl 14
let degree = 8
let labels = 4
let slots = 1 lsl 15
let keys = 10_000
let chain = 1 lsl 23
let hops = 200_000

type buffers = {
  adj : (int, int_elt, c_layout) Array1.t;  (** [degree] neighbours per node *)
  seen : (int, int8_unsigned_elt, c_layout) Array1.t;
  queue : (int, int_elt, c_layout) Array1.t;
  belief : (float, float64_elt, c_layout) Array1.t;  (** [labels] per node *)
  table : (int, int_elt, c_layout) Array1.t;  (** open addressing, 0 = empty *)
  cycle : (int, int_elt, c_layout) Array1.t;  (** one cycle through every slot *)
}

(* xorshift on the native int: fixed, and free of allocation *)
let next x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17)

let draw x bound = (x land max_int) mod bound

(* A random cyclic permutation (Sattolo's algorithm): following it visits
   every slot in an order no prefetcher can guess. *)
let make_cycle () =
  let a = Array1.create int c_layout chain in
  for i = 0 to chain - 1 do
    Array1.unsafe_set a i i
  done;
  let rng = ref 1729 in
  for i = chain - 1 downto 1 do
    rng := next !rng;
    let j = draw !rng i in
    let t = Array1.unsafe_get a i in
    Array1.unsafe_set a i (Array1.unsafe_get a j);
    Array1.unsafe_set a j t
  done;
  a

let buffers =
  lazy
    {
      adj = Array1.create int c_layout (nodes * degree);
      seen = Array1.create int8_unsigned c_layout nodes;
      queue = Array1.create int c_layout nodes;
      belief = Array1.create float64 c_layout (nodes * labels);
      table = Array1.create int c_layout slots;
      cycle = make_cycle ();
    }

(* Breadth-first spreading from [src] where each edge fires with
   probability 1/2, as an attack simulation spreads; returns the nodes
   reached and the generator state. *)
let spread b src rng =
  Array1.fill b.seen 0;
  Array1.unsafe_set b.seen src 1;
  Array1.unsafe_set b.queue 0 src;
  let head = ref 0 and tail = ref 1 and rng = ref rng in
  while !head < !tail do
    let u = Array1.unsafe_get b.queue !head in
    incr head;
    for k = u * degree to ((u + 1) * degree) - 1 do
      let v = Array1.unsafe_get b.adj k in
      rng := next !rng;
      if Array1.unsafe_get b.seen v = 0 && !rng land 1 = 0 then begin
        Array1.unsafe_set b.seen v 1;
        Array1.unsafe_set b.queue !tail v;
        incr tail
      end
    done
  done;
  (!tail, !rng)

(* Min-sum message updates along every edge with one shared table. *)
let messages b =
  Array1.fill b.belief 0.0;
  for _sweep = 1 to 3 do
    for u = 0 to nodes - 1 do
      for k = u * degree to ((u + 1) * degree) - 1 do
        let v = Array1.unsafe_get b.adj k in
        for l = 0 to labels - 1 do
          let best = ref infinity in
          for m = 0 to labels - 1 do
            let c =
              Array1.unsafe_get b.belief ((u * labels) + m)
              +. float_of_int (((m * labels) + l) * 7 mod 11)
            in
            if c < !best then best := c
          done;
          let i = (v * labels) + l in
          Array1.unsafe_set b.belief i ((0.5 *. Array1.unsafe_get b.belief i) +. (0.125 *. !best))
        done
      done
    done
  done;
  let sum = ref 0.0 in
  for i = 0 to (nodes * labels) - 1 do
    sum := !sum +. Array1.unsafe_get b.belief i
  done;
  !sum

(* Inserts [keys] random keys by linear probing; returns the probes
   made and the generator state. *)
let intern b rng =
  Array1.fill b.table 0;
  let rng = ref rng and probes = ref 0 in
  for _ = 1 to keys do
    rng := next !rng;
    let key = 1 + draw !rng 1_000_000 in
    let i = ref (key * 0x9E3779B1 land (slots - 1)) in
    while
      let s = Array1.unsafe_get b.table !i in
      s <> 0 && s <> key
    do
      incr probes;
      i := (!i + 1) land (slots - 1)
    done;
    Array1.unsafe_set b.table !i key
  done;
  (!probes, !rng)

(* [hops] dependent loads along the cycle: each waits for the last. *)
let chase b =
  let i = ref 0 in
  for _ = 1 to hops do
    i := Array1.unsafe_get b.cycle !i
  done;
  !i

let run b =
  let rng = ref 20200629 in
  for k = 0 to (nodes * degree) - 1 do
    rng := next !rng;
    Array1.unsafe_set b.adj k (draw !rng nodes)
  done;
  let reached = ref 0 in
  for s = 0 to 11 do
    let r, g = spread b (s * 97 mod nodes) !rng in
    reached := !reached + r;
    rng := g
  done;
  let belief = messages b in
  let probes, _ = intern b !rng in
  (!reached, Int64.bits_of_float belief, probes, chase b)

let nominal_s = 0.09

(* the first run's result, which every later run must reproduce *)
let reference = ref None

let time () =
  (* the buffers are made outside the timed region, on the first call *)
  let b = Lazy.force buffers in
  let v, e = Stats.clock (fun () -> run b) in
  (match !reference with
  | None -> reference := Some v
  | Some r -> if v <> r then failwith "calibration: the reference computation changed its result");
  e.Stats.cpu
