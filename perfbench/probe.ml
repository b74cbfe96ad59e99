(* The machine-speed probe. The guest this benchmark runs on changes speed
   by up to about 2x, in phases of seconds to minutes, and a timing taken
   in one phase cannot be compared with one taken in another. So between
   the ops of a measured loop the benchmark times a fixed computation of
   its own, one short slice at a time, and reports each op's time in
   reference milliseconds (unit [ref_ms]): its wall time divided by the
   median slice time around it. One slice takes about 1 ms on the 2-vCPU
   guest the bounds were set on, so a reference millisecond is close to a
   wall millisecond there.

   The slice uses nothing of the library, so a change to the program
   cannot change it. It mixes the three kinds of work the workloads do:
   an interpreter-like integer dispatch loop (the VM), building a small
   balanced map (the compiler's allocation and pointer chasing) and a
   small float matrix product (the kernels). A float loop alone, or a
   memory-latency chase, tracked the workloads' speed worse. *)

module IM = Map.Make (Int)

let code = Array.init 4096 (fun i -> (i * 2654435761) land 7)

(* An interpreter-like loop: dispatch on an opcode array. *)
let dispatch () =
  let acc = ref 1 in
  for r = 0 to 29 do
    for i = 0 to 4095 do
      match Array.unsafe_get code i with
      | 0 -> acc := !acc + i
      | 1 -> acc := !acc lxor (i lsl 3)
      | 2 -> acc := (!acc * 3) land 0xffffff
      | 3 -> acc := !acc - r
      | 4 -> acc := !acc lor 5
      | 5 -> acc := (!acc lsr 1) + i
      | 6 -> acc := !acc + Array.unsafe_get code ((i + r) land 4095)
      | _ -> acc := !acc land 0xfffff
    done
  done;
  !acc

(* Build and fold a 2000-entry map: small enough to die young. *)
let map_work () =
  let m = ref IM.empty in
  for i = 0 to 1999 do
    m := IM.add ((i * 7919) land 4095) i !m
  done;
  IM.fold (fun _ v acc -> acc + v) !m 0

let fa = Array.init (24 * 64) (fun i -> float_of_int (i mod 17) *. 0.01)
let fb = Array.init (64 * 48) (fun i -> float_of_int (i mod 13) *. 0.02)
let fc = Array.make (24 * 48) 0.0

(* A (24, 64) x (64, 48) matrix product. *)
let floats () =
  for i = 0 to 23 do
    for j = 0 to 47 do
      let s = ref 0.0 in
      for k = 0 to 63 do
        s := !s +. (Array.unsafe_get fa ((i * 64) + k) *. Array.unsafe_get fb ((k * 48) + j))
      done;
      fc.((i * 48) + j) <- !s
    done
  done

let sink = ref 0

let slice () =
  sink := !sink + dispatch () + map_work ();
  floats ()

(** Slices are taken at most this often (s), so they cost about 4 % of a
    run. *)
let every = 0.025

(** Slices on each side of an op whose median scales it. *)
let half_window = 20

(** A probe recorder: when each slice ended (wall time) and how long it
    took on [clock], the clock the scaled ops are timed with. *)
type t = { clock : unit -> float; at : Util.Buf.t; ms : Util.Buf.t; mutable last : float }

(** A recorder whose slices are timed with [clock] ({!Util.now} by
    default, or {!Util.cpu_now}). *)
let create ?(clock = Util.now) () =
  (* two untimed slices, so the first timed one finds warm caches *)
  slice ();
  slice ();
  { clock; at = Util.Buf.create (); ms = Util.Buf.create (); last = 0.0 }

let sample p =
  let c0 = p.clock () in
  slice ();
  let c1 = p.clock () in
  let t1 = Util.now () in
  Util.Buf.add p.at t1;
  Util.Buf.add p.ms (1e3 *. (c1 -. c0));
  p.last <- t1

(** Time one slice if {!every} has passed since the last one. Call it
    between ops, never inside a timed span. *)
let tick p = if Util.now () -. p.last >= every then sample p

(** Median slice time (ms) over the whole recording. *)
let median_ms p = Util.median (Util.Buf.to_array p.ms)

let slices p = Util.Buf.length p.ms

(** [ref_ms p ~at ms] scales [ms], the wall time of an op that ended at
    [at], to reference milliseconds: divides it by the median of the
    slices nearest in time ({!half_window} on each side). *)
let ref_ms p ~at ms =
  let n = Util.Buf.length p.at in
  if n = 0 then invalid_arg "Probe.ref_ms: no slices recorded";
  let ats = p.at.Util.Buf.data in
  (* first slice that ended at or after [at] *)
  let rec search lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if ats.(mid) < at then search (mid + 1) hi else search lo mid
  in
  let i = search 0 n in
  let lo = max 0 (min (n - (2 * half_window)) (i - half_window)) in
  let hi = min n (lo + (2 * half_window)) in
  ms /. Util.median (Array.sub p.ms.Util.Buf.data lo (hi - lo))

(** Run [f] {!Util.setups} times, each from a settled heap and timed in
    wall time, with eight probe slices after each; [dispose] every value
    but the last (untimed). The median set-up time scaled to the
    reference speed, in seconds, and the last value. *)
let repeat_setup ?(dispose = ignore) f =
  let p = create () in
  let scaled = Array.make Util.setups 0.0 and ends = Array.make Util.setups 0.0 in
  let last = ref None in
  for i = 0 to Util.setups - 1 do
    Option.iter dispose !last;
    Util.settle ();
    let t0 = Util.now () in
    let v = f () in
    ends.(i) <- Util.now ();
    scaled.(i) <- ends.(i) -. t0;
    last := Some v;
    for _ = 1 to 8 do
      sample p
    done
  done;
  (* [ref_ms] scales any time unit alike: seconds in, reference seconds out *)
  let scaled = Array.mapi (fun i s -> ref_ms p ~at:ends.(i) s) scaled in
  (Util.median scaled, Option.get !last)

(** Stamp lines: the slice count and median (ms). *)
let info p =
  [ ("probe", Fmt.str "%d slices, median %.4f ms" (slices p) (median_ms p)) ]
