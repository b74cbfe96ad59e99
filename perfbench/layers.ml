(* Per-layer probes shared by the workloads: dense-kernel throughput timed
   at the shapes the workloads run, the residue-dispatch hit rate, and the
   VM profiler's counters. *)

open Nimble_tensor
module Dispatch = Nimble_codegen.Dispatch
module Profiler = Nimble_vm.Profiler
module Interp = Nimble_vm.Interp
module Trace = Nimble_vm.Trace

(** Residue-kernel hits over hits and misses, across every dispatcher that
    fired since the last [Dispatch.reset_counters]; 0 when none fired. *)
let dispatch_hit_rate () =
  let h, m =
    List.fold_left
      (fun (h, m) s -> (h + s.Dispatch.snap_hits, m + s.Dispatch.snap_misses))
      (0, 0) (Dispatch.snapshots ())
  in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

(** Dense shapes [(m, k, n)] timed by {!time_dense}: the BERT QKV
    projection at a typical MRPC length, and the one-row LSTM gate
    projection. *)
let dense_shapes = [ ("dense_bert", (24, 64, 192)); ("dense_rnn", (1, 48, 192)) ]

(** Time [(m, k) x (n, k)] dense calls through a residue dispatcher built
    as the emitter builds it: five batches, one [bench.dense] span each,
    carrying the batch's flop count. *)
let time_dense tr =
  List.iter
    (fun (label, (m, k, n)) ->
      let rng = Rng.create ~seed:7 in
      let x = Tensor.randn rng [| m; k |] and w = Tensor.randn rng [| n; k |] in
      let d = Dispatch.create ~name:("bench." ^ label) ~num_kernels:8 () in
      let reps = ref 0 and t0 = Util.now () in
      while Util.now () -. t0 < 0.02 do
        ignore (Dispatch.run d x w);
        incr reps
      done;
      let reps = 5 * !reps in
      let flops = 2.0 *. float_of_int (m * k * n * reps) in
      for _ = 1 to 5 do
        let t0 = Util.now () in
        for _ = 1 to reps do
          ignore (Dispatch.run d x w)
        done;
        Util.span tr ~name:"bench.dense" ~t0 ~t1:(Util.now ())
          [ ("kernel", Trace.Str label); ("flops", Trace.Float flops) ]
      done)
    dense_shapes

(** [kernel.<label>.gflops] from the [bench.dense] spans of a trace file. *)
let dense_metrics events =
  List.map
    (fun (label, _) ->
      let rates =
        Array.of_list
          (List.filter_map
             (fun (e : Util.event) ->
               if e.ev_name = "bench.dense" && Util.arg_string e "kernel" = label then
                 Some (Util.arg_float e "flops" /. (e.ev_dur_us *. 1e3))
               else None)
             events)
      in
      Util.metric ~samples:(Array.length rates)
        (Fmt.str "kernel.%s.gflops" label)
        "GFLOP/s" (Util.median rates))
    dense_shapes

(** Profiler totals summed over several interpreters. *)
type vm_totals = {
  total_s : float;
  kernel_s : float;
  alloc_s : float;
  instrs : int;
  allocs : int;
  kernel_calls : int;
}

let vm_totals vms =
  List.fold_left
    (fun acc vm ->
      let p = Interp.profiler vm in
      {
        total_s = acc.total_s +. p.Profiler.total_seconds;
        kernel_s = acc.kernel_s +. p.Profiler.kernel_seconds;
        alloc_s = acc.alloc_s +. p.Profiler.alloc_seconds;
        instrs = acc.instrs + Profiler.total_instrs p;
        allocs = acc.allocs + Profiler.allocs p;
        kernel_calls = acc.kernel_calls + p.Profiler.kernel_invocations;
      })
    { total_s = 0.0; kernel_s = 0.0; alloc_s = 0.0; instrs = 0; allocs = 0; kernel_calls = 0 }
    vms

(** The [vm.*] metrics per op between two {!vm_totals} snapshots. *)
let vm_metrics ~ops ~frame_reuses (a : vm_totals) (b : vm_totals) =
  let per_op x = x /. float_of_int (max 1 ops) in
  let ms x = per_op (1e3 *. x) in
  let count x = per_op (float_of_int x) in
  [
    Util.metric ~samples:ops "vm.other_ms" "ms"
      (ms (b.total_s -. b.kernel_s -. (a.total_s -. a.kernel_s)));
    Util.metric ~samples:ops "vm.alloc_ms" "ms" (ms (b.alloc_s -. a.alloc_s));
    Util.metric ~samples:ops "vm.kernel_ms" "ms" (ms (b.kernel_s -. a.kernel_s));
    Util.metric ~samples:ops "vm.instrs" "count" (count (b.instrs - a.instrs));
    Util.metric ~samples:ops "vm.allocs" "count" (count (b.allocs - a.allocs));
    Util.metric ~samples:ops "vm.kernel_calls" "count" (count (b.kernel_calls - a.kernel_calls));
    Util.metric ~samples:ops "vm.frame_reuse_ratio" "ratio" (count frame_reuses);
  ]
