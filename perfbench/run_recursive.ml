(* run-recursive: a closed loop with one caller. One op is one
   [Interp.invoke_result] on a warm interpreter (one execution context per
   model), on the next input of a seeded pool over the five recursive
   models, visited in a seeded order. Control flow, ADT construction,
   [Invoke] recursion and per-step allocation give the VM's own work its
   largest share here. The compiles timed for [compile_ms.*] run after
   the measured loop, so their garbage is not charged to the invokes.
   End-to-end times are in reference units ({!Probe}). *)

module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj
module Trace = Nimble_vm.Trace

(** Pool inputs per model. *)
let per_model = 50

(** Compiles of the five models after the loop, timed for
    [compile_ms.*]. *)
let compile_rounds = 300

let min_samples = 1000

type model = { name : string; vm : Interp.t; ctx : Interp.ctx }

(* Compile the five models, create their interpreters, and run every pool
   input once so storage pools and frames are warm. *)
let setup w pool =
  let compiled = List.map (Zoo.compile w) Zoo.recursive_models in
  let models =
    List.map
      (fun c -> { name = c.Zoo.model; vm = Interp.create c.Zoo.exe; ctx = Interp.context () })
      compiled
  in
  let by_input = Array.map (fun i -> List.find (fun m -> m.name = i.Zoo.in_model) models) pool in
  Array.iteri
    (fun k i ->
      let m = by_input.(k) in
      ignore (Interp.invoke_result ~ctx:m.ctx m.vm [ i.Zoo.arg ]))
    pool;
  (compiled, models, by_input)

type phase = {
  ops : int;
  failed : int;
  op_ms : float array;  (** CPU time per invoke *)
  op_ref : float array;  (** the same in reference units *)
  tokens : int;
  wall_s : float;
}

(* Invoke for [seconds], and until [min_samples] ops, then to the end of
   the pass over the pool, so every run invokes each input equally often.
   An invoke is timed in CPU time: it runs on this one domain and never
   blocks, so that leaves out only the time the machine took the CPU
   away. A probe slice is timed between ops. With [trace], every op
   records a span into it. *)
let phase ?trace ~probe ~order ~seconds pool by_input =
  let op_ms = Util.Buf.create () and op_end = Util.Buf.create () in
  let ops = ref 0 and failed = ref 0 and tokens = ref 0 in
  let t_start = Util.now () in
  let elapsed () = Util.now () -. t_start in
  while
    (elapsed () < seconds || !ops < min_samples || !ops mod Array.length order <> 0)
    && elapsed () < (3.0 *. seconds) +. 30.0
  do
    let k = order.(!ops mod Array.length order) in
    let i = pool.(k) and m = by_input.(k) in
    let t0 = Util.now () and c0 = Util.cpu_now () in
    let r = Interp.invoke_result ~ctx:m.ctx m.vm [ i.Zoo.arg ] in
    let t1 = Util.now () and c1 = Util.cpu_now () in
    Option.iter
      (fun tr ->
        Util.span tr ~name:"bench.invoke" ~t0 ~t1
          [ ("model", Trace.Str m.name); ("tokens", Trace.Int i.Zoo.tokens) ])
      trace;
    Util.Buf.add op_ms (1e3 *. (c1 -. c0));
    Util.Buf.add op_end t1;
    tokens := !tokens + i.Zoo.tokens;
    incr ops;
    let ok =
      match r with
      | Ok o -> ( try Zoo.matches i.Zoo.reference (Obj.to_tensor o) with _ -> false)
      | Error _ -> false
    in
    if not ok then incr failed;
    Probe.tick probe
  done;
  let wall_s = elapsed () in
  let op_ms = Util.Buf.to_array op_ms and op_end = Util.Buf.to_array op_end in
  {
    ops = !ops;
    failed = !failed;
    op_ms;
    op_ref = Array.mapi (fun k ms -> Probe.ref_ms probe ~at:op_end.(k) ms) op_ms;
    tokens = !tokens;
    wall_s;
  }

let run ~seed ~seconds ~traced ~meta =
  let rng = Nimble_tensor.Rng.create ~seed in
  let w = Zoo.init_weights () in
  let pool =
    Array.concat (List.map (fun name -> Zoo.draw_inputs w rng name per_model) Zoo.recursive_models)
  in
  let order = Util.shuffle rng (Array.init (Array.length pool) Fun.id) in
  let setup_s, (compiled, models, by_input) =
    Probe.repeat_setup (fun () -> setup w pool)
  in
  let compile_after probe =
    Zoo.timed_rounds probe w ~rounds:compile_rounds Zoo.recursive_models
  in
  let info p probe =
    [
      ("ops", string_of_int p.ops);
      ("duration_s", Fmt.str "%.3f" p.wall_s);
      ("pool", Fmt.str "%d inputs (%d per model)" (Array.length pool) per_model);
      ("latency_cpu_ms.p50", Fmt.str "%.4f" (Util.percentile p.op_ms 50.0));
    ]
    @ Probe.info probe
  in
  let probe = Probe.create ~clock:Util.cpu_now () in
  if not traced then begin
    Util.settle ();
    let p = phase ~probe ~order ~seconds pool by_input in
    let _, round_ref = compile_after probe in
    let rounds = Array.length round_ref in
    {
      Util.metrics =
        [
          Util.metric "setup_s" "s" ~samples:Util.setups setup_s;
          Util.metric "compile_ms.p50" "ref_ms" ~samples:rounds (Util.percentile round_ref 50.0);
          Util.metric "compile_ms.p90" "ref_ms" ~samples:rounds (Util.percentile round_ref 90.0);
          Util.metric "exe_kb" "KiB" (Zoo.exe_kib compiled);
          Util.metric "latency_ms.p50" "ref_ms" ~samples:p.ops (Util.percentile p.op_ref 50.0);
          Util.metric "latency_ms.p99" "ref_ms" ~samples:p.ops (Util.percentile p.op_ref 99.0);
          Util.metric "us_per_token" "ref_us" ~samples:p.ops
            (1e3 *. Util.sum p.op_ref /. float_of_int (max 1 p.tokens));
        ];
      attempted = p.ops;
      failed = p.failed;
      info = info p probe;
    }
  end
  else begin
    let tr = Util.make_trace () in
    let vms = List.map (fun m -> m.vm) models in
    let reuses () = List.fold_left (fun a m -> a + Interp.frame_reuses m.ctx) 0 models in
    let vm0 = Layers.vm_totals vms and reuse0 = reuses () in
    Nimble_codegen.Dispatch.reset_counters ();
    Util.settle ();
    let p = phase ~trace:tr ~probe ~order ~seconds pool by_input in
    let hit_rate = Layers.dispatch_hit_rate () in
    let vm1 = Layers.vm_totals vms and reuse1 = reuses () in
    Layers.time_dense tr;
    let events = Util.save_and_load tr ~meta (Util.trace_path ~workload:"run-recursive" ~seed) in
    let invokes = List.filter (fun (e : Util.event) -> e.ev_name = "bench.invoke") events in
    let per_model name =
      let es = List.filter (fun e -> Util.arg_string e "model" = name) invokes in
      let us = List.fold_left (fun a (e : Util.event) -> a +. e.ev_dur_us) 0.0 es in
      let tokens = List.fold_left (fun a e -> a +. Util.arg_float e "tokens") 0.0 es in
      Util.metric ~samples:(List.length es) (Fmt.str "model.%s.us_per_token" name) "us"
        (us /. Float.max 1.0 tokens)
    in
    {
      Util.metrics =
        Zoo.compile_metrics (fst (compile_after probe))
        @ Layers.vm_metrics ~ops:p.ops ~frame_reuses:(reuse1 - reuse0) vm0 vm1
        @ List.map per_model Zoo.recursive_models
        @ Layers.dense_metrics events
        @ [
            Util.metric "dispatch.hit_rate" "ratio" hit_rate;
            Util.metric "trace.dropped" "count" (float_of_int (Trace.dropped tr));
          ];
      attempted = p.ops;
      failed = p.failed;
      info = info p probe;
    }
  end
