(* serve-bert: a closed loop with one client. Each request carries a
   BERT input of MRPC length. The client submits it to an engine with one
   VM worker, waits for the result, and sends the next request once it has
   checked this one. Latency runs from the submit call to the result, so
   it covers admission, the queue, the batch former, worker pickup, the
   run and completion, but no wait behind other requests: an open loop's
   queueing magnified the machine's speed swings in its tail beyond any
   bound the benchmark could keep (see NOTES.md). An end-to-end run times
   the compiles for [compile_ms.*] after the loop. End-to-end times are in
   reference units ({!Probe}). *)

open Nimble_tensor
module Engine = Nimble_serve.Engine
module Stats = Nimble_serve.Stats
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj
module Trace = Nimble_vm.Trace

(** Rounds of five bert compiles after the loop, timed for
    [compile_ms.*]. A round sums five compiles, so its time does not
    jump between the two modes a single compile's time shows. *)
let compile_rounds = 30

(** An end-to-end run serves at least this many requests, so its p99 has
    ten samples beyond it. *)
let min_samples = 1000

(** Request lengths drawn per run, then cycled. *)
let draws = 250

let config = { Engine.default_config with Engine.workers = 1 }

(** One distinct input length: the input, its reference output and the
    output of a sequential interpreter run of the served executable. *)
type input = { x : Tensor.t; reference : Tensor.t; mutable sequential : Tensor.t option }

(* Build, compile and start an engine, then warm it with one request per
   bucket at the bucket's longest length. *)
let start ?trace w inputs =
  let c = Zoo.compile w "bert" in
  let engine = Engine.create ~config ?trace c.Zoo.exe in
  let longest = Hashtbl.create 8 in
  Hashtbl.iter
    (fun len i ->
      let key = Nimble_serve.Bucket.key config.Engine.policy (Tensor.shape i.x) in
      match Hashtbl.find_opt longest key with
      | Some l when l >= len -> ()
      | _ -> Hashtbl.replace longest key len)
    inputs;
  Hashtbl.iter
    (fun _ len ->
      let x = (Hashtbl.find inputs len).x in
      ignore (Engine.run engine ~shape:(Tensor.shape x) (Obj.tensor x)))
    longest;
  (c, engine)

type phase = {
  n : int;
  failed : int;
  latency_ms : float array;  (** submit to result, wall time *)
  latency_ref : float array;  (** the same in reference units *)
  start : float array;  (** absolute times (s) *)
  submitted : float array;
  complete : float array;
  lens : int array;
  engine_ix : int array;  (** which engine served each request *)
  wall_s : float;
}

(* Serve requests for [seconds], and until [min_count] of them, then to
   the end of the pass over [draw], so every run sends each drawn length
   equally often. Latency is wall time, as the client sees it: the
   request crosses three domains and waits on the batch former, so CPU
   time would not show it. A wall-time probe slice is timed between
   requests. Request [i] goes to engine [i mod engines]. *)
let phase ~probe ~seconds ~min_count ~engines ~engine inputs draw =
  let start = Util.Buf.create () and submitted = Util.Buf.create () in
  let complete = Util.Buf.create () and lens = ref [] in
  let n = ref 0 and failed = ref 0 in
  let t_start = Util.now () in
  let elapsed () = Util.now () -. t_start in
  while
    (elapsed () < seconds || !n < min_count || !n mod Array.length draw <> 0)
    && elapsed () < (3.0 *. seconds) +. 30.0
  do
    let len = draw.(!n mod Array.length draw) in
    let input = Hashtbl.find inputs len in
    let t0 = Util.now () in
    let r = Engine.submit (engine (!n mod engines)) ~shape:(Tensor.shape input.x) (Obj.tensor input.x) in
    let t1 = Util.now () in
    let o = Result.map Engine.wait r in
    let t2 = Util.now () in
    let ok =
      match o with
      | Ok (Ok o) -> (
          match (Obj.to_tensor o, input.sequential) with
          | t, Some s -> Tensor.equal s t && Zoo.matches input.reference t
          | _, None -> false
          | exception _ -> false)
      | Ok (Error _) | Error _ -> false
    in
    if not ok then incr failed;
    Util.Buf.add start t0;
    Util.Buf.add submitted t1;
    Util.Buf.add complete t2;
    lens := len :: !lens;
    incr n;
    Probe.tick probe
  done;
  let wall_s = elapsed () in
  let start = Util.Buf.to_array start and complete = Util.Buf.to_array complete in
  let latency_ms = Array.mapi (fun i t2 -> 1e3 *. (t2 -. start.(i))) complete in
  {
    n = !n;
    failed = !failed;
    latency_ms;
    latency_ref = Array.mapi (fun i ms -> Probe.ref_ms probe ~at:complete.(i) ms) latency_ms;
    start;
    submitted = Util.Buf.to_array submitted;
    complete;
    lens = Array.of_list (List.rev !lens);
    engine_ix = Array.init !n (fun i -> i mod engines);
    wall_s;
  }

(* The requests of [p] served by engine [e]. *)
let served_by p e = List.filter (fun i -> p.engine_ix.(i) = e) (List.init p.n Fun.id)

let latencies p idx = Array.of_list (List.map (fun i -> p.latency_ms.(i)) idx)

(* Record the client's spans of the requests [idx] into [tr], once the
   engine writing to it has stopped. *)
let record_requests tr p idx =
  List.iter
    (fun i ->
      let args = [ ("len", Trace.Int p.lens.(i)) ] in
      Util.span tr ~name:"bench.submit" ~t0:p.start.(i) ~t1:p.submitted.(i) args;
      Util.span tr ~name:"bench.request" ~t0:p.start.(i) ~t1:p.complete.(i) args)
    idx

let run ~seed ~seconds ~traced ~meta =
  let rng = Rng.create ~seed in
  let w = Zoo.init_weights () in
  let draw = Util.stratified_lengths rng Nimble_workloads.Mrpc.length_histogram draws in
  (* one input and one reference per distinct length *)
  let inputs = Hashtbl.create 64 in
  Array.iter
    (fun len ->
      if not (Hashtbl.mem inputs len) then begin
        let x = Nimble_models.Bert.embed w.Zoo.bert (Nimble_models.Bert.random_ids ~seed w.Zoo.bert ~len) in
        Hashtbl.replace inputs len
          { x; reference = Nimble_models.Bert.reference w.Zoo.bert x; sequential = None }
      end)
    draw;
  let setup_s, (compiled, engine) =
    Probe.repeat_setup ~dispose:(fun (_, e) -> Engine.shutdown e) (fun () -> start w inputs)
  in
  (* the sequential outputs every served output must equal bitwise *)
  let seq_vm = Interp.create compiled.Zoo.exe and seq_ctx = Interp.context () in
  let run_sequential () =
    Hashtbl.iter
      (fun _ i ->
        match Interp.run_tensors_result ~ctx:seq_ctx seq_vm [ i.x ] with
        | Ok t -> i.sequential <- Some t
        | Error _ -> i.sequential <- None)
      inputs
  in
  run_sequential ();
  (* the compiles are timed in CPU time, so their probe is too *)
  let compile_after () =
    Zoo.timed_rounds (Probe.create ~clock:Util.cpu_now ()) w ~rounds:compile_rounds
      (List.init 5 (fun _ -> "bert"))
  in
  let info p probe =
    [
      ("ops", string_of_int p.n);
      ("duration_s", Fmt.str "%.3f" p.wall_s);
      ("clients", "1 (closed loop)");
      ("distinct_inputs", string_of_int (Hashtbl.length inputs));
      ( "engine",
        Fmt.str "workers=%d queue=%d max_batch=%d max_wait_us=%g policy=%a" config.Engine.workers
          config.Engine.queue_capacity config.Engine.max_batch config.Engine.max_wait_us
          Nimble_serve.Bucket.pp_policy config.Engine.policy );
      ("latency_wall_ms.p50", Fmt.str "%.4f" (Util.median p.latency_ms));
    ]
    @ Probe.info probe
  in
  let probe = Probe.create () in
  if not traced then begin
    Util.settle ();
    let p =
      phase ~probe ~seconds ~min_count:min_samples ~engines:1 ~engine:(fun _ -> engine) inputs draw
    in
    Engine.shutdown engine;
    let _, round_ref = compile_after () in
    let tokens = Array.fold_left ( + ) 0 p.lens in
    {
      Util.metrics =
        [
          Util.metric "setup_s" "s" ~samples:Util.setups setup_s;
          Util.metric "compile_ms.p50" "ref_ms" ~samples:compile_rounds (Util.percentile round_ref 50.0);
          Util.metric "compile_ms.p90" "ref_ms" ~samples:compile_rounds (Util.percentile round_ref 90.0);
          Util.metric "exe_kb" "KiB" (Zoo.exe_kib [ compiled ]);
          Util.metric "latency_ms.p50" "ref_ms" ~samples:p.n (Util.percentile p.latency_ref 50.0);
          Util.metric "latency_ms.p99" "ref_ms" ~samples:p.n (Util.percentile p.latency_ref 99.0);
          Util.metric "us_per_token" "ref_us" ~samples:p.n
            (1e3 *. Util.sum p.latency_ref /. float_of_int (max 1 tokens));
        ];
      attempted = p.n;
      failed = p.failed;
      info = info p probe;
    }
  end
  else begin
    (* requests alternate between the untraced engine and a second one
       that records serve.* spans, so both see the same machine *)
    let tr = Util.make_trace () in
    let _, traced_engine = start ~trace:tr w inputs in
    let s0 = Engine.stats traced_engine in
    Nimble_codegen.Dispatch.reset_counters ();
    Util.settle ();
    let phase_start = Util.now () in
    let p =
      phase ~probe ~seconds ~min_count:0 ~engines:2
        ~engine:(fun e -> if e = 1 then traced_engine else engine)
        inputs draw
    in
    Engine.shutdown engine;
    Engine.shutdown traced_engine;
    let s1 = Engine.stats traced_engine in
    let hit_rate = Layers.dispatch_hit_rate () in
    let traced_idx = served_by p 1 in
    record_requests tr p traced_idx;
    (* the VM layer, from a profiled sequential pass over the inputs *)
    let vm0 = Layers.vm_totals [ seq_vm ] and reuse0 = Interp.frame_reuses seq_ctx in
    run_sequential ();
    let vm1 = Layers.vm_totals [ seq_vm ] and reuse1 = Interp.frame_reuses seq_ctx in
    Layers.time_dense tr;
    (* drop the traced engine's warm-up spans *)
    let epoch = Util.now () -. (Trace.now_us tr /. 1e6) in
    let phase_start_us = (phase_start -. epoch) *. 1e6 in
    let events =
      List.filter
        (fun (e : Util.event) -> e.ev_ts_us >= phase_start_us)
        (Util.save_and_load tr ~meta (Util.trace_path ~workload:"serve-bert" ~seed))
    in
    let ms name = Util.durations_ms events name in
    let exec_ms =
      Array.of_list
        (List.filter_map
           (fun (e : Util.event) ->
             if e.ev_name = "serve.exec" && Util.arg_string e "outcome" = "ok" then
               Some (e.ev_dur_us /. 1e3)
             else None)
           events)
    in
    let request_ms = ms "bench.request" in
    let served = Array.length request_ms in
    let bind_ms = Util.sum (ms "serve.arena_bind") /. float_of_int (max 1 served) in
    let completed = s1.Stats.s_completed - s0.Stats.s_completed in
    let allocs (s : Stats.summary) = s.Stats.s_allocs_per_request *. float_of_int s.Stats.s_completed in
    let p50 = Util.median request_ms in
    let p50_plain = Util.median (latencies p (served_by p 0)) in
    let mean_request = Util.mean request_ms in
    {
      Util.metrics =
        Zoo.compile_metrics (List.concat_map (List.map (fun c -> [ c ])) (fst (compile_after ())))
        @ Layers.vm_metrics ~ops:(Hashtbl.length inputs) ~frame_reuses:(reuse1 - reuse0) vm0 vm1
        @ Layers.dense_metrics events
        @ [
            Util.metric "dispatch.hit_rate" "ratio" hit_rate;
            Util.metric "serve.admit_us.p50" "us" ~samples:served (1e3 *. Util.median (ms "bench.submit"));
            Util.metric "serve.exec_ms.p50" "ms" ~samples:(Array.length exec_ms) (Util.median exec_ms);
            Util.metric "serve.arena_bind_ms.mean" "ms" ~samples:served bind_ms;
            Util.metric "serve.wait_ms.mean" "ms" ~samples:served
              (mean_request -. Util.mean exec_ms -. bind_ms);
            Util.metric "serve.latency_ms.mean" "ms" ~samples:served mean_request;
            Util.metric "serve.batch_size.mean" "count"
              (float_of_int completed /. float_of_int (max 1 (s1.Stats.s_batches - s0.Stats.s_batches)));
            Util.metric "serve.queue_hwm" "count" (float_of_int s1.Stats.s_queue_depth_hwm);
            Util.metric "serve.allocs_per_request" "count"
              ((allocs s1 -. allocs s0) /. float_of_int (max 1 completed));
            Util.metric "trace.latency_ms.p50" "ms" ~samples:served p50;
            Util.metric "trace.overhead_pct" "%" (100.0 *. (p50 -. p50_plain) /. p50_plain);
            Util.metric "trace.dropped" "count" (float_of_int (Trace.dropped tr));
          ];
      attempted = p.n;
      failed = p.failed;
      info = info p probe;
    }
  end
