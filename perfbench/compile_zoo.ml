(* compile-zoo: a closed loop with one caller. One op compiles all eleven
   zoo models once, in a seeded order, each from a freshly built module
   (built outside the timed span). This is where the compile passes do
   most of the work. A run is a fixed number of ops, back to back, not a
   fixed time: every compile leaves memory behind (see NOTES.md), so a
   run that compiled for as long as the machine allowed would grow its
   peak RSS with the machine's speed. End-to-end times are in reference
   units ({!Probe}). *)

module Trace = Nimble_vm.Trace

(** Ops per second of [--seconds]: 25 s give 91 ops, 1001 model compiles,
    so the per-model p99 has ten samples beyond it. They take about 8 to
    12 s on a 2-core x86-64 guest. *)
let ops_per_second = 3.64

type phase = {
  ops : int;
  failed : int;
  op_ref : float array;  (** one zoo pass, in reference units *)
  model_ref : float array;  (** one model's compile, in reference units *)
  us_per_node : float;  (** in reference units *)
  rounds : (float * Zoo.Nimble.report) list list;  (** kept when traced *)
  exe_kib : float;
  wall_s : float;
}

(* [n] ops back to back, timing a probe slice between compiles. A compile
   is timed in CPU time: it runs on this one domain and never blocks, so
   that leaves out only the time the machine took the CPU away. With
   [trace], every compile records a span into it and the rounds' reports
   are kept for the compile-layer metrics. *)
let phase ?trace ~rng ~ops:n w =
  let probe = Probe.create ~clock:Util.cpu_now () in
  let op_ms = Util.Buf.create () and model_ms = Util.Buf.create () in
  let op_end = Util.Buf.create () and model_end = Util.Buf.create () in
  let ops = ref 0 and failed = ref 0 and nodes = ref 0 in
  let rounds = ref [] and exe_kib = ref 0.0 in
  let t_start = Util.now () in
  while !ops < n do
    let ok = ref true and op_s = ref 0.0 in
    let round =
      List.filter_map
        (fun name ->
          match Zoo.compile ?trace w name with
          | c ->
              Util.Buf.add model_ms (1e3 *. c.Zoo.cpu_seconds);
              Util.Buf.add model_end (Util.now ());
              Probe.tick probe;
              op_s := !op_s +. c.Zoo.cpu_seconds;
              nodes := !nodes + c.Zoo.nodes;
              if Zoo.violations c > 0 then ok := false;
              Some c
          | exception e ->
              Fmt.epr "compile %s failed: %s@." name (Printexc.to_string e);
              ok := false;
              None)
        (Array.to_list (Util.shuffle rng (Array.of_list Zoo.names)))
    in
    if !ops = 0 then exe_kib := Zoo.exe_kib round;
    Util.Buf.add op_ms (1e3 *. !op_s);
    Util.Buf.add op_end (Util.now ());
    if trace <> None then rounds := List.map Zoo.timing round :: !rounds;
    incr ops;
    if not !ok then incr failed
  done;
  let wall_s = Util.now () -. t_start in
  let scale ms at =
    let at = Util.Buf.to_array at in
    Array.mapi (fun k ms -> Probe.ref_ms probe ~at:at.(k) ms) (Util.Buf.to_array ms)
  in
  let model_ref = scale model_ms model_end in
  ( {
      ops = !ops;
      failed = !failed;
      op_ref = scale op_ms op_end;
      model_ref;
      us_per_node = 1e3 *. Util.sum model_ref /. float_of_int (max 1 !nodes);
      rounds = List.rev !rounds;
      exe_kib = !exe_kib;
      wall_s;
    },
    probe )

let run ~seed ~seconds ~traced ~meta =
  let rng = Nimble_tensor.Rng.create ~seed in
  (* set-up: build the weights and compile every model once (warm-up) *)
  let setup_s, w =
    Probe.repeat_setup (fun () ->
        let w = Zoo.init_weights () in
        List.iter (fun name -> ignore (Zoo.compile w name)) Zoo.names;
        w)
  in
  let ops = max 10 (int_of_float (Float.round (seconds *. ops_per_second))) in
  let info (p, probe) =
    [
      ("ops", string_of_int p.ops);
      ("duration_s", Fmt.str "%.3f" p.wall_s);
      ("compiles", string_of_int (Array.length p.model_ref));
    ]
    @ Probe.info probe
  in
  Util.settle ();
  if not traced then begin
    let ((p, _) as r) = phase ~rng ~ops w in
    let compiles = Array.length p.model_ref in
    {
      Util.metrics =
        [
          Util.metric "setup_s" "s" ~samples:Util.setups setup_s;
          Util.metric "compile_ms.p50" "ref_ms" ~samples:p.ops (Util.percentile p.op_ref 50.0);
          Util.metric "compile_ms.p90" "ref_ms" ~samples:p.ops (Util.percentile p.op_ref 90.0);
          Util.metric "exe_kb" "KiB" p.exe_kib;
          Util.metric "latency_ms.p50" "ref_ms" ~samples:compiles (Util.percentile p.model_ref 50.0);
          Util.metric "latency_ms.p99" "ref_ms" ~samples:compiles (Util.percentile p.model_ref 99.0);
          Util.metric "us_per_token" "ref_us" ~samples:compiles p.us_per_node;
        ];
      attempted = p.ops;
      failed = p.failed;
      info = info r;
    }
  end
  else begin
    (* the program records no spans of its own while compiling: trace.*
       is n/a here *)
    let tr = Util.make_trace () in
    let ((p, _) as r) = phase ~trace:tr ~rng ~ops:(ops / 2) w in
    Layers.time_dense tr;
    let events = Util.save_and_load tr ~meta (Util.trace_path ~workload:"compile-zoo" ~seed) in
    {
      Util.metrics =
        Zoo.compile_metrics p.rounds
        @ Layers.dense_metrics events
        @ [ Util.metric "trace.dropped" "count" (float_of_int (Trace.dropped tr)) ];
      attempted = p.ops;
      failed = p.failed;
      info = info r;
    }
  end
