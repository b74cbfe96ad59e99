(* The model zoo as the benchmark sees it: fresh IR modules for the
   compiler, seeded inputs and reference outputs for the runnable models,
   and the compile layer's timings and counters. Configurations match
   nimble_cli's zoo. *)

open Nimble_tensor
open Nimble_models
module Nimble = Nimble_compiler.Nimble
module Obj = Nimble_vm.Obj
module Adt = Nimble_ir.Adt
module Ty = Nimble_ir.Ty
module Dim = Nimble_ir.Dim
module Trace = Nimble_vm.Trace

(* ------------------------------ weights ------------------------------ *)

type weights = {
  lstm : Lstm.weights;
  gru : Gru.weights;
  treelstm : Tree_lstm.weights;
  seq2seq : Seq2seq.weights;
  decoder : Decoder.weights;
  posenc : Posenc.weights;
  bert : Bert.weights;
}

let init_weights () =
  {
    lstm = Lstm.init_weights Lstm.small_config;
    gru = Gru.init_weights Gru.small_config;
    treelstm = Tree_lstm.init_weights Tree_lstm.small_config;
    seq2seq = Seq2seq.init_weights Seq2seq.default_config;
    decoder = Decoder.init_weights Decoder.default_config;
    posenc = Posenc.init_weights Posenc.default_config;
    bert = Bert.init_weights Bert.small_config;
  }

(** A builder per zoo model. Each call returns a fresh module:
    [Nimble.compile] rewrites its argument in place, so a module value is
    compiled at most once. *)
let builders w : (string * (unit -> Nimble_ir.Irmod.t)) list =
  [
    ("lstm", fun () -> Lstm.ir_module w.lstm);
    ("gru", fun () -> Gru.ir_module w.gru);
    ("treelstm", fun () -> Tree_lstm.ir_module w.treelstm);
    ("seq2seq", fun () -> Seq2seq.ir_module w.seq2seq);
    ("decoder", fun () -> Decoder.ir_module w.decoder);
    ("posenc", fun () -> Posenc.ir_module w.posenc);
    ("bert", fun () -> Bert.ir_module w.bert);
  ]
  @ Vision.all

let builder w name = List.assoc name (builders w)

(** The eleven zoo models, in {!builders} order. *)
let names =
  [ "lstm"; "gru"; "treelstm"; "seq2seq"; "decoder"; "posenc"; "bert"; "resnet";
    "mobilenet"; "vgg"; "squeezenet" ]

(* ------------------------------ compiling ---------------------------- *)

(** One timed compile of a freshly built module. *)
type compiled = {
  model : string;
  nodes : int;  (** IR nodes of the input module *)
  seconds : float;  (** [compile_with_report] wall time *)
  cpu_seconds : float;  (** its CPU time *)
  exe : Nimble_vm.Exe.t;
  report : Nimble.report;
}

let violations (c : compiled) =
  List.fold_left (fun acc v -> acc + v.Nimble.violations) 0 c.report.Nimble.verify

(** Build [name]'s module (untimed), then time its compile; records a
    [bench.compile] span when [trace] is given. *)
let compile ?trace w name =
  let m = builder w name () in
  let nodes = Nimble.ir_size m in
  let t0 = Util.now () and c0 = Util.cpu_now () in
  let exe, report = Nimble.compile_with_report m in
  let t1 = Util.now () and c1 = Util.cpu_now () in
  Option.iter
    (fun tr -> Util.span tr ~name:"bench.compile" ~t0 ~t1 [ ("model", Trace.Str name) ])
    trace;
  { model = name; nodes; seconds = t1 -. t0; cpu_seconds = c1 -. c0; exe; report }

(** What {!compile_metrics} keeps of a compile: its time and report. *)
let timing c = (c.seconds, c.report)

(** [rounds] compile rounds of [models] from a compacted heap, with
    slices of [probe] (a CPU-time probe) between the compiles: the
    rounds' {!timing}s, and each round's CPU time in reference ms. A
    slice after every compile, not every round, lets the probe follow
    the machine through a round as long as serve-bert's (five bert
    compiles, about 0.2 s). *)
let timed_rounds probe w ~rounds models =
  Util.settle ();
  let timed =
    List.init rounds (fun _ ->
        let round =
          List.map
            (fun name ->
              let c = compile w name in
              Probe.tick probe;
              c)
            models
        in
        let ms = 1e3 *. List.fold_left (fun a c -> a +. c.cpu_seconds) 0.0 round in
        (List.map timing round, ms, Util.now ()))
  in
  ( List.map (fun (r, _, _) -> r) timed,
    Array.of_list (List.map (fun (_, ms, at) -> Probe.ref_ms probe ~at ms) timed) )

(** Size of the serialized executables, in KiB. *)
let exe_kib cs =
  float_of_int
    (List.fold_left
       (fun acc c -> acc + String.length (Nimble_vm.Serialize.to_bytes c.exe))
       0 cs)
  /. 1024.0

(** Report pass names numbered by occurrence where a name repeats within
    one compile ([anf.1], [anf.2], [dce.1], [dce.2]). *)
let numbered_passes (r : Nimble.report) =
  let total name =
    List.length (List.filter (fun p -> p.Nimble.pass_name = name) r.Nimble.passes)
  in
  let seen = Hashtbl.create 16 in
  List.map
    (fun (p : Nimble.pass_stat) ->
      let k = 1 + Option.value ~default:0 (Hashtbl.find_opt seen p.pass_name) in
      Hashtbl.replace seen p.pass_name k;
      let name = if total p.pass_name > 1 then Fmt.str "%s.%d" p.pass_name k else p.pass_name in
      (name, p))
    r.Nimble.passes


(** The compile layer's metrics over [rounds], each round the
    {!timing}s of one compile of the workload's model set: per-pass,
    verify and emit times as the median over rounds of the round's
    total, plus the counters of the last round. *)
let compile_metrics (rounds : (float * Nimble.report) list list) : Util.metric list =
  let n = List.length rounds in
  let per_round f = Array.of_list (List.map f rounds) in
  let total_ms f cs = 1e3 *. List.fold_left (fun acc c -> acc +. f c) 0.0 cs in
  let pass_names =
    match rounds with
    | ((_, r) :: _) :: _ -> List.map fst (numbered_passes r)
    | _ -> []
  in
  let pass_seconds name (_, r) =
    List.fold_left
      (fun acc (nm, (p : Nimble.pass_stat)) -> if nm = name then acc +. p.pass_seconds else acc)
      0.0 (numbered_passes r)
  in
  let verify_seconds (_, r) =
    List.fold_left (fun acc v -> acc +. v.Nimble.verify_seconds) 0.0 r.Nimble.verify
  in
  let all_passes (_, r) =
    List.fold_left (fun acc p -> acc +. p.Nimble.pass_seconds) 0.0 r.Nimble.passes
  in
  let emit_seconds c = fst c -. all_passes c -. verify_seconds c in
  let last = match List.rev rounds with r :: _ -> List.map snd r | [] -> [] in
  let count f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 last) in
  List.map
    (fun name ->
      Util.metric ~samples:n (Fmt.str "pass.%s.ms" name) "ms"
        (Util.median (per_round (total_ms (pass_seconds name)))))
    pass_names
  @ [
      Util.metric ~samples:n "verify.ms" "ms" (Util.median (per_round (total_ms verify_seconds)));
      Util.metric ~samples:n "emit.ms" "ms" (Util.median (per_round (total_ms emit_seconds)));
      Util.metric "compile.noop_passes" "count"
        (count (fun r ->
             List.length
               (List.filter
                  (fun p -> p.Nimble.nodes_before = p.Nimble.nodes_after)
                  r.Nimble.passes)));
      Util.metric "compile.instructions" "count" (count (fun r -> r.Nimble.instructions));
      Util.metric "compile.registers_after" "count" (count (fun r -> r.Nimble.registers_after));
    ]

(* ------------------------------- inputs ------------------------------ *)

let tensor_list xs =
  let adt = Adt.tensor_list ~elem_ty:(Ty.tensor [ Dim.static 1; Dim.Any ]) in
  let nil = Adt.ctor_exn adt "Nil" and cons = Adt.ctor_exn adt "Cons" in
  List.fold_right
    (fun x acc -> Obj.Adt { tag = cons.Adt.tag; fields = [| Obj.tensor x; acc |] })
    xs
    (Obj.Adt { tag = nil.Adt.tag; fields = [||] })

let tree_obj w t =
  let leaf, node = Tree_lstm.ctors w in
  let rec go = function
    | Tree_lstm.Leaf x -> Obj.Adt { tag = leaf.Adt.tag; fields = [| Obj.tensor x |] }
    | Tree_lstm.Node (l, r) -> Obj.Adt { tag = node.Adt.tag; fields = [| go l; go r |] }
  in
  go t

(** One generated input of a recursive model, with its reference output
    (computed when the input is drawn, outside every timed span). *)
type input = {
  in_model : string;
  arg : Obj.t;
  tokens : int;
      (** sequence length, tree leaves, or (decoder) generated steps *)
  reference : Tensor.t;
}

(** The five recursive models [run-recursive] draws from. *)
let recursive_models = [ "lstm"; "gru"; "treelstm"; "seq2seq"; "decoder" ]

let sequence rng ~len ~size ~scale =
  List.init len (fun _ -> Tensor.randn ~scale rng [| 1; size |])

(** Draw one input of [model] with [size] tokens: the sequence length of
    the sequence models, the leaf count of the Tree-LSTM's random
    SST-style tree. The decoder ignores [size] and starts from a random
    state; its tokens are the steps it generates. *)
let draw_input w rng model ~size =
  match model with
  | "lstm" ->
      let xs = sequence rng ~len:size ~size:w.lstm.Lstm.config.Lstm.input_size ~scale:0.5 in
      { in_model = model; arg = tensor_list xs; tokens = size; reference = Lstm.reference w.lstm xs }
  | "gru" ->
      let xs = sequence rng ~len:size ~size:w.gru.Gru.config.Gru.input_size ~scale:0.5 in
      { in_model = model; arg = tensor_list xs; tokens = size; reference = Gru.reference w.gru xs }
  | "seq2seq" ->
      let xs = sequence rng ~len:size ~size:w.seq2seq.Seq2seq.config.Seq2seq.input_size ~scale:0.6 in
      { in_model = model; arg = tensor_list xs; tokens = size;
        reference = Seq2seq.reference w.seq2seq xs }
  | "treelstm" ->
      let t = Nimble_workloads.Sst.sample_tree rng w.treelstm.Tree_lstm.config ~tokens:size in
      { in_model = model; arg = tree_obj w.treelstm t; tokens = size;
        reference = Tree_lstm.reference w.treelstm t }
  | "decoder" ->
      let h0 = Tensor.randn ~scale:1.0 rng [| 1; w.decoder.Decoder.config.Decoder.hidden_size |] in
      let reference = Decoder.reference w.decoder h0 in
      { in_model = model; arg = Obj.tensor h0; tokens = (Tensor.shape reference).(0); reference }
  | m -> invalid_arg ("draw_input: " ^ m)

(** [n] inputs of [model] with stratified sizes: MRPC lengths for the
    sequence models, SST leaf counts for the Tree-LSTM. The decoder's
    generated length follows from its random start state, so its [n]
    inputs are the stratified quantiles, by length, of [4 n] draws, in a
    seeded order: the total length moves less between seeds. *)
let draw_inputs w rng model n =
  if model = "decoder" then begin
    let draws = Array.init (4 * n) (fun _ -> draw_input w rng model ~size:0) in
    Array.stable_sort (fun a b -> compare a.tokens b.tokens) draws;
    Util.shuffle rng (Array.init n (fun i -> draws.((4 * i) + 2)))
  end
  else
    let hist =
      if model = "treelstm" then Nimble_workloads.Sst.length_histogram
      else Nimble_workloads.Mrpc.length_histogram
    in
    Array.map (fun size -> draw_input w rng model ~size) (Util.stratified_lengths rng hist n)

(** The output check of test_models: element-wise within 1e-3. *)
let matches reference out = Tensor.approx_equal ~atol:1e-3 ~rtol:1e-3 reference out
