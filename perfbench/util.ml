(* Clock, sample summaries, process memory and the span file shared by the
   three workloads. *)

module Trace = Nimble_vm.Trace
module Json = Nimble_vm.Json

let now () = Unix.gettimeofday ()

(** CPU time of the process (s), from getrusage, to the microsecond. The
    kernel leaves out of it the time the hypervisor gives the vCPU to
    other guests (steal), which wall time counts. *)
let cpu_now () = Sys.time ()

(* ------------------------------ samples ------------------------------ *)

let sum xs = Array.fold_left ( +. ) 0.0 xs
let mean xs = if xs = [||] then 0.0 else sum xs /. float_of_int (Array.length xs)

(** Linearly interpolated percentile [p] (0-100); 0 for an empty sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor r) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile xs 50.0

(** Shuffle [a] in place with a seeded generator; returns [a]. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Nimble_tensor.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** [n] stratified draws from a length histogram of (bucket centre,
    weight) pairs, each bucket spread evenly over centre-2 .. centre+2 as
    the MRPC and SST samplers spread it: the (i + 1/2)/n quantiles, in a
    seeded order. Every seed offers exactly the same length distribution;
    only the order differs, so the draw adds little to run-to-run
    spread. *)
let stratified_lengths rng hist n =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 hist in
  let quantile u =
    let x = u *. total in
    let rec go i acc =
      let centre, w = hist.(i) in
      if i = Array.length hist - 1 || x < acc +. w then
        max 1 (centre - 2 + min 4 (int_of_float ((x -. acc) /. w *. 5.0)))
      else go (i + 1) (acc +. w)
    in
    go 0 0.0
  in
  shuffle rng (Array.init n (fun i -> quantile ((float_of_int i +. 0.5) /. float_of_int n)))

(** A growable float sample. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add b x =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0.0 in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len
  let length b = b.len
end

(* ------------------------------ metrics ------------------------------ *)

(** One reported number: name, unit, value and how many samples it
    summarises (1 for a count read once). *)
type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* ------------------------------- memory ------------------------------ *)

(** The value of field [key] in /proc/self/status, trimmed; [""] when
    absent. *)
let status_field key =
  let prefix = key ^ ":" in
  let n = String.length prefix in
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = prefix ->
        String.trim (String.sub line n (String.length line - n))
    | _ -> scan ()
    | exception End_of_file -> ""
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(** Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  Scanf.sscanf (status_field "VmHWM") "%d" (fun kb -> float_of_int kb /. 1024.0)

(* -------------------------------- spans ------------------------------ *)

(** Category of the spans the benchmark records around its own calls. *)
let cat_bench = "bench"

(** A recorder large enough that no workload's traced phase overflows it. *)
let make_trace () = Trace.create ~capacity:(1 lsl 18) ()

(** Record a [bench] span from absolute start and end times (seconds). *)
let span tr ~name ~t0 ~t1 args =
  let epoch = now () -. (Trace.now_us tr /. 1e6) in
  Trace.record tr ~name ~cat:cat_bench
    ~ts_us:((t0 -. epoch) *. 1e6)
    ~dur_us:((t1 -. t0) *. 1e6)
    args

(** A span read back from a trace file. *)
type event = { ev_name : string; ev_ts_us : float; ev_dur_us : float; ev_args : Json.t }

(** Write [tr] as one Chrome trace file, then read its events back: the
    span-derived metrics are computed from the file, not from memory. *)
let save_and_load tr ~meta path =
  Trace.save_file ~meta tr path;
  let ic = open_in_bin path in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic)) in
  let doc = Json.of_string text in
  List.map
    (fun ev ->
      {
        ev_name = Json.to_string_exn (Json.member_exn "name" ev);
        ev_ts_us = Json.to_float_exn (Json.member_exn "ts" ev);
        ev_dur_us = Json.to_float_exn (Json.member_exn "dur" ev);
        ev_args = Json.member_exn "args" ev;
      })
    (Json.to_list_exn (Json.member_exn "traceEvents" doc))

(** Durations (ms) of every event named [name]. *)
let durations_ms events name =
  Array.of_list
    (List.filter_map
       (fun e -> if e.ev_name = name then Some (e.ev_dur_us /. 1e3) else None)
       events)

let arg_string e key = Json.to_string_exn (Json.member_exn key e.ev_args)
let arg_float e key = Json.to_float_exn (Json.member_exn key e.ev_args)

(* ------------------------------ workloads ---------------------------- *)

(** What one workload run hands back to [Nimble_bench]. *)
type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  info : (string * string) list;  (** op count, duration, configuration *)
}

(** Compact the heap, so that what comes next starts from the same heap
    whatever ran before it and pays for none of its garbage. *)
let settle () = Gc.compact ()

(** Set-up repetitions per run; [setup_s] is their median. *)
let setups = 15

(** Name of the trace file a traced run writes, under [.bench_out/]. *)
let trace_path ~workload ~seed =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed)
