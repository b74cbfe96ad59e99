(* The repo benchmark's entry point. Runs one seeded workload through the
   library's public entry points and prints its metrics:

     nimble_bench --workload <compile-zoo|run-recursive|serve-bert>
                  --seed <n> --seconds <s> --trace <0|1>

   Run from the repository root: the metric names and units come from
   BENCHMARK.json there. With --trace 0 it reports the end-to-end metrics
   of an untraced run; with --trace 1 the per-layer metrics of a run that
   also records spans (written to .bench_out/). Every metric is printed as
   a table row with its unit and sample count; the last line of stdout is
   the result JSON. Exits 1 when any output check fails. *)

module Json = Nimble_vm.Json
module Parallel = Nimble_parallel.Parallel

let usage =
  "nimble_bench --workload <compile-zoo|run-recursive|serve-bert> --seed N \
   --seconds S --trace 0|1"

let die fmt = Fmt.kstr (fun msg -> Fmt.epr "nimble_bench: %s@." msg; exit 2) fmt

(** [(name, unit)] of every metric BENCHMARK.json lists under [section]. *)
let declared section =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> die "cannot read BENCHMARK.json: %s" e
  in
  List.map
    (fun m ->
      (Json.to_string_exn (Json.member_exn "name" m), Json.to_string_exn (Json.member_exn "unit" m)))
    (Json.to_list_exn (Json.member_exn section (Json.of_string text)))

(** Identity of the measured sources: the git revision when the checkout
    is a git work tree, and always a digest of [lib/]. *)
let source_stamp () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let git_rev =
    match String.trim (read ".git/HEAD") with
    | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
        let r = String.sub head 5 (String.length head - 5) in
        try String.trim (read (Filename.concat ".git" r)) with Sys_error _ -> r)
    | head -> head
    | exception Sys_error _ -> "none"
  in
  let rec files dir =
    List.concat_map
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then files p else [ p ])
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  let digest =
    Digest.to_hex (Digest.string (String.concat "" (List.map (fun p -> p ^ read p) (files "lib"))))
  in
  [ ("git_rev", git_rev); ("lib_digest", digest) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> die "unexpected argument %s; usage: %s" a usage)
    usage;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds <= 0.0 then die "--seconds must be positive";
  let traced = !trace = 1 in
  let section = if traced then "per_layer" else "end_to_end" in
  let wanted = declared section in
  (* at most two busy domains: the kernel pool stays on the caller *)
  Parallel.set_num_domains 1;
  let stamp =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("seconds", Fmt.str "%g" !seconds);
      ("trace", string_of_int !trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("cpus_allowed", Util.status_field "Cpus_allowed_list");
      ("ocaml", Sys.ocaml_version);
      ("domain_pool_width", string_of_int (Parallel.num_domains ()));
    ]
    @ source_stamp ()
  in
  let seed = !seed and seconds = !seconds and meta = stamp in
  let r =
    match !workload with
    | "compile-zoo" -> Compile_zoo.run ~seed ~seconds ~traced ~meta
    | "run-recursive" -> Run_recursive.run ~seed ~seconds ~traced ~meta
    | "serve-bert" -> Serve_bert.run ~seed ~seconds ~traced ~meta
    | w -> die "unknown workload %S; usage: %s" w usage
  in
  Parallel.shutdown ();
  let measured =
    if traced then r.Util.metrics
    else Util.metric "peak_rss_mb" "MB" (Util.peak_rss_mb ()) :: r.Util.metrics
  in
  (* every declared metric, in declared order; a per-layer metric the
     workload does not exercise reads 0 with no samples *)
  let rows =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.Util.name = name) measured with
        | Some m when m.Util.unit_ <> unit_ ->
            die "metric %s measured in %s but declared in %s" name m.Util.unit_ unit_
        | Some m -> m
        | None when traced -> Util.metric ~samples:0 name unit_ 0.0
        | None -> die "end-to-end metric %s not measured by %s" name !workload)
      wanted
  in
  List.iter
    (fun m ->
      if not (List.mem_assoc m.Util.name wanted) then
        Fmt.epr "nimble_bench: measured %s is not declared in BENCHMARK.json@." m.Util.name)
    measured;
  List.iter (fun (k, v) -> Fmt.pr "# %-18s %s@." k v) (stamp @ r.Util.info);
  let failed_ratio = float_of_int r.Util.failed /. float_of_int (max 1 r.Util.attempted) in
  Fmt.pr "# %-28s %14s %-8s %s@." "metric" "value" "unit" "samples";
  List.iter
    (fun m ->
      Fmt.pr "  %-28s %14.6g %-8s %s@." m.Util.name m.Util.value m.Util.unit_
        (if m.Util.samples = 0 then "n/a" else string_of_int m.Util.samples))
    rows;
  Fmt.pr "  %-28s %14.6g %-8s %d@." "failed_ratio" failed_ratio "ratio" r.Util.attempted;
  let correct = r.Util.failed = 0 in
  Fmt.pr "# outputs %s: %d of %d ops failed@."
    (if correct then "correct" else "INCORRECT")
    r.Util.failed r.Util.attempted;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.Util.attempted);
            ("failed", Json.Int r.Util.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.Util.name,
                       Json.Obj [ ("value", Json.Float m.Util.value); ("unit", Json.String m.Util.unit_) ] ))
                   rows) );
          ]));
  exit (if correct then 0 else 1)
