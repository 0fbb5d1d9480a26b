(* perfbench: one workload of the repository benchmark.

     perfbench/main.exe --workload paper-comm --seed 1 --seconds 30 --trace 0

   Runs passes over the workload's seeded specs until [--seconds] is
   spent (at least one pass; with [--trace 1] at least two, untraced and
   traced alternating), checks every spec of every pass against the
   sequential oracle, prints a human-readable report, and ends with one
   JSON line: [correct], [attempted], [failed] and [metrics] — the
   end-to-end metrics with [--trace 0], the per-layer metrics with
   [--trace 1]. Exits 1 when any spec fails or two passes simulate
   different numbers, 2 on bad arguments. *)

open Perfbench

let setup_repeats = 21

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }
let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let fsum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6
let median_of f ps = Measure.median (List.map f ps)

let end_to_end ~setup_s (passes : Workload.pass list) =
  let first = List.hd passes in
  let os = first.outcomes in
  [ metric "wall_s" "s" (median_of (fun p -> p.Workload.wall) passes);
    metric "setup_s" "s" setup_s;
    metric "peak_heap_mb" "MB" (mb first.live_words);
    metric "sim_makespan_s" "sim_s"
      (Measure.geomean (List.map (fun o -> o.Workload.makespan) os));
    metric "static_count" "count" (float_of_int (sum (fun o -> o.Workload.static) os));
    metric "dynamic_count" "count" (float_of_int (sum (fun o -> o.Workload.dynamic) os)) ]

(* One traced pass's per-layer numbers; seconds at the reference speed. *)
let layer_metrics (p : Workload.pass) =
  let layers = Span.by_name p.spans in
  let get name =
    Option.value (List.assoc_opt name layers)
      ~default:{ Span.calls = 0; total_s = 0.0; self_s = 0.0; words = 0.0 }
  in
  let s name = (get name).Span.total_s *. p.scale
  and mw name = (get name).Span.words /. 1e6 in
  let os = p.outcomes in
  let count f = float_of_int (sum f os) in
  let msgs = count (fun o -> o.msgs) and cells = count (fun o -> o.cells) in
  let busy = fsum (fun o -> o.Workload.busy) os in
  let fresh = count (fun o -> o.pool_fresh)
  and reused = count (fun o -> o.pool_reused) in
  [ metric "zpl.calls" "count" (float_of_int (get "zpl").calls);
    metric "zpl.s" "s" (s "zpl");
    metric "zpl.minor_mw" "Mwords" (mw "zpl");
    metric "opt.s" "s" (s "opt");
    metric "opt.minor_mw" "Mwords" (mw "opt");
    metric "opt.static_xfers" "count" (count (fun o -> o.static));
    metric "opt.static_members" "count" (count (fun o -> o.static_members));
    metric "ir.flatten_s" "s" (s "ir");
    metric "ir.flat_ops" "count" (count (fun o -> o.flat_ops));
    metric "sim.plan.s" "s" (s "sim.plan");
    metric "sim.plan.minor_mw" "Mwords" (mw "sim.plan");
    metric "sim.mint.s" "s" (s "sim.mint");
    metric "sim.mint.minor_mw" "Mwords" (mw "sim.mint");
    metric "sim.run.s" "s" (s "sim.run");
    metric "sim.run.minor_mw" "Mwords" (mw "sim.run");
    metric "sim.run.ns_per_msg" "ns/msg" (ratio (s "sim.run" *. 1e9) msgs);
    metric "sim.run.ns_per_cell" "ns/cell" (ratio (s "sim.run" *. 1e9) cells);
    metric "sim.msgs" "count" msgs;
    metric "sim.bytes" "count" (count (fun o -> o.bytes));
    metric "sim.instructions" "count" (count (fun o -> o.instructions));
    metric "sim.cells" "count" cells;
    metric "sim.reduces" "count" (count (fun o -> o.reduces));
    metric "sim.pool_reuse_ratio" "ratio" (ratio reused (fresh +. reused));
    metric "sim.wait_frac" "ratio" (ratio (fsum (fun o -> o.Workload.wait) os) busy);
    metric "sim.comm_cpu_frac" "ratio"
      (ratio (fsum (fun o -> o.Workload.comm_cpu) os) busy);
    metric "run.glue_s" "s" ((get "spec").self_s *. p.scale);
    metric "gc.minor_collections" "count" (float_of_int p.minor_gcs);
    metric "gc.major_collections" "count" (float_of_int p.major_gcs) ]

(* Per-layer metrics: the median over traced passes of each, plus the
   numbers that come from the run as a whole. *)
let per_layer ~(oracle : Workload.oracle) (passes : Workload.pass list) =
  let traced, untraced = List.partition (fun p -> p.Workload.traced) passes in
  let per_pass = List.map layer_metrics traced in
  let medians =
    List.map
      (fun m ->
        { m with
          value =
            median_of
              (fun ms -> (List.find (fun x -> x.name = m.name) ms).value)
              per_pass })
      (List.hd per_pass)
  in
  let cache f = median_of (fun p -> float_of_int (f p.Workload.cache)) untraced in
  let wall = median_of (fun p -> p.Workload.wall) in
  medians
  @ [ metric "run.cache.hits" "count" (cache (fun c -> c.Run.Cache.hits));
      metric "run.cache.misses" "count" (cache (fun c -> c.Run.Cache.misses));
      metric "oracle.s" "s" oracle.seconds;
      metric "oracle.max_rel_err" "ratio" oracle.max_rel_err;
      metric "trace.overhead_s" "s" (wall traced -. wall untraced) ]

let json_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  let sep () = Buffer.add_string b ", " in
  Buffer.add_string b "{";
  Run.Json.add_key b "correct";
  Run.Json.add_bool b correct;
  sep ();
  Run.Json.add_key b "attempted";
  Run.Json.add_int b attempted;
  sep ();
  Run.Json.add_key b "failed";
  Run.Json.add_int b failed;
  sep ();
  Run.Json.add_key b "metrics";
  Buffer.add_string b "{";
  List.iteri
    (fun i m ->
      if i > 0 then sep ();
      Run.Json.add_key b m.name;
      Buffer.add_string b "{";
      Run.Json.add_key b "value";
      Run.Json.add_exact b m.value;
      sep ();
      Run.Json.add_key b "unit";
      Run.Json.add_str b m.unit_;
      Buffer.add_string b "}")
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let stamp ~workload ~seed ~trace ~commit ~source =
  let b = Buffer.create 256 in
  let field k add v =
    Buffer.add_string b (if Buffer.length b = 0 then "{" else ", ");
    Run.Json.add_key b k;
    add b v
  in
  field "workload" Run.Json.add_str workload;
  field "seed" Run.Json.add_int seed;
  field "trace" Run.Json.add_bool trace;
  field "profile" Run.Json.add_str Build_info.profile;
  field "flambda" Run.Json.add_bool Build_info.flambda;
  field "ocaml" Run.Json.add_str Sys.ocaml_version;
  field "nproc" Run.Json.add_int (Domain.recommended_domain_count ());
  field "commit" Run.Json.add_str commit;
  field "source_digest" Run.Json.add_str source;
  Buffer.add_string b "}";
  Buffer.contents b

let write_trace ~workload spans =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir ("trace-" ^ workload ^ ".json") in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Span.to_chrome_json spans));
  path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0
  and commit = ref "unknown" and source = ref "unknown" in
  let usage =
    "main.exe --workload <paper-comm|paper-kernel|sweep-cold> --seed N \
     --seconds S --trace <0|1> [--commit C] [--source-digest D]"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the spec draw and order");
      ("--seconds", Arg.Set_int seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics");
      ("--commit", Arg.Set_string commit, "C commit stamped on the result");
      ("--source-digest", Arg.Set_string source, "D source digest stamped") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind =
    match List.assoc_opt !workload Workload.kinds with
    | Some k when !trace = 0 || !trace = 1 -> k
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let traced_run = !trace = 1 and seed = !seed in
  Printf.printf "perfbench %s seed=%d trace=%d\nstamp %s\n%!" !workload seed
    !trace
    (stamp ~workload:!workload ~seed ~trace:traced_run ~commit:!commit
       ~source:!source);
  (* set-up: repeated, with the reference loop sampled around it *)
  let setups = ref [] and speed = ref [] in
  let setup () =
    let t0 = Span.now () in
    let r = Workload.setup ~size:Full ~seed kind in
    setups := (Span.now () -. t0) :: !setups;
    r
  in
  Speed.sample ~n:25 speed;
  for _ = 1 to setup_repeats do
    ignore (setup () : Workload.ready)
  done;
  Speed.sample ~n:25 speed;
  let oracle = Workload.oracle () in
  Workload.prepare oracle (setup ());
  let t_start = Span.now () in
  let min_passes = if traced_run then 2 else 1 in
  let rec loop i acc =
    Gc.compact ();
    let p0 = Span.now () in
    let traced = traced_run && i mod 2 = 1 in
    let pass = Workload.run_pass ~oracle ~first:(i = 0) ~traced (setup ()) in
    let acc = pass :: acc in
    let now = Span.now () in
    if i + 1 >= min_passes && now -. t_start +. (now -. p0) > float_of_int !seconds
    then List.rev acc
    else loop (i + 1) acc
  in
  let passes = loop 0 [] in
  let traced, untraced = List.partition (fun p -> p.Workload.traced) passes in
  let failures = List.concat_map (fun p -> p.Workload.failures) passes in
  let nfailed = List.length failures in
  let attempted = sum (fun p -> List.length p.Workload.outcomes + List.length p.failures) passes in
  let digests = List.map (fun p -> Workload.sim_digest p.Workload.outcomes) passes in
  let digest = List.hd digests in
  let consistent = List.for_all (String.equal digest) digests in
  let correct = failures = [] && consistent in
  List.iter (fun (l, why) -> Printf.eprintf "FAILED %s: %s\n" l why) failures;
  if not consistent then
    prerr_endline "FAILED: passes simulated different numbers (sim_digest differs)";
  let first = List.hd untraced in
  let metrics =
    if traced_run then begin
      let last = List.nth traced (List.length traced - 1) in
      Printf.printf "trace    %s\n" (write_trace ~workload:!workload last.spans);
      per_layer ~oracle passes
    end
    else end_to_end ~setup_s:(Measure.median !setups *. Speed.scale !speed) untraced
  in
  Printf.printf "passes   %d (%d traced), %d specs each\n" (List.length passes)
    (List.length traced)
    (List.length first.outcomes + List.length first.failures);
  Printf.printf "walls    host s / reference s (scale): %s\n"
    (String.concat "  "
       (List.map
          (fun (p : Workload.pass) ->
            Printf.sprintf "%.3f/%.3f%s (%.3f)" p.raw_wall p.wall
              (if p.traced then "t" else "") p.scale)
          passes));
  List.iter
    (fun m -> Printf.printf "  %-22s %.17g %s\n" m.name m.value m.unit_)
    metrics;
  (match Workload.paper_rank_agree first.outcomes with
  | Some (a, n) when kind <> Workload.Sweep_cold ->
      Printf.printf "  %-22s %.17g ratio (%d/%d row pairs)\n" "paper_rank_agree"
        (float_of_int a /. float_of_int n) a n
  | _ -> ());
  Printf.printf "  %-22s %.17g ratio (%d/%d)\n" "failed_frac"
    (float_of_int nfailed /. float_of_int (max 1 attempted))
    nfailed attempted;
  Printf.printf "  %-22s %s\n" "sim_digest" digest;
  Printf.printf "  %-22s %.17g s (host)\n" "wall_host_s"
    (median_of (fun p -> p.Workload.raw_wall) untraced);
  Printf.printf "  %-22s %.17g MB\n" "gc_top_heap_mb"
    (mb (Gc.quick_stat ()).top_heap_words);
  (match traced with
  | p :: _ ->
      let layers = Span.by_name p.spans in
      let stages =
        fsum (fun (n, (l : Span.layer)) -> if n = "spec" then 0.0 else l.total_s) layers
      and glue = (List.assoc "spec" layers).self_s in
      Printf.printf
        "  accounting (host s): stages %.6f + glue %.6f = %.6f of traced wall %.6f\n"
        stages glue (stages +. glue) p.raw_wall
  | [] -> ());
  print_endline
    (json_line ~correct ~attempted ~failed:nfailed (if correct then metrics else []));
  exit (if correct then 0 else 1)
