(** The paper-reproduction harness: regenerates every table and figure of
    the evaluation section and prints them as one report.

    {v
    dune exec bench/main.exe             full report (bench scale)
    dune exec bench/main.exe -- --quick  small problem sizes (CI-fast),
                                         followed by the kernel benchmark
    dune exec bench/main.exe -- --kernel per-point vs row kernel
                                         throughput + serial vs parallel
                                         grid wall time; writes
                                         BENCH_kernel.json
    dune exec bench/main.exe -- --comm   wire-plan communication runtime:
                                         2-node ping micro plus a
                                         comm-heavy tomcatv grid; writes
                                         BENCH_comm.json
    dune exec bench/main.exe -- --collective
                                         opaque vendor reductions vs the
                                         four synthesized collective
                                         schedules across mesh sizes;
                                         writes BENCH_collective.json
    dune exec bench/main.exe -- --sweep  content-addressed plan cache:
                                         a cold pass then a warm pass
                                         over a benchmark x row x
                                         collective spec grid; writes
                                         BENCH_sweep.json
    dune exec bench/main.exe -- --contention
                                         topology-aware network model:
                                         per-config simulated times and
                                         argmin per topology, pinned
                                         collective picks; writes
                                         BENCH_contention.json
    v}

    Artifacts are written at full scale only: [--quick] runs are smoke
    tests and gate checks, and never overwrite a BENCH_*.json. *)

open Commopt

let section title body =
  Printf.printf "\n%s\n%s\n\n%s\n" title (String.make (String.length title) '=') body

let print_report ~scale () =
  Printf.printf
    "Reproduction of: Choi & Snyder, \"Quantifying the Effects of \
     Communication Optimizations\" (ICPP 1997)\n";
  Printf.printf
    "All numbers from the deterministic machine simulator; see DESIGN.md \
     and EXPERIMENTS.md.\n";
  (match scale with
  | `Test -> Printf.printf "Scale: QUICK (reduced problem sizes, 2x2 mesh)\n"
  | `Bench -> Printf.printf "Scale: paper-like problem sizes on an 8x8 (64-node) simulated T3D\n");
  section "Figure 3: machine parameters" (Report.Figures.machine_table ());
  section "Figure 5: IRONMAN bindings" (Report.Figures.bindings_table ());
  section "Figure 7: benchmark programs" (Report.Figures.benchmarks_table ());
  let sizes =
    match scale with
    | `Test -> [ 8; 64; 512 ]
    | `Bench -> Report.Ping.default_sizes
  in
  let iters = match scale with `Test -> 10 | `Bench -> 50 in
  let curves = Report.Ping.figure6 ~sizes ~iters () in
  section "Figure 6: exposed communication costs" (Report.Figures.fig6 curves);
  let grid = Report.Experiment.grid ~scale () in
  section "Figure 8: eliminating communication" (Report.Figures.fig8 grid);
  section "Figure 10(a): performance using PVM"
    (Report.Figures.fig10 ~part:`A grid);
  section "Figure 10(b): performance using SHMEM"
    (Report.Figures.fig10 ~part:`B grid);
  section "Figure 11: combining heuristics, counts" (Report.Figures.fig11 grid);
  section "Figure 12: combining heuristics, times" (Report.Figures.fig12 grid);
  List.iteri
    (fun i r ->
      section
        (Printf.sprintf "Table %d: %s" (i + 1)
           r.Report.Experiment.bench.Programs.Bench_def.name)
        (Report.Figures.appendix_table r))
    grid;
  let pgrid = Report.Experiment.paragon_grid ~scale () in
  section "Extension: Paragon whole-program results"
    (Report.Figures.paragon_appendix pgrid)

(* ------------------------------------------------------------------ *)
(* Measurement core: trial, rotation, drift, artifact and gate          *)
(* ------------------------------------------------------------------ *)

(* Monotonic trial timing: [Unix.gettimeofday] is wall-clock, so an NTP
   step mid-trial yields negative or garbage durations that corrupt
   best-of-3 selection and the --baseline regression gate. The bechamel
   clock is CLOCK_MONOTONIC (ns since an arbitrary origin), immune to
   clock steps. *)
let wall f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let t1 = Monotonic_clock.now () in
  (r, Int64.to_float (Int64.sub t1 t0) /. 1e9)

(** One trial of a compiled program on the T3D: plan (kernel and
    wire-plan compilation included), mint and run an engine. When timed,
    the runtime is charged for its own planning — amortized over the
    program's iterations, exactly as a real run pays it. Returns the run
    result and the minor words allocated by the run phase alone. *)
let sim_trial ?row_path ~lib ~pr ~pc (c : Commopt.compiled) =
  let engine =
    Sim.Engine.of_plans
      (Sim.Engine.plan ?row_path ~machine:Machine.T3d.machine ~lib ~pr ~pc
         c.flat)
  in
  let w0 = Gc.minor_words () in
  let r = Sim.Engine.run engine in
  (r, Gc.minor_words () -. w0)

(** Largest relative spread, (max - min) / max, observed across the
    rotated trials of any measured series in this process. Interference
    only ever subtracts throughput, so a wide spread between trials of
    the {e same} series means the host was too noisy for a best-of-N
    number to be trusted as a measurement — which is exactly when a
    --baseline comparison should warn instead of failing the run. *)
let max_drift = ref 0.0

let drift_threshold = 0.10

(** Best of three interleaved trials per series. A trial repeats one
    series for at least [budget] wall seconds and scores it as
    [work result] units per second, summed over its runs. Interference
    on a shared box only ever subtracts throughput, so the max of
    several short trials is the estimate closest to the series' real
    capability — and interleaving the series decorrelates any slow phase
    of the machine from one particular series. The starting series
    rotates across trials: with a fixed order, whichever runs first after
    a warm-up gap systematically measures low. Every trial's rate feeds
    {!max_drift}. Returns each series' best rate and its last result. *)
let rotated ~budget ~work (series : (unit -> 'r) array) =
  (* One unmeasured run of each series first: the first run after a
     compile pays cold caches and page faults, which would otherwise
     land entirely on whichever series is measured first. *)
  let last = Array.map (fun run -> run ()) series in
  let n = Array.length series in
  let best = Array.make n 0.0 and seen = Array.make n [] in
  for trial = 0 to 2 do
    for j = 0 to n - 1 do
      let i = (j + trial) mod n in
      let units = ref 0.0 and spent = ref 0.0 and runs = ref 0 in
      while !runs = 0 || !spent < budget do
        let r, dt = wall series.(i) in
        last.(i) <- r;
        units := !units +. work r;
        spent := !spent +. dt;
        incr runs
      done;
      let rate = !units /. !spent in
      seen.(i) <- rate :: seen.(i);
      best.(i) <- Float.max best.(i) rate
    done
  done;
  Array.iter
    (fun rates ->
      match List.filter (fun x -> x > 0.0) rates with
      | [] -> ()
      | xs ->
          let hi = List.fold_left Float.max 0.0 xs in
          let lo = List.fold_left Float.min infinity xs in
          max_drift := Float.max !max_drift ((hi -. lo) /. hi))
    seen;
  Array.mapi (fun i rate -> (rate, last.(i))) best

(** Minimal reader for the flat [{"key": number, ...}] files this
    program writes: one pair per line, string values skipped. *)
let baseline_numbers path : (string * float) list =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         try Scanf.sscanf line " \"%[^\"]\" : %f" (fun k v -> Some (k, v))
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

(** Read the --baseline artifact before anything is measured, so an
    unreadable file fails at once instead of after the whole run. *)
let load_baseline = function
  | None -> None
  | Some path -> (
      match baseline_numbers path with
      | numbers -> Some (path, numbers)
      | exception Sys_error msg ->
          Printf.eprintf "error: cannot read --baseline: %s\n" msg;
          exit 1)

(** A value of the flat BENCH_*.json artifacts: numbers for
    measurements, strings for categorical results (chosen algorithms,
    argmin labels). *)
type jval = Num of float | Str of string

let num key v = (key, Num v)

(** The shared --baseline verdict over one mode's entries. Only
    throughput keys (ending in [_per_sec]) present in the baseline are
    compared; deterministic model outputs, wall-clock grid times and
    allocation counts are informational. A baseline that shares no such
    key with the mode is an error (exit 1), not a silent pass. A key
    below 0.95x its baseline value is a regression (exit 3) — unless
    the rotated trials disagreed among themselves by more than
    {!drift_threshold}, in which case the host's own noise dwarfs the
    gate and the regressions are downgraded to an advisory warning. *)
let gate ~unit baseline entries =
  match baseline with
  | None -> ()
  | Some (file, base) -> (
      let compared =
        List.filter_map
          (function
            | key, Num now when Filename.check_suffix key "_per_sec" ->
                Option.map (fun was -> (key, was, now)) (List.assoc_opt key base)
            | _ -> None)
          entries
      in
      Printf.printf "Compared %d throughput keys against %s\n"
        (List.length compared) file;
      if compared = [] then begin
        Printf.eprintf
          "error: --baseline %s shares no throughput key with this mode\n"
          file;
        exit 1
      end;
      match List.filter (fun (_, was, now) -> now < was *. 0.95) compared with
      | [] ->
          Printf.printf "No throughput regressions >= 5%% against %s\n" file
      | rs ->
          List.iter
            (fun (key, was, now) ->
              Printf.printf "REGRESSION %s: %.0f -> %.0f %s (%.1f%%)\n" key
                was now unit
                (100. *. (1. -. (now /. was))))
            rs;
          if !max_drift >= drift_threshold then
            Printf.printf
              "DRIFT: trial spread %.0f%% >= %.0f%% — host too noisy for the \
               5%% gate; the regressions above are advisory only\n"
              (100. *. !max_drift)
              (100. *. drift_threshold)
          else exit 3)

(** Write one flat BENCH artifact: the benchmark description, the build
    profile stamps, the GC stamp, then [entries] in order. Keys and
    every string value go through the shared {!Run.Json} writers, so a
    hostile label (quotes, newlines, control bytes) cannot corrupt the
    document. The GC stamp records this process's cumulative minor and
    promoted words at write time: artifacts from the same mode are
    written at the same point of the run, so baseline diffs of these
    keys surface allocation regressions the throughput gate is too
    noisy to catch. *)
let write_bench_json path ~benchmark entries =
  let b = Buffer.create 1024 in
  let field k emit =
    Buffer.add_string b ",\n  ";
    Run.Json.add_key b k;
    emit ()
  in
  Buffer.add_string b "{\n  ";
  Run.Json.add_key b "benchmark";
  Run.Json.add_str b benchmark;
  field "profile" (fun () -> Run.Json.add_str b Build_info.profile);
  field "flambda" (fun () -> Run.Json.add_bool b Build_info.flambda);
  let gc = Gc.quick_stat () in
  field "gc_minor_words" (fun () -> Run.Json.add_num b gc.Gc.minor_words);
  field "gc_promoted_words" (fun () ->
      Run.Json.add_num b gc.Gc.promoted_words);
  List.iter
    (fun (k, v) ->
      field k (fun () ->
          match v with
          | Num x -> Run.Json.add_num b x
          | Str s -> Run.Json.add_str b s))
    entries;
  Buffer.add_string b "\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

(** Close a mode: print its section under the build stamp, run [check]
    (the mode's own hard verdicts, which must pass before an artifact is
    written), write [artifact] at full scale, then apply the --baseline
    gate to [entries]. *)
let finish ?baseline ?(check = ignore) ~scale ~unit ~title ~artifact
    ~benchmark body entries =
  section title
    (Printf.sprintf "Build profile: %s (flambda: %b)\n%s" Build_info.profile
       Build_info.flambda body);
  check ();
  if scale = `Bench then begin
    write_bench_json artifact ~benchmark entries;
    Printf.printf "\nWrote %s\n" artifact
  end;
  gate ~unit baseline entries

(* ------------------------------------------------------------------ *)
(* Modes: each declares its programs, its series and its entries        *)
(* ------------------------------------------------------------------ *)

let total_cells (r : Sim.Engine.result) =
  Array.fold_left
    (fun n (pp : Sim.Stats.per_proc) -> n + pp.Sim.Stats.cells)
    0 r.stats.Sim.Stats.procs

(** Kernel loops on a 1x1-mesh engine, where the simulated program is
    pure kernel execution (no communication), so cells/sec isolates the
    array-statement path: row kernels (the engine's default) against the
    interpreted per-point reference. *)
let kernel_bench ?baseline ~scale () =
  let tomcatv_defines, swm_defines =
    match scale with
    | `Bench -> ([ ("n", 128.); ("iters", 10.) ], [ ("n", 64.); ("iters", 8.) ])
    | `Test -> ([ ("n", 64.); ("iters", 3.) ], [ ("n", 32.); ("iters", 2.) ])
  in
  (* (cells per run, per-point cells/sec, row cells/sec) *)
  let paths ~defines source =
    let c = compile ~config:Opt.Config.pl_cum ~defines source in
    let trial row_path () =
      sim_trial ~row_path ~lib:Machine.T3d.shmem ~pr:1 ~pc:1 c
    in
    let m =
      rotated ~budget:0.25
        ~work:(fun (r, _) -> float_of_int (total_cells r))
        [| trial true; trial false |]
    in
    let row, (r, _) = m.(0) in
    (total_cells r, fst m.(1), row)
  in
  let ((tc, tp, tr) as tomcatv) =
    paths ~defines:tomcatv_defines Programs.Tomcatv.source
  in
  let ((sc, sp, sr) as swm) =
    paths ~defines:swm_defines Programs.Suite.swm.Programs.Bench_def.source
  in
  let domains = Sim.Pool.default_domains () in
  let grid_sec domains =
    snd (wall (fun () -> Report.Experiment.grid ~scale:`Test ~domains ()))
  in
  let serial = grid_sec 1 in
  let parallel = grid_sec domains in
  let line name (cells, point, row) =
    Printf.sprintf
      "%s (%d cells/run):\n\
      \  per-point path : %12.0f cells/sec\n\
      \  row path       : %12.0f cells/sec  (%.2fx point)"
      name cells point row (row /. point)
  in
  (* [row_path_cells_per_sec] and friends keep the first artifact's key
     names so old baselines stay comparable. *)
  finish ?baseline ~scale ~unit:"cells/sec"
    ~title:"Kernel benchmark: per-point vs row-compiled"
    ~artifact:"BENCH_kernel.json"
    ~benchmark:"kernel loops on a 1x1 mesh (T3D shmem): per-point vs row"
    (Printf.sprintf
       "%s\n\
        %s\n\
        Quick experiment grid (%d domain(s) available):\n\
       \  serial         : %.3f s\n\
       \  domain pool    : %.3f s"
       (line "TOMCATV" tomcatv) (line "SWM" swm) domains serial parallel)
    [ num "cells_per_run" (float_of_int tc);
      num "point_path_cells_per_sec" tp;
      num "row_path_cells_per_sec" tr;
      num "row_vs_point_speedup" (tr /. tp);
      num "tomcatv_point_cells_per_sec" tp;
      num "tomcatv_row_cells_per_sec" tr;
      num "swm_cells_per_run" (float_of_int sc);
      num "swm_point_cells_per_sec" sp;
      num "swm_row_cells_per_sec" sr;
      num "grid_quick_serial_sec" serial;
      num "grid_quick_parallel_sec" parallel;
      num "grid_domains" (float_of_int domains) ]

(** Transfer activations summed over processors: each transfer instance
    costs one receive-side and one send-side activation (DR+DN and
    SR+SV respectively), which is the denominator the zero-allocation
    claim is about. *)
let activations (st : Sim.Stats.t) =
  Array.fold_left
    (fun n (pp : Sim.Stats.per_proc) ->
      n + pp.Sim.Stats.xfers_recv + pp.Sim.Stats.xfers_sent)
    0 st.Sim.Stats.procs

(** The ping microbenchmark applies Figure 6's methodology to the
    communication runtime: it times the combine-heavy two-node synthetic
    and its communication-free twin and reports the {e exposed} per-run
    cost — what the runtime alone adds. Eight member arrays cross east
    as one cc-combined message per iteration, so every message carries
    eight pieces packed into one pooled staging buffer; compiling with
    combining but without redundancy removal keeps every iteration's
    transfer and the non-communication noise floor minimal (see
    {!Programs.Synthetic.combined_source}). The exposure is clamped at
    1ns — on a loaded machine it can sink below the noise floor; read
    very small exposures with suspicion. The grid measurement is TOMCATV
    on a 4x4 mesh under the full [pl] configuration, timed raw. *)
let comm_bench ?baseline ~scale () =
  let iters = match scale with `Bench -> 5000 | `Test -> 2000 in
  let defines = Programs.Synthetic.combined_defines ~doubles:8 ~iters in
  let cc_only = { Opt.Config.baseline with Opt.Config.cc = true } in
  let budget = match scale with `Bench -> 3.0 | `Test -> 0.3 in
  let grid_defines =
    match scale with
    | `Bench -> [ ("n", 128.); ("iters", 10.) ]
    | `Test -> [ ("n", 32.); ("iters", 3.) ]
  in
  let trial ~pr ~pc c () = sim_trial ~lib:Machine.T3d.pvm ~pr ~pc c in
  let ping_trial source =
    trial ~pr:1 ~pc:2 (compile ~config:cc_only ~defines source)
  in
  let ping =
    rotated ~budget:(budget /. 6.) ~work:(fun _ -> 1.0)
      [| ping_trial Programs.Synthetic.combined_source;
         ping_trial Programs.Synthetic.combined_busy_source |]
  in
  let (comm_rate, (r, comm_mw)), (busy_rate, (_, busy_mw)) =
    (ping.(0), ping.(1))
  in
  let st = r.Sim.Engine.stats in
  let msgs = Sim.Stats.total_messages st in
  let exposed = Float.max 1e-9 ((1. /. comm_rate) -. (1. /. busy_rate)) in
  (* allocation is deterministic, so one run of each suffices *)
  let mwpa = (comm_mw -. busy_mw) /. float_of_int (activations st) in
  let grid =
    compile ~config:Opt.Config.pl_cum ~defines:grid_defines
      Programs.Tomcatv.source
  in
  let grid_rate, grid_last =
    (rotated ~budget
       ~work:(fun (r, _) ->
         float_of_int (Sim.Stats.total_messages r.Sim.Engine.stats))
       [| trial ~pr:4 ~pc:4 grid |]).(0)
  in
  let gst = (fst grid_last).Sim.Engine.stats in
  let gmsgs = Sim.Stats.total_messages gst in
  let gbytes = Sim.Stats.total_bytes gst in
  let grid_bytes_rate =
    grid_rate *. float_of_int gbytes /. float_of_int gmsgs
  in
  let ping_msgs_rate = float_of_int msgs /. exposed in
  let ping_bytes_rate = float_of_int (Sim.Stats.total_bytes st) /. exposed in
  finish ?baseline ~scale ~unit:"/sec"
    ~title:"Communication benchmark: wire-plan runtime"
    ~artifact:"BENCH_comm.json"
    ~benchmark:
      "wire-plan communication runtime (T3D pvm): 2-node ping micro + \
       tomcatv 4x4 grid"
    (Printf.sprintf
       "Ping (1x2 mesh, 8 member pieces per combined message, exposed cost — \
        busy twin subtracted, %d msgs/run):\n\
       \  wire plans     : %12.0f msgs/sec  %14.0f bytes/sec\n\
       \  minor words per activation (busy-subtracted): %.2f\n\
        TOMCATV (4x4 mesh, raw whole-program, %d msgs, %d bytes per run):\n\
       \  wire plans     : %12.0f msgs/sec  %14.0f bytes/sec"
       msgs ping_msgs_rate ping_bytes_rate mwpa gmsgs gbytes grid_rate
       grid_bytes_rate)
    [ num "ping_msgs_per_run" (float_of_int msgs);
      num "ping_wire_msgs_per_sec" ping_msgs_rate;
      num "ping_wire_bytes_per_sec" ping_bytes_rate;
      num "ping_wire_minor_words_per_activation" mwpa;
      num "tomcatv_msgs_per_run" (float_of_int gmsgs);
      num "tomcatv_wire_msgs_per_sec" grid_rate;
      num "tomcatv_wire_bytes_per_sec" grid_bytes_rate ]

(** Opaque vendor reductions against the four synthesized collective
    schedules, per mesh: host whole-machine reductions/sec (a reduction
    counts once however many processors participate), the deterministic
    simulated cost per reduction, and run-phase minor words per
    reduction. *)
let coll_bench ?baseline ~scale () =
  let iters = match scale with `Bench -> 400 | `Test -> 60 in
  let budget = match scale with `Bench -> 0.4 | `Test -> 0.08 in
  let defines = Programs.Synthetic.reduce_defines ~n:16 ~iters in
  let reduces = float_of_int (Programs.Synthetic.reduce_count ~iters) in
  let modes =
    ("opaque", Opt.Config.Opaque)
    :: List.map
         (fun a -> (Ir.Coll.alg_name a, Opt.Config.Forced a))
         Ir.Coll.all_algs
  in
  (* (mesh, mode, reduces/sec, sim us/reduce, minor words/reduce) *)
  let cells =
    List.concat_map
      (fun (pr, pc) ->
        let trial (_, collective) =
          let config = { Opt.Config.pl_cum with Opt.Config.collective } in
          let c =
            compile ~config ~defines ~machine:Machine.T3d.machine
              ~lib:Machine.T3d.pvm ~mesh:(pr, pc)
              Programs.Synthetic.reduce_source
          in
          fun () -> sim_trial ~lib:Machine.T3d.pvm ~pr ~pc c
        in
        let m =
          rotated ~budget ~work:(fun _ -> reduces)
            (Array.of_list (List.map trial modes))
        in
        List.mapi
          (fun i (mode, _) ->
            let rate, (r, mw) = m.(i) in
            ( (pr, pc),
              mode,
              rate,
              r.Sim.Engine.time /. reduces *. 1e6,
              mw /. reduces ))
          modes)
      [ (1, 2); (2, 2); (3, 3); (4, 4) ]
  in
  let row ((pr, pc), mode, rate, sim_us, mwpr) =
    let pick =
      Opt.Collective.choose ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm
        (pr * pc)
    in
    let host_winner =
      List.for_all
        (fun (m, _, r, _, _) -> m <> (pr, pc) || r <= rate)
        cells
    in
    [ Printf.sprintf "%dx%d" pr pc; mode; Printf.sprintf "%.0f" rate;
      Printf.sprintf "%.3f" sim_us; Printf.sprintf "%.1f" mwpr;
      String.trim
        ((if mode = Ir.Coll.alg_name pick then "<- cost-model pick " else "")
        ^ if host_winner then "<- host winner" else "") ]
  in
  finish ?baseline ~scale ~unit:"/sec"
    ~title:
      "Collective benchmark: opaque reductions vs synthesized DR/SR/DN/SV \
       schedules"
    ~artifact:"BENCH_collective.json"
    ~benchmark:
      "opaque vendor reduction vs synthesized collective schedules (T3D \
       pvm), whole-machine reductions/sec and simulated us per reduction"
    ("Synthetic: 3 reductions (+, max, min) per iteration over a 16x16 \
      grid.\nHost throughput is whole-machine reductions/sec (best of 3 \
      rotated trials);\nsim is the deterministic simulated cost per \
      reduction under the T3D/PVM model.\n\n"
    ^ Report.Table.render
        ~aligns:Report.Table.[ L; L; R; R; R; L ]
        ~header:
          [ "mesh"; "mode"; "reduces/sec"; "sim us/red"; "mwords/red"; "notes" ]
        (List.map row cells))
    (List.concat_map
       (fun ((pr, pc), mode, rate, sim_us, mwpr) ->
         let key = Printf.sprintf "m%dx%d_%s_%s" pr pc mode in
         [ num (key "per_sec") rate; num (key "sim_us") sim_us;
           num (key "minor_words_per_reduce") mwpr ])
       cells)

(** The sweep grid: benchmark x experiment row x collective mode, at
    test problem sizes clamped to a single iteration — compilation
    (parse, optimize, flatten, plan) dominates each task, which is
    exactly the work the content-addressed plan cache deduplicates. *)
let sweep_items ~scale () =
  let benches =
    match scale with
    | `Bench -> Programs.Suite.paper_benchmarks
    | `Test -> [ List.hd Programs.Suite.paper_benchmarks ]
  in
  let collectives =
    [ ("opaque", Opt.Config.Opaque); ("auto", Opt.Config.Auto) ]
  in
  List.concat_map
    (fun (b : Programs.Bench_def.t) ->
      let defines =
        List.map
          (fun (k, v) ->
            if k = "iters" then (k, 1.0)
            else if k = "n" then (k, Float.min v 8.0)
            else (k, v))
          b.Programs.Bench_def.test_defines
      in
      List.concat_map
        (fun (label, config, lib) ->
          List.map
            (fun (cname, collective) ->
              let spec =
                let open Run.Spec in
                default b.Programs.Bench_def.source
                |> with_defines defines |> with_config config
                |> with_collective collective
                |> with_target Machine.T3d.machine lib
                |> with_mesh 2 2
              in
              { Run.Sweep.label =
                  Printf.sprintf "%s/%s/%s" b.Programs.Bench_def.name label
                    cname;
                spec })
            collectives)
        Report.Experiment.paper_rows)
    benches

(** Cold vs warm passes of the sweep grid through one [Run.Sweep]
    service (the warm pass must answer entirely from the cache: exit 4
    otherwise), then cold vs cached engine minting on the tomcatv 2x2
    cell. The cold mint series re-plans everything the cache would share
    (comm schedule, wire blits, collective roles, per-rank kernel
    programs); the cached series only binds fresh stores into the shared
    plans. *)
let sweep_bench ?baseline ~scale () =
  let items = sweep_items ~scale () in
  let n = List.length items in
  let fn = float_of_int n in
  let sweep = Run.Sweep.create () in
  let cold = Run.Sweep.run sweep items in
  let warm =
    (* the warm pass streams the incremental per-spec artifact; the
       cold pass is the reference wall time. Quick runs exercise the
       streaming path into a scratch file so the committed full-scale
       artifact is never overwritten by a test-scale pass. *)
    let grid_path =
      if scale = `Bench then "BENCH_sweep_grid.json"
      else Filename.temp_file "sweep_grid" ".json"
    in
    let oc = open_out grid_path in
    Fun.protect
      ~finally:(fun () ->
        close_out oc;
        if scale <> `Bench then Sys.remove grid_path)
      (fun () -> Run.Sweep.run ~out:oc sweep items)
  in
  (* Steady-state allocation probe: a third pass answered entirely from
     the result memo, on one domain so [Gc.minor_words] observes every
     allocation of the loop (GC counters are per-domain). *)
  let w0 = Gc.minor_words () in
  let _probe = Run.Sweep.run ~domains:1 sweep items in
  let warm_mw_per_spec = (Gc.minor_words () -. w0) /. fn in
  let defines =
    match scale with
    | `Bench -> [ ("n", 64.); ("iters", 2.) ]
    | `Test -> [ ("n", 16.); ("iters", 1.) ]
  in
  let c = compile ~config:Opt.Config.pl_cum ~defines Programs.Tomcatv.source in
  let plan () =
    Sim.Engine.plan ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm ~pr:2
      ~pc:2 c.flat
  in
  let shared = plan () in
  let mint =
    rotated
      ~budget:(match scale with `Bench -> 0.4 | `Test -> 0.08)
      ~work:(fun _ -> 1.0)
      [| (fun () -> ignore (Sim.Engine.of_plans (plan ())));
         (fun () -> ignore (Sim.Engine.of_plans shared)) |]
  in
  let cold_us = 1e6 /. fst mint.(0) and cached_us = 1e6 /. fst mint.(1) in
  let mint_speedup = cold_us /. cached_us in
  (* allocation per cached mint is deterministic: one counted batch *)
  let batch = 64 in
  let w0 = Gc.minor_words () in
  for _ = 1 to batch do
    ignore (Sim.Engine.of_plans shared)
  done;
  let mint_mw = (Gc.minor_words () -. w0) /. float_of_int batch in
  let speedup = cold.Run.Sweep.wall /. warm.Run.Sweep.wall in
  let check () =
    if warm.Run.Sweep.misses > 0 then begin
      Printf.printf
        "CACHE FAILURE: the warm pass re-compiled %d of %d specs — identical \
         specs must hit\n"
        warm.Run.Sweep.misses n;
      exit 4
    end;
    (* The cached-mint claim is a perf acceptance, not just a trend: in
       the release profile a cache hit must mint engines well clear of
       cold planning. Drift-aware like the --baseline gate — if the
       rotated trials disagreed by more than the threshold, the host was
       too noisy for the ratio to convict. *)
    if Build_info.profile = "release" && mint_speedup < 5.0 then begin
      if !max_drift >= drift_threshold then
        Printf.printf
          "DRIFT: trial spread %.0f%% >= %.0f%% — cached-mint speedup %.1fx \
           (< 5x target) is advisory only on this host\n"
          (100. *. !max_drift)
          (100. *. drift_threshold)
          mint_speedup
      else begin
        Printf.printf
          "MINT REGRESSION: cached mint only %.1fx faster than cold (target \
           >= 5x in release profile)\n"
          mint_speedup;
        exit 3
      end
    end
  in
  finish ?baseline ~check ~scale ~unit:"/sec"
    ~title:"Sweep benchmark: content-addressed plan cache, cold vs warm pass"
    ~artifact:"BENCH_sweep.json"
    ~benchmark:
      "content-addressed plan cache: cold vs warm sweep over a benchmark x \
       row x collective spec grid (test scale, 1 iteration, 2x2 mesh)"
    (Printf.sprintf
       "Grid: %d specs (benchmark x experiment row x collective mode)\n\
       \  cold pass      : %8.3f s  (%8.1f specs/sec, %d hits / %d misses)\n\
       \  warm pass      : %8.3f s  (%8.1f specs/sec, %d hits / %d misses, \
        %d memo)\n\
       \  speedup        : %.2fx cached vs cold (target >= 2x: %s)\n\
       \  evictions      : %d\n\
       \  warm allocation: %8.0f minor words per memo-answered spec\n\
        Engine mint (tomcatv 2x2, plans shared vs re-planned):\n\
       \  cold mint      : %10.1f us  (plan + of_plans, kernels compiled)\n\
       \  cached mint    : %10.1f us  (of_plans only, store binding)\n\
       \  speedup        : %.1fx cached vs cold (release target >= 5x)\n\
       \  allocation     : %8.0f minor words per cached mint%s"
       n cold.Run.Sweep.wall (fn /. cold.Run.Sweep.wall) cold.Run.Sweep.hits
       cold.Run.Sweep.misses warm.Run.Sweep.wall (fn /. warm.Run.Sweep.wall)
       warm.Run.Sweep.hits warm.Run.Sweep.misses warm.Run.Sweep.memo_hits
       speedup
       (if speedup >= 2.0 then "PASS" else "MISS")
       warm.Run.Sweep.counters.Run.Cache.evictions warm_mw_per_spec cold_us
       cached_us mint_speedup mint_mw
       (if scale = `Bench then
          "\nWrote BENCH_sweep_grid.json (incremental per-spec artifact)"
        else ""))
    [ num "sweep_specs" fn;
      num "cold_wall_sec" cold.Run.Sweep.wall;
      num "warm_wall_sec" warm.Run.Sweep.wall;
      num "cold_specs_per_sec" (fn /. cold.Run.Sweep.wall);
      num "warm_specs_per_sec" (fn /. warm.Run.Sweep.wall);
      num "warm_vs_cold_speedup" speedup;
      num "cold_hits" (float_of_int cold.Run.Sweep.hits);
      num "warm_hits" (float_of_int warm.Run.Sweep.hits);
      num "warm_misses" (float_of_int warm.Run.Sweep.misses);
      num "warm_memo_hits" (float_of_int warm.Run.Sweep.memo_hits);
      num "cache_evictions"
        (float_of_int warm.Run.Sweep.counters.Run.Cache.evictions);
      num "warm_minor_words_per_spec" warm_mw_per_spec;
      num "mint_cold_us" cold_us;
      num "mint_cached_us" cached_us;
      num "mint_cold_vs_cached_speedup" mint_speedup;
      num "mint_cached_minor_words" mint_mw ]

let contention_configs =
  [ ("baseline", Opt.Config.baseline);
    ("rr", Opt.Config.rr_only);
    ("cc", Opt.Config.cc_cum);
    ("pl", Opt.Config.pl_cum) ]

(** Simulated time of [source] under one (config, topology) cell.
    Deterministic model output — the host-measurement machinery plays
    no part in these numbers. *)
let contention_sim ?(collective = Opt.Config.Opaque) ~defines ~mesh:(pr, pc)
    ~topology ~config source =
  let open Run.Spec in
  (default source |> with_defines defines |> with_config config
  |> with_mesh pr pc |> with_topology topology
  |> with_collective collective |> run)
    .Sim.Engine.time

(** The pinned collective-pick scenario: a line of 9 processors on a
    wire-dominated T3D variant. 9 is not a power of two, so the
    dissemination schedule's wrap rounds (rank 8 -> 0 is 8 hops on a
    mesh line, 1 on a torus) and recursive doubling's fold phase price
    differently per topology — the argmin of the cost search moves
    when the wrap links appear. *)
let pick_machine =
  { Machine.T3d.machine with Machine.Params.wire_latency = 40e-6 }

(** Per-config simulated times and their argmin per topology for two
    programs, the pinned line-of-9 collective picks, and the host
    compile+simulate throughput of the tomcatv cell per topology (the
    gateable measurement). *)
let contention_bench ?baseline ~scale () =
  let tom_defines =
    match scale with
    | `Bench -> [ ("n", 64.); ("iters", 5.) ]
    | `Test -> [ ("n", 24.); ("iters", 2.) ]
  in
  let con_defines =
    match scale with
    | `Bench -> Programs.Synthetic.contended_defines ~n:48 ~iters:6
    | `Test -> Programs.Synthetic.contended_defines ~n:16 ~iters:3
  in
  let topos = Machine.Topology.all in
  (* (topology name, (config label, simulated seconds) list, argmin —
     the first fastest config wins ties) per topology *)
  let sims ?collective ~mesh ~defines source =
    List.map
      (fun topology ->
        let times =
          List.map
            (fun (label, config) ->
              ( label,
                contention_sim ?collective ~defines ~mesh ~topology ~config
                  source ))
            contention_configs
        in
        let argmin, _ =
          List.fold_left
            (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv))
            ("", infinity) times
        in
        (Machine.Topology.name topology, times, argmin))
      topos
  in
  (* tomcatv keeps its opaque vendor reductions: pure stencil traffic
     under per-link occupancy. The contended synthetic forces the
     cost-searched collectives, whose multi-hop rounds share links with
     the stencil messages — the topology-sensitive case. *)
  let tomcatv = sims ~mesh:(4, 4) ~defines:tom_defines Programs.Tomcatv.source in
  let contended =
    sims ~collective:Opt.Config.Auto ~mesh:(1, 8) ~defines:con_defines
      Programs.Synthetic.contended_source
  in
  let picks =
    List.map
      (fun topology ->
        Ir.Coll.alg_name
          (Opt.Collective.choose ~topology ~mesh:(1, 9) ~machine:pick_machine
             ~lib:Machine.T3d.pvm 9))
      topos
  in
  let rps =
    rotated
      ~budget:(match scale with `Bench -> 0.6 | `Test -> 0.1)
      ~work:(fun _ -> 1.0)
      (Array.of_list
         (List.map
            (fun topology () ->
              contention_sim ~defines:tom_defines ~mesh:(4, 4) ~topology
                ~config:Opt.Config.pl_cum Programs.Tomcatv.source)
            topos))
  in
  let rps = Array.to_list (Array.map fst rps) in
  let names = List.map Machine.Topology.name topos in
  let table title rows =
    title ^ "\n"
    ^ Report.Table.render
        ~aligns:Report.Table.[ L; R; R; R; R; L ]
        ~header:(("topology" :: List.map fst contention_configs) @ [ "argmin" ])
        (List.map
           (fun (tn, times, argmin) ->
             (tn :: List.map (fun (_, t) -> Printf.sprintf "%.6f" t) times)
             @ [ argmin ])
           rows)
    ^ "\n\n"
  in
  let entries prefix rows =
    List.concat_map
      (fun (tn, times, argmin) ->
        List.map
          (fun (cfg, t) ->
            num (Printf.sprintf "%s_%s_%s_sim_sec" prefix tn cfg) t)
          times
        @ [ (Printf.sprintf "%s_%s_argmin" prefix tn, Str argmin) ])
      rows
  in
  finish ?baseline ~scale ~unit:"/sec"
    ~title:
      "Contention benchmark: per-link occupancy on mesh/torus vs the ideal \
       crossbar"
    ~artifact:"BENCH_contention.json"
    ~benchmark:
      "topology-aware network contention (T3D pvm): per-config simulated \
       times and argmin per topology, pinned collective picks, host \
       compile+simulate throughput"
    ("\n"
    ^ table
        "TOMCATV, 4x4 mesh, opaque reductions (simulated seconds per config):"
        tomcatv
    ^ table
        "CONTENDED bisection synthetic, 1x8 line, cost-searched collectives:"
        contended
    ^ Printf.sprintf
        "Pinned collective pick (line of 9, wire latency %.0f us) and host \
         compile+simulate throughput (tomcatv cell):\n"
        (pick_machine.Machine.Params.wire_latency *. 1e6)
    ^ Report.Table.render
        ~aligns:Report.Table.[ L; L; R ]
        ~header:[ "topology"; "pick"; "runs/sec" ]
        (List.map2
           (fun (tn, pick) r -> [ tn; pick; Printf.sprintf "%.2f" r ])
           (List.combine names picks) rps))
    (entries "tomcatv" tomcatv
    @ entries "contended" contended
    @ List.map2 (fun tn p -> ("pick_line9_" ^ tn, Str p)) names picks
    @ List.map2
        (fun tn r -> num (Printf.sprintf "tomcatv_%s_runs_per_sec" tn) r)
        names rps)

(* Flag parsing is shared with zplc through {!Cli.Cmdline} (--quick,
   --baseline); only the mode selector is bench-specific. *)
let main =
  let open Cmdliner in
  let mode_arg =
    Arg.(
      value
      & vflag `Report
          [ ( `Kernel,
              info [ "kernel" ]
                ~doc:
                  "per-point vs row kernel throughput; writes \
                   BENCH_kernel.json" );
            ( `Comm,
              info [ "comm" ]
                ~doc:
                  "wire-plan communication runtime throughput; writes \
                   BENCH_comm.json" );
            ( `Collective,
              info [ "collective" ]
                ~doc:
                  "opaque vendor reductions vs synthesized collective \
                   schedules; writes BENCH_collective.json" );
            ( `Sweep,
              info [ "sweep" ]
                ~doc:
                  "content-addressed plan cache: cold vs warm pass over a \
                   spec grid; writes BENCH_sweep.json" );
            ( `Contention,
              info [ "contention" ]
                ~doc:
                  "topology-aware network contention: per-link occupancy on \
                   mesh/torus vs the ideal crossbar; writes \
                   BENCH_contention.json" ) ])
  in
  let run mode quick baseline =
    let scale = Cli.Cmdline.scale_of_quick quick in
    let baseline = load_baseline baseline in
    match mode with
    | `Kernel -> kernel_bench ?baseline ~scale ()
    | `Comm -> comm_bench ?baseline ~scale ()
    | `Collective -> coll_bench ?baseline ~scale ()
    | `Sweep -> sweep_bench ?baseline ~scale ()
    | `Contention -> contention_bench ?baseline ~scale ()
    | `Report ->
        print_report ~scale ();
        if scale = `Test then kernel_bench ?baseline ~scale ()
  in
  Cmd.v
    (Cmd.info "bench" ~version:"1.0.0"
       ~doc:
         "paper-reproduction harness: the full report by default, or one \
          focused benchmark per mode flag")
    Term.(
      const run $ mode_arg $ Cli.Cmdline.quick_arg $ Cli.Cmdline.baseline_arg)

let () = exit (Cmdliner.Cmd.eval main)
