(** Report-layer tests: table/plot rendering, the Figure 6 synthetic
    measurement (overhead positivity, monotonicity in size, knee
    detection, the paper's SHMEM-vs-PVM relation), and the experiment
    grid's structure. *)

open Commopt

let test_table_render () =
  let s =
    Report.Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "six lines" 6 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check int) "equal widths" (String.length (List.hd lines))
        (String.length l))
    lines

let test_bar () =
  Alcotest.(check string) "full" (String.make 48 '#') (Report.Plot.bar 1.0);
  Alcotest.(check string) "half" (String.make 24 '#') (Report.Plot.bar 0.5);
  Alcotest.(check string) "zero" "" (Report.Plot.bar 0.0)

let test_grouped_bars () =
  let s =
    Report.Plot.grouped_bars ~title:"t" ~unit_label:"u"
      [ ("g1", [ ("a", 1.0); ("b", 0.5) ]) ]
  in
  Alcotest.(check bool) "mentions group" true
    (String.length s > 0 && String.index_opt s 'g' <> None)

let test_log_chart_renders () =
  let s =
    Report.Plot.log_chart ~title:"t" ~xlabel:"x" ~ylabel:"y"
      [ ("s1", [ (8., 10.); (64., 20.); (512., 80.) ]) ]
  in
  Alcotest.(check bool) "non-empty" true (String.length s > 100)

let curves =
  lazy (Report.Ping.figure6 ~sizes:[ 8; 64; 512; 2048 ] ~iters:10 ())

let find_curve machine_name lib_name =
  List.find
    (fun (c : Report.Ping.curve) ->
      c.machine.Machine.Params.name = machine_name
      && c.lib.Machine.Library.costs.Machine.Params.lib_name = lib_name)
    (Lazy.force curves)

let test_overheads_positive_and_monotone () =
  List.iter
    (fun (c : Report.Ping.curve) ->
      let prev = ref 0.0 in
      List.iter
        (fun (p : Report.Ping.point) ->
          Alcotest.(check bool) "positive" true (p.overhead > 0.0);
          Alcotest.(check bool) "monotone in size" true (p.overhead >= !prev);
          prev := p.overhead)
        c.points)
    (Lazy.force curves)

let test_shmem_vs_pvm () =
  (* the paper: "the SHMEM overhead is about 10% less than that of PVM" *)
  let pvm = find_curve "Cray T3D" "PVM" in
  let shmem = find_curve "Cray T3D" "SHMEM" in
  let small c = (List.hd c.Report.Ping.points).Report.Ping.overhead in
  let ratio = small shmem /. small pvm in
  Alcotest.(check bool)
    (Printf.sprintf "shmem/pvm = %.2f in [0.8, 0.99]" ratio)
    true
    (ratio > 0.8 && ratio < 0.99)

let test_async_not_better () =
  (* the paper: asynchronous NX primitives do not reduce exposed overhead *)
  let csend = find_curve "Intel Paragon" "csend/crecv" in
  let hsend = find_curve "Intel Paragon" "hsend/hrecv" in
  let small c = (List.hd c.Report.Ping.points).Report.Ping.overhead in
  Alcotest.(check bool) "callbacks are heavier" true (small hsend > small csend)

let test_knee () =
  (* the paper: the knee is at about 512 doubles (4 KB) *)
  List.iter
    (fun lib_name ->
      match Report.Ping.knee (find_curve "Cray T3D" lib_name) with
      | Some k ->
          Alcotest.(check bool)
            (Printf.sprintf "%s knee %d in [256, 2048]" lib_name k)
            true (k >= 256 && k <= 2048)
      | None -> Alcotest.failf "%s has no knee" lib_name)
    [ "PVM" ]

let test_experiment_grid_shape () =
  let r = Report.Experiment.run_bench ~scale:`Test Programs.Suite.swm in
  Alcotest.(check int) "six rows" 6 (List.length r.Report.Experiment.rows);
  let labels = List.map (fun (x : Report.Experiment.row) -> x.label) r.rows in
  Alcotest.(check (list string)) "paper row names"
    [ "baseline"; "rr"; "cc"; "pl"; "pl with shmem"; "pl with max latency" ]
    labels;
  List.iter
    (fun (x : Report.Experiment.row) ->
      Alcotest.(check bool) "sane row" true
        (x.static_count > 0 && x.dynamic_count > 0 && x.time > 0.0))
    r.rows

let test_appendix_table_includes_paper () =
  let r = Report.Experiment.run_bench ~scale:`Test Programs.Suite.tomcatv in
  let s = Report.Figures.appendix_table r in
  let contains needle =
    let lh = String.length s and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub s i ln = needle || go (i + 1)) in
    go 0
  in
  (* the paper's Table 1 values must appear next to ours *)
  Alcotest.(check bool) "paper static 46" true (contains "46");
  Alcotest.(check bool) "paper dynamic 40400" true (contains "40400");
  Alcotest.(check bool) "paper time" true (contains "2.491051")

let test_figures_render () =
  let grid = [ Report.Experiment.run_bench ~scale:`Test Programs.Suite.swm ] in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 50))
    [ Report.Figures.fig8 grid;
      Report.Figures.fig10 ~part:`A grid;
      Report.Figures.fig10 ~part:`B grid;
      Report.Figures.fig11 grid;
      Report.Figures.fig12 grid;
      Report.Figures.machine_table ();
      Report.Figures.bindings_table ();
      Report.Figures.benchmarks_table () ]

(* ------------------------------------------------------------------ *)
(* Golden simulated results                                            *)
(* ------------------------------------------------------------------ *)

(* The four paper benchmarks x the six paper rows x {Ideal, Mesh} at test
   scale: makespan as exact float bits, then static count, dynamic count,
   messages, bytes and instructions. Any engine change that moves a
   simulated time or count by even one ulp fails here; the sequential
   oracle checks the arrays, this table checks the clock. *)
let golden =
  [
    ("tomcatv", "baseline", "ideal", "0x1.f56a976a3118bp-8 40 126 552 33216 5696");
    ("tomcatv", "baseline", "mesh", "0x1.069748dc67ccbp-7 40 126 552 33216 5696");
    ("tomcatv", "rr", "ideal", "0x1.d1ea09bb31658p-8 28 112 496 29632 5248");
    ("tomcatv", "rr", "mesh", "0x1.e4e7118e398aep-8 28 112 496 29632 5248");
    ("tomcatv", "cc", "ideal", "0x1.26c448523793ap-8 14 56 248 29632 3552");
    ("tomcatv", "cc", "mesh", "0x1.3aed10e4ff9f9p-8 14 56 248 29632 3552");
    ("tomcatv", "pl", "ideal", "0x1.20e3b3a77029ep-8 14 56 248 29632 3552");
    ("tomcatv", "pl", "mesh", "0x1.55e79321b0542p-8 14 56 248 29632 3552");
    ("tomcatv", "pl with shmem", "ideal", "0x1.946e1ccf54cddp-8 14 56 248 29632 3552");
    ("tomcatv", "pl with shmem", "mesh", "0x1.a3f35c251156p-8 14 56 248 29632 3552");
    ("tomcatv", "pl with max latency", "ideal", "0x1.04c1ca7f0383cp-7 28 112 496 29632 5248");
    ("tomcatv", "pl with max latency", "mesh", "0x1.15df29349b819p-7 28 112 496 29632 5248");
    ("swm", "baseline", "ideal", "0x1.0d4d9b69527f6p-8 29 48 201 12072 1736");
    ("swm", "baseline", "mesh", "0x1.16b828500048ap-8 29 48 201 12072 1736");
    ("swm", "rr", "ideal", "0x1.f72b701b46026p-9 25 42 177 10536 1544");
    ("swm", "rr", "mesh", "0x1.02ac57b74c072p-8 25 42 177 10536 1544");
    ("swm", "cc", "ideal", "0x1.6c62a9c35d629p-9 10 18 78 10536 824");
    ("swm", "cc", "mesh", "0x1.6d54414ace04cp-9 10 18 78 10536 824");
    ("swm", "pl", "ideal", "0x1.423dcb75edfc4p-9 10 18 78 10536 824");
    ("swm", "pl", "mesh", "0x1.423dcb75edfc4p-9 10 18 78 10536 824");
    ("swm", "pl with shmem", "ideal", "0x1.138100097ef3ep-9 10 18 78 10536 824");
    ("swm", "pl with shmem", "mesh", "0x1.138100097ef3dp-9 10 18 78 10536 824");
    ("swm", "pl with max latency", "ideal", "0x1.8f4ea3376353dp-9 25 42 177 10536 1544");
    ("swm", "pl with max latency", "mesh", "0x1.8f4ea3376353ap-9 25 42 177 10536 1544");
    ("simple", "baseline", "ideal", "0x1.5b60065e4c4abp-8 78 84 388 21664 2492");
    ("simple", "baseline", "mesh", "0x1.60574a5b5f949p-8 78 84 388 21664 2492");
    ("simple", "rr", "ideal", "0x1.24e6cd8d4a649p-8 66 70 300 17440 2172");
    ("simple", "rr", "mesh", "0x1.29de118a5dae6p-8 66 70 300 17440 2172");
    ("simple", "cc", "ideal", "0x1.3f1ad6536c9dp-9 20 20 96 17440 828");
    ("simple", "cc", "mesh", "0x1.3f1ad6536c9dp-9 20 20 96 17440 828");
    ("simple", "pl", "ideal", "0x1.3b580c78251c7p-9 20 20 96 17440 828");
    ("simple", "pl", "mesh", "0x1.3b69f1c48c44fp-9 20 20 96 17440 828");
    ("simple", "pl with shmem", "ideal", "0x1.1b790ae1630fap-9 20 20 96 17440 828");
    ("simple", "pl with shmem", "mesh", "0x1.1b790ae1630fap-9 20 20 96 17440 828");
    ("simple", "pl with max latency", "ideal", "0x1.06a7b156c702ap-8 62 66 284 17440 2044");
    ("simple", "pl with max latency", "mesh", "0x1.06a7b156c702ap-8 62 66 284 17440 2044");
    ("sp", "baseline", "ideal", "0x1.0aa23713af248p-7 36 116 464 118784 5948");
    ("sp", "baseline", "mesh", "0x1.0aa23713af245p-7 36 116 464 118784 5948");
    ("sp", "rr", "ideal", "0x1.059b83b7e948fp-7 32 112 448 114688 5820");
    ("sp", "rr", "mesh", "0x1.059b83b7e948bp-7 32 112 448 114688 5820");
    ("sp", "cc", "ideal", "0x1.3746dacc86731p-8 8 28 112 114688 3132");
    ("sp", "cc", "mesh", "0x1.3746dacc8673p-8 8 28 112 114688 3132");
    ("sp", "pl", "ideal", "0x1.3746dacc86731p-8 8 28 112 114688 3132");
    ("sp", "pl", "mesh", "0x1.3746dacc8673p-8 8 28 112 114688 3132");
    ("sp", "pl with shmem", "ideal", "0x1.75028b7594815p-8 8 28 112 114688 3132");
    ("sp", "pl with shmem", "mesh", "0x1.75028b7594815p-8 8 28 112 114688 3132");
    ("sp", "pl with max latency", "ideal", "0x1.1b8643508cb2bp-7 32 112 448 114688 5820");
    ("sp", "pl with max latency", "mesh", "0x1.1b8643508cb2bp-7 32 112 448 114688 5820") ]

let golden_line ?mesh (b : Programs.Bench_def.t) (label, config, lib)
    (tname, topo) =
  let spec =
    Report.Experiment.bench_spec ~topology:topo ~machine:Machine.T3d.machine
      ~lib ~config ~scale:`Test b
    |> match mesh with
       | None -> Fun.id
       | Some (pr, pc) -> Run.Spec.with_mesh pr pc
  in
  let art = Run.Spec.build spec in
  let r = Sim.Engine.run (Run.Spec.engine_of art) in
  let st = r.Sim.Engine.stats in
  ( b.Programs.Bench_def.name,
    label,
    tname,
    Printf.sprintf "%h %d %d %d %d %d" r.Sim.Engine.time
      (Ir.Count.static_count art.Run.Spec.a_ir)
      (Sim.Stats.dynamic_count st) (Sim.Stats.total_messages st)
      (Sim.Stats.total_bytes st) st.Sim.Stats.instructions )

let topos =
  [ ("ideal", Machine.Topology.Ideal); ("mesh", Machine.Topology.Mesh) ]

let show = List.map (fun (b, l, t, v) -> String.concat " | " [ b; l; t; v ])

let test_golden_table () =
  let got =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun row -> List.map (golden_line b row) topos)
          Report.Experiment.paper_rows)
      Programs.Suite.paper_benchmarks
  in
  Alcotest.(check (list string)) "golden table" (show golden) (show got)

(* Synthesized collectives: the four paper benchmarks x the four forced
   algorithms x {Ideal, Mesh} at test scale, row [pl], on 2x2 and on 3x1.
   3x1 is not a power of two, so it runs the recursive-doubling
   fold-in/fold-out rounds and the clipped dissemination windows. Same
   line format as {!golden}. *)
let coll_golden =
  [
    ("tomcatv", "ring 2x2", "ideal", "0x1.4d1b4a16b2d92p-8 20 62 266 29776 3852");
    ("tomcatv", "ring 2x2", "mesh", "0x1.795539d196444p-8 20 62 266 29776 3852");
    ("tomcatv", "ring 3x1", "ideal", "0x1.949aba8f40e07p-8 18 104 208 49888 2817");
    ("tomcatv", "ring 3x1", "mesh", "0x1.949aba8f40e03p-8 18 104 208 49888 2817");
    ("tomcatv", "binomial 2x2", "ideal", "0x1.2fba9f6a5aaeep-8 18 62 266 29776 3756");
    ("tomcatv", "binomial 2x2", "mesh", "0x1.6078d84aa0ffap-8 18 62 266 29776 3756");
    ("tomcatv", "binomial 3x1", "ideal", "0x1.8a576aae57fcdp-8 18 101 208 49888 2817");
    ("tomcatv", "binomial 3x1", "mesh", "0x1.8a576aae57fcbp-8 18 101 208 49888 2817");
    ("tomcatv", "recdouble 2x2", "ideal", "0x1.23d6908c9c4c8p-8 16 62 272 29824 3660");
    ("tomcatv", "recdouble 2x2", "mesh", "0x1.54f9ac7ece924p-8 16 62 272 29824 3660");
    ("tomcatv", "recdouble 3x1", "ideal", "0x1.8276cb9caf5dbp-8 17 101 208 49888 2781");
    ("tomcatv", "recdouble 3x1", "mesh", "0x1.84d50318d5d8p-8 17 101 208 49888 2781");
    ("tomcatv", "dissem 2x2", "ideal", "0x1.24c828140ceeap-8 16 62 272 29920 3660");
    ("tomcatv", "dissem 2x2", "mesh", "0x1.5fddd2cb30313p-8 16 62 272 29920 3660");
    ("tomcatv", "dissem 3x1", "ideal", "0x1.853973a2726b5p-8 16 104 214 49936 2745");
    ("tomcatv", "dissem 3x1", "mesh", "0x1.853973a2726b1p-8 16 104 214 49936 2745");
    ("swm", "ring 2x2", "ideal", "0x1.57c73c3f207cp-9 16 20 84 10584 924");
    ("swm", "ring 2x2", "mesh", "0x1.5851083ea1339p-9 16 20 84 10584 924");
    ("swm", "ring 3x1", "ideal", "0x1.3f4822bcd1bb4p-9 14 20 40 12176 669");
    ("swm", "ring 3x1", "mesh", "0x1.3f4822bcd1bb3p-9 14 20 40 12176 669");
    ("swm", "binomial 2x2", "ideal", "0x1.5293cba458ba4p-9 14 20 84 10584 892");
    ("swm", "binomial 2x2", "mesh", "0x1.5293cba458ba4p-9 14 20 84 10584 892");
    ("swm", "binomial 3x1", "ideal", "0x1.3b1ce18d233ebp-9 14 19 40 12176 669");
    ("swm", "binomial 3x1", "mesh", "0x1.3b1ce18d233e9p-9 14 19 40 12176 669");
    ("swm", "recdouble 2x2", "ideal", "0x1.456f678897048p-9 12 20 86 10600 860");
    ("swm", "recdouble 2x2", "mesh", "0x1.456f678897048p-9 12 20 86 10600 860");
    ("swm", "recdouble 3x1", "ideal", "0x1.38d9bb47bf316p-9 13 19 40 12176 657");
    ("swm", "recdouble 3x1", "mesh", "0x1.3b6391ae211e6p-9 13 19 40 12176 657");
    ("swm", "dissem 2x2", "ideal", "0x1.4573e0dbb0ceap-9 12 20 86 10632 860");
    ("swm", "dissem 2x2", "mesh", "0x1.45b8c6db712a6p-9 12 20 86 10632 860");
    ("swm", "dissem 3x1", "ideal", "0x1.36623cb613cddp-9 12 20 42 12192 645");
    ("swm", "dissem 3x1", "mesh", "0x1.3b6391ae211e6p-9 12 20 42 12192 645");
    ("simple", "ring 2x2", "ideal", "0x1.b1419da0d6ec3p-9 32 28 120 17632 1228");
    ("simple", "ring 2x2", "mesh", "0x1.b3738a664ae27p-9 32 28 120 17632 1228");
    ("simple", "ring 3x1", "ideal", "0x1.a7810ddc8c886p-9 28 30 60 17728 825");
    ("simple", "ring 3x1", "mesh", "0x1.a7810ddc8c887p-9 28 30 60 17728 825");
    ("simple", "binomial 2x2", "ideal", "0x1.7c6b27320fb93p-9 28 28 120 17632 1100");
    ("simple", "binomial 2x2", "mesh", "0x1.7c6b27320fb93p-9 28 28 120 17632 1100");
    ("simple", "binomial 3x1", "ideal", "0x1.8f1e23e5c6a75p-9 28 26 60 17728 825");
    ("simple", "binomial 3x1", "mesh", "0x1.8f1e23e5c6a75p-9 28 26 60 17728 825");
    ("simple", "recdouble 2x2", "ideal", "0x1.481e7cc2c93ddp-9 24 28 128 17696 972");
    ("simple", "recdouble 2x2", "mesh", "0x1.481e7cc2c93dep-9 24 28 128 17696 972");
    ("simple", "recdouble 3x1", "ideal", "0x1.8303f29a836b4p-9 26 26 60 17728 777");
    ("simple", "recdouble 3x1", "mesh", "0x1.895dc5915286cp-9 26 26 60 17728 777");
    ("simple", "dissem 2x2", "ideal", "0x1.482211054445ep-9 24 28 128 17824 972");
    ("simple", "dissem 2x2", "mesh", "0x1.5b4b803112c79p-9 24 28 128 17824 972");
    ("simple", "dissem 3x1", "ideal", "0x1.7c33908988e3bp-9 24 30 68 17792 729");
    ("simple", "dissem 3x1", "mesh", "0x1.9515507436b3cp-9 24 30 68 17792 729");
    ("sp", "ring 2x2", "ideal", "0x1.54a49d02daa6p-8 14 32 124 114784 3332");
    ("sp", "ring 2x2", "mesh", "0x1.552e69025b5d6p-8 14 32 124 114784 3332");
    ("sp", "ring 3x1", "ideal", "0x1.79c2c7f4842d2p-8 12 32 64 114752 2451");
    ("sp", "ring 3x1", "mesh", "0x1.79c2c7f4842d3p-8 12 32 64 114752 2451");
    ("sp", "binomial 2x2", "ideal", "0x1.3c4f584989d3cp-8 12 32 124 114784 3268");
    ("sp", "binomial 2x2", "mesh", "0x1.3c4f584989d3bp-8 12 32 124 114784 3268");
    ("sp", "binomial 3x1", "ideal", "0x1.6e7545431ccffp-8 12 30 64 114752 2451");
    ("sp", "binomial 3x1", "mesh", "0x1.b67c8ca6d047ap-8 12 30 64 114752 2451");
    ("sp", "recdouble 2x2", "ideal", "0x1.398cb043c6c65p-8 10 32 128 114816 3204");
    ("sp", "recdouble 2x2", "mesh", "0x1.398cb043c6c64p-8 10 32 128 114816 3204");
    ("sp", "recdouble 3x1", "ideal", "0x1.6e2851adc7a1fp-8 11 30 64 114752 2427");
    ("sp", "recdouble 3x1", "mesh", "0x1.b6747f113b756p-8 11 30 64 114752 2427");
    ("sp", "dissem 2x2", "ideal", "0x1.3990448641ce7p-8 10 32 128 114880 3204");
    ("sp", "dissem 2x2", "mesh", "0x1.3990448641ce5p-8 10 32 128 114880 3204");
    ("sp", "dissem 3x1", "ideal", "0x1.6d89f130037bfp-8 10 32 68 114784 2403");
    ("sp", "dissem 3x1", "mesh", "0x1.b5913893b6f3ap-8 10 32 68 114784 2403") ]

let test_coll_golden_table () =
  let got =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun alg ->
            List.concat_map
              (fun (pr, pc) ->
                let row =
                  ( Printf.sprintf "%s %dx%d" (Ir.Coll.alg_name alg) pr pc,
                    { Opt.Config.pl_cum with
                      Opt.Config.collective = Opt.Config.Forced alg },
                    Machine.T3d.pvm )
                in
                List.map (golden_line ~mesh:(pr, pc) b row) topos)
              [ (2, 2); (3, 1) ])
          Ir.Coll.all_algs)
      Programs.Suite.paper_benchmarks
  in
  Alcotest.(check (list string)) "collective golden table" (show coll_golden)
    (show got)

let () =
  Alcotest.run "report"
    [ ( "rendering",
        [ Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "bar" `Quick test_bar;
          Alcotest.test_case "grouped bars" `Quick test_grouped_bars;
          Alcotest.test_case "log chart" `Quick test_log_chart_renders;
          Alcotest.test_case "figures render" `Slow test_figures_render ] );
      ( "figure 6",
        [ Alcotest.test_case "positive & monotone" `Slow
            test_overheads_positive_and_monotone;
          Alcotest.test_case "shmem ~10% under pvm" `Slow test_shmem_vs_pvm;
          Alcotest.test_case "async not better" `Slow test_async_not_better;
          Alcotest.test_case "knee near 512 doubles" `Slow test_knee ] );
      ( "experiments",
        [ Alcotest.test_case "grid shape" `Slow test_experiment_grid_shape;
          Alcotest.test_case "appendix table" `Slow
            test_appendix_table_includes_paper;
          Alcotest.test_case "golden simulated results" `Quick
            test_golden_table;
          Alcotest.test_case "golden synthesized collectives" `Quick
            test_coll_golden_table ] ) ]
