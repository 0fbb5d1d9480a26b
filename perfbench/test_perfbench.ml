(* Tests for the benchmark's own pieces: the seeded draw, span self-time
   arithmetic, paper rank agreement, and the traced/untraced passes at a
   reduced size. *)

open Perfbench

let labels items = List.map (fun (it : Draw.item) -> it.label) items
let keys items = List.map (fun (it : Draw.item) -> Run.Spec.key it.spec) items

(* ---- seeded draw ---- *)

let test_draw_reproducible () =
  let a = Draw.sweep_items ~seed:7 () and b = Draw.sweep_items ~seed:7 () in
  Alcotest.(check (list string)) "same labels" (labels a) (labels b);
  Alcotest.(check (list string)) "same keys" (keys a) (keys b);
  let c = Draw.sweep_items ~seed:8 () in
  Alcotest.(check bool) "another seed draws another list" true (labels a <> labels c)

let test_draw_distinct () =
  List.iter
    (fun seed ->
      let items = Draw.sweep_items ~seed () in
      Alcotest.(check int) "one spec per cell" (6 * 6 * 6 * 3) (List.length items);
      Alcotest.(check (option string)) "keys distinct" None (Draw.duplicate_key items))
    [ 1; 2; 3 ]

(* Every (program, mesh, size) block deals each collective once and
   each topology twice over its six rows, whatever the seed. *)
let test_draw_balanced () =
  let items = Draw.sweep_items ~seed:5 () in
  let blocks = Hashtbl.create 128 in
  List.iter
    (fun (it : Draw.item) ->
      let s = it.spec in
      let k = (it.bench, s.Run.Spec.mesh, s.Run.Spec.defines) in
      Hashtbl.replace blocks k
        ((Opt.Config.collective_name s.Run.Spec.config.Opt.Config.collective,
          Machine.Topology.name s.Run.Spec.topology)
        :: Option.value ~default:[] (Hashtbl.find_opt blocks k)))
    items;
  Alcotest.(check int) "blocks" (6 * 6 * 3) (Hashtbl.length blocks);
  Hashtbl.iter
    (fun _ levels ->
      Alcotest.(check (list string)) "each collective once"
        (List.sort compare Draw.collectives)
        (List.sort compare (List.map fst levels));
      List.iter
        (fun t ->
          Alcotest.(check int) "each topology twice" 2
            (List.length
               (List.filter (fun (_, n) -> n = Machine.Topology.name t) levels)))
        Draw.topologies)
    blocks

let test_paper_order () =
  let a = Draw.paper_items ~seed:1 ~scale:`Test Programs.Suite.[ tomcatv; sp ]
  and b = Draw.paper_items ~seed:2 ~scale:`Test Programs.Suite.[ tomcatv; sp ] in
  Alcotest.(check int) "twelve specs" 12 (List.length a);
  Alcotest.(check (list string)) "same specs" (List.sort compare (labels a))
    (List.sort compare (labels b));
  Alcotest.(check bool) "seed orders them" true (labels a <> labels b)

(* ---- spans ---- *)

let span id parent start stop =
  { Span.id; parent; name = Printf.sprintf "s%d" id; start; stop; minor_words = 0.0 }

let test_self_time () =
  (* a root with three children, one of which has a child of its own *)
  let spans =
    [ span 0 (-1) 0.0 10.0; span 1 0 1.0 3.0; span 2 0 3.5 5.0; span 3 0 8.0 9.5;
      span 4 1 1.5 2.5 ]
  in
  let self = List.map (fun ((s : Span.span), t) -> (s.id, t)) (Span.self_times spans) in
  let check id want =
    Alcotest.(check (float 1e-12)) (Printf.sprintf "self of %d" id) want
      (List.assoc id self)
  in
  check 0 5.0;
  check 1 1.0;
  check 2 1.5;
  check 3 1.5;
  check 4 1.0

let test_recorder () =
  let tr = Span.create () in
  let v =
    Span.record tr "outer" (fun () ->
        let a = Span.record tr "inner" (fun () -> 20) in
        (try Span.record tr "raises" (fun () -> failwith "x") with Failure _ -> ());
        a + 1)
  in
  Alcotest.(check int) "value passes through" 21 v;
  match Span.spans tr with
  | [ o; i; r ] ->
      Alcotest.(check (list string)) "names" [ "outer"; "inner"; "raises" ]
        [ o.name; i.name; r.name ];
      Alcotest.(check (list int)) "parents" [ -1; o.id; o.id ]
        [ o.parent; i.parent; r.parent ];
      let layers = Span.by_name [ o; i; r ] in
      let outer = List.assoc "outer" layers in
      Alcotest.(check (float 1e-9)) "self = total - children"
        (Span.duration o -. Span.duration i -. Span.duration r)
        outer.self_s
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

(* ---- paper rank agreement ---- *)

let test_rank_agree () =
  let rows = [ (Some 3.0, 30.0); (Some 2.0, 10.0); (Some 1.0, 20.0); (None, 5.0) ] in
  Alcotest.(check (pair int int)) "two of three pairs" (2, 3) (Measure.rank_agree rows);
  let ties = [ (Some 1.0, 2.0); (Some 1.0, 2.0); (Some 1.0, 3.0) ] in
  Alcotest.(check (pair int int)) "a tie agrees only with a tie" (1, 3)
    (Measure.rank_agree ties);
  Alcotest.(check (pair int int)) "no paper times" (0, 0)
    (Measure.rank_agree [ (None, 1.0); (None, 2.0) ])

(* ---- passes at a reduced size ---- *)

let pass ~traced kind =
  let r = Workload.setup ~size:Reduced ~seed:3 kind in
  Workload.run_pass ~oracle:(Workload.oracle ()) ~first:true ~traced r

let test_traced_digest kind () =
  let u = pass ~traced:false kind and t = pass ~traced:true kind in
  Alcotest.(check int) "no failures (untraced)" 0 (List.length u.failures);
  Alcotest.(check int) "no failures (traced)" 0 (List.length t.failures);
  Alcotest.(check string) "same sim_digest" (Workload.sim_digest u.outcomes)
    (Workload.sim_digest t.outcomes);
  (* the stage spans plus the spec spans' self time are the traced wall *)
  let layers = Span.by_name t.spans in
  let stages =
    List.fold_left
      (fun a (n, (l : Span.layer)) -> if n = "spec" then a else a +. l.total_s)
      0.0 layers
  in
  Alcotest.(check (float 1e-9)) "accounting" t.raw_wall
    (stages +. (List.assoc "spec" layers).self_s)

let triple (o : Workload.outcome) = (o.item.label, o.makespan, o.static, o.dynamic)

let sort_triples l = List.sort compare l

(* The benchmark's cached path answers exactly what the report's
   run_grid and a cold Run.Sweep answer. *)
let test_matches_drivers () =
  let p = pass ~traced:false Workload.Paper_comm in
  let grid =
    Report.Experiment.run_grid ~machine:Machine.T3d.machine
      ~rows:Report.Experiment.paper_rows ~domains:1 ~scale:`Test
      Programs.Suite.[ tomcatv; sp ]
  in
  let from_grid =
    List.concat_map
      (fun (r : Report.Experiment.bench_result) ->
        List.map
          (fun (row : Report.Experiment.row) ->
            ( r.bench.Programs.Bench_def.name ^ "/" ^ row.label,
              row.time,
              row.static_count,
              row.dynamic_count ))
          r.rows)
      grid
  in
  Alcotest.(check bool) "run_grid rows" true
    (sort_triples from_grid = sort_triples (List.map triple p.outcomes));
  let s = pass ~traced:false Workload.Sweep_cold in
  let items = Workload.items ~size:Reduced ~seed:3 Workload.Sweep_cold in
  let sweep =
    Run.Sweep.run ~domains:1 (Run.Sweep.create ())
      (List.map (fun (it : Draw.item) -> { Run.Sweep.label = it.label; spec = it.spec }) items)
  in
  let from_sweep =
    List.map
      (fun (r : Run.Sweep.row) -> (r.r_label, r.r_time, r.r_static, r.r_dynamic))
      sweep.rows
  in
  Alcotest.(check bool) "Run.Sweep rows" true
    (sort_triples from_sweep = sort_triples (List.map triple s.outcomes))

let test_rank_pairs () =
  let p = pass ~traced:false Workload.Paper_comm in
  match Workload.paper_rank_agree p.outcomes with
  | Some (agree, pairs) ->
      (* TOMCATV: 6 timed rows, 15 pairs; SP: 5 timed rows, 10 pairs *)
      Alcotest.(check int) "row pairs" 25 pairs;
      Alcotest.(check bool) "agreeing pairs in range" true (agree >= 0 && agree <= pairs)
  | None -> Alcotest.fail "no paper pairs"

let () =
  Alcotest.run "perfbench"
    [ ( "draw",
        [ Alcotest.test_case "reproducible" `Quick test_draw_reproducible;
          Alcotest.test_case "distinct keys" `Quick test_draw_distinct;
          Alcotest.test_case "balanced" `Quick test_draw_balanced;
          Alcotest.test_case "paper order" `Quick test_paper_order ] );
      ( "span",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder ] );
      ( "rank",
        [ Alcotest.test_case "hand-made table" `Quick test_rank_agree;
          Alcotest.test_case "row pairs" `Quick test_rank_pairs ] );
      ( "pass",
        [ Alcotest.test_case "traced digest (paper-comm)" `Quick
            (test_traced_digest Workload.Paper_comm);
          Alcotest.test_case "traced digest (sweep-cold)" `Quick
            (test_traced_digest Workload.Sweep_cold);
          Alcotest.test_case "matches run_grid and Run.Sweep" `Quick
            test_matches_drivers ] ) ]
