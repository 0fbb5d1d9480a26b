(** The benchmark's workloads and the passes that measure them.

    A pass runs every spec of a workload from source text to makespan,
    timing each spec, and checks every result against the sequential
    oracle with the clock stopped. An untraced pass answers each spec
    the way [Report.Experiment.run_one] and a cold [Run.Sweep] do: one
    [Run.Cache.find] on a fresh cache, then [Sim.Engine.run] on the
    minted engine. (Both of those drivers return only summary rows, and
    the oracle check needs each engine's final stores, so the benchmark
    calls the functions they compose.) A traced pass calls the stages
    [Run.Spec.build] composes one by one, each inside a {!Span}. *)

type kind = Paper_comm | Paper_kernel | Sweep_cold

let kinds =
  [ ("paper-comm", Paper_comm); ("paper-kernel", Paper_kernel);
    ("sweep-cold", Sweep_cold) ]

(** [Full] is the benchmark; [Reduced] is a small version for tests. *)
type size = Full | Reduced

let items ~size ~seed kind : Draw.item list =
  let scale = match size with Full -> `Bench | Reduced -> `Test in
  let open Programs.Suite in
  match (kind, size) with
  | Paper_comm, _ -> Draw.paper_items ~seed ~scale [ tomcatv; sp ]
  | Paper_kernel, _ -> Draw.paper_items ~seed ~scale [ swm; simple ]
  | Sweep_cold, Full -> Draw.sweep_items ~seed ()
  | Sweep_cold, Reduced ->
      Draw.sweep_items ~seed ~meshes:[ (2, 2); (1, 4) ] ~sizes:[ 1.0 ] ()

(** Whether a pass collects the heap between specs (with the clock
    stopped). The paper workloads run a dozen specs of seconds each, so
    a collection costs little, and it keeps each spec's time independent
    of the garbage the spec the seed ran before it left. A cold sweep
    runs hundreds of millisecond specs over a heap the plan cache keeps
    large, where a collection would cost more than the spec. *)
let settles = function Paper_comm | Paper_kernel -> true | Sweep_cold -> false

(** What a pass starts from: the workload's specs and a fresh cache. *)
type ready = { kind : kind; specs : Draw.item list; cache : Run.Cache.t }

(** Spec generation plus cache creation — the work before the first
    spec is submitted. Fails if two specs share a key. *)
let setup ~size ~seed kind : ready =
  let specs = items ~size ~seed kind in
  (match Draw.duplicate_key specs with
  | Some label -> failwith ("perfbench: duplicate spec key at " ^ label)
  | None -> ());
  { kind; specs; cache = Run.Cache.create () }

(** The simulated statistics of one spec's run. *)
type outcome = {
  item : Draw.item;
  key : string;  (** {!Run.Spec.key} *)
  makespan : float;
  static : int;
  dynamic : int;
  msgs : int;
  bytes : int;
  instructions : int;
  cells : int;
  reduces : int;
  static_members : int;
  flat_ops : int;
  pool_fresh : int;
  pool_reused : int;
  wait : float;  (** processor-seconds blocked, summed over processors *)
  comm_cpu : float;  (** processor-seconds inside communication calls *)
  busy : float;  (** processor finish times, summed *)
}

let summarize (item : Draw.item) ir (flat : Ir.Flat.t)
    (res : Sim.Engine.result) : outcome =
  let st = res.Sim.Engine.stats in
  let sum f = Array.fold_left (fun a p -> a + f p) 0 st.Sim.Stats.procs in
  let fsum f = Array.fold_left (fun a p -> a +. f p) 0.0 st.Sim.Stats.procs in
  let pool_fresh, pool_reused = Sim.Engine.pool_counts res.Sim.Engine.engine in
  { item;
    key = Run.Spec.key item.spec;
    makespan = res.Sim.Engine.time;
    static = Ir.Count.static_count ir;
    dynamic = Sim.Stats.dynamic_count st;
    msgs = Sim.Stats.total_messages st;
    bytes = Sim.Stats.total_bytes st;
    instructions = st.Sim.Stats.instructions;
    cells = sum (fun p -> p.Sim.Stats.cells);
    reduces = sum (fun p -> p.Sim.Stats.reduces);
    static_members = Ir.Count.static_member_count ir;
    flat_ops = Array.length flat.Ir.Flat.ops;
    pool_fresh;
    pool_reused;
    wait = fsum (fun p -> p.Sim.Stats.times.wait);
    comm_cpu = fsum (fun p -> p.Sim.Stats.times.comm_cpu);
    busy = fsum (fun p -> p.Sim.Stats.times.finish) }

(** Digest over every spec's simulated statistics (makespan in hex,
    counts), independent of spec order. Two runs that simulate the same
    numbers print the same digest. *)
let sim_digest (outcomes : outcome list) : string =
  List.map
    (fun o ->
      Printf.sprintf "%s %h %d %d %d %d %d %d %d\n" o.key o.makespan o.static
        o.dynamic o.msgs o.bytes o.instructions o.cells o.reduces)
    outcomes
  |> List.sort compare |> String.concat "" |> Digest.string |> Digest.to_hex

(** The sequential oracle, run once per program (source and defines) in
    a benchmark run and kept for every pass. *)
type oracle = {
  table : (string, Runtime.Seqexec.t) Hashtbl.t;  (** by program digest *)
  mutable seconds : float;  (** host time spent running the oracle *)
  mutable max_rel_err : float;  (** worst cell over the measured specs *)
}

let oracle () = { table = Hashtbl.create 16; seconds = 0.0; max_rel_err = 0.0 }

let oracle_for o (spec : Run.Spec.t) =
  let pd = Run.Spec.program_digest spec in
  match Hashtbl.find_opt o.table pd with
  | Some w -> w
  | None ->
      let t0 = Span.now () in
      let prog =
        Zpl.Check.compile_string ~defines:spec.Run.Spec.defines spec.Run.Spec.source
      in
      let w = Runtime.Seqexec.run prog in
      o.seconds <- o.seconds +. (Span.now () -. t0);
      Hashtbl.add o.table pd w;
      w

(** Run the oracle for every program of [r] up front, in an order that
    does not depend on the seed, so the heap the passes start from does
    not either. *)
let prepare o (r : ready) =
  List.map (fun (it : Draw.item) -> (Run.Spec.program_digest it.spec, it.spec)) r.specs
  |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, spec) -> ignore (oracle_for o spec : Runtime.Seqexec.t))

let tolerance = 1e-9

(* Check one run against the oracle; [Error] names the first divergent
   cell. [distance] also folds the worst relative error into [o]. *)
let verify o ~distance (spec : Run.Spec.t) prog ir flat res =
  let want = oracle_for o spec in
  let c = { Commopt.prog; config = spec.Run.Spec.config; ir; flat } in
  if distance then
    o.max_rel_err <- Float.max o.max_rel_err (Commopt.oracle_distance c res want);
  match Commopt.first_divergence ~tolerance c res want with
  | None -> Ok ()
  | Some d -> Error (Fmt.str "diverges from the oracle: %a" Commopt.pp_divergence d)

(* One spec through the cache, as the report and the sweep service do. *)
let run_cached cache (spec : Run.Spec.t) =
  let art, _hit = Run.Cache.find cache spec in
  let res = Sim.Engine.run (Run.Spec.engine_of art) in
  (art.Run.Spec.a_prog, art.Run.Spec.a_ir, art.Run.Spec.a_flat, res)

(* What a traced pass keeps in place of the cache: the parsed-program
   memo, so each program is parsed once a pass, and the most recent
   compiled plans up to the cache's capacity, so the heap carries what
   the cache would retain. *)
type memo = {
  progs : (string, Zpl.Prog.t) Hashtbl.t;
  retained : Sim.Engine.plans Queue.t;
  capacity : int;
}

let memo (r : ready) =
  { progs = Hashtbl.create 16;
    retained = Queue.create ();
    capacity = Run.Cache.capacity r.cache }

(* One spec stage by stage, each stage in a span, inside a "spec" span. *)
let run_traced tr m (spec : Run.Spec.t) =
  Span.record tr "spec" (fun () ->
      ignore (Run.Spec.key spec : string);
      let pd = Run.Spec.program_digest spec in
      let prog =
        match Hashtbl.find_opt m.progs pd with
        | Some p -> p
        | None ->
            let p =
              Span.record tr "zpl" (fun () ->
                  Zpl.Check.compile_string ~defines:spec.Run.Spec.defines
                    spec.Run.Spec.source)
            in
            Hashtbl.add m.progs pd p;
            p
      in
      let { Run.Spec.machine; lib; mesh; topology; config; limit; _ } = spec in
      let ir =
        Span.record tr "opt" (fun () ->
            Opt.Passes.compile ~machine ~lib ~mesh ~topology config prog)
      in
      let flat = Span.record tr "ir" (fun () -> Ir.Flat.flatten ir) in
      let pr, pc = mesh in
      let plans =
        Span.record tr "sim.plan" (fun () ->
            Sim.Engine.plan ~topology ~machine ~lib ~pr ~pc flat)
      in
      Queue.push plans m.retained;
      if Queue.length m.retained > m.capacity then
        ignore (Queue.pop m.retained : Sim.Engine.plans);
      let eng =
        Span.record tr "sim.mint" (fun () -> Sim.Engine.of_plans ~limit plans)
      in
      let res = Span.record tr "sim.run" (fun () -> Sim.Engine.run eng) in
      (prog, ir, flat, res))

type pass = {
  traced : bool;
  raw_wall : float;  (** host seconds over every spec, checks excluded *)
  scale : float;  (** {!Speed.scale} over the pass *)
  wall : float;  (** [raw_wall * scale]: seconds at the reference speed *)
  outcomes : outcome list;  (** specs that ran and matched the oracle *)
  failures : (string * string) list;  (** (spec label, reason) *)
  spans : Span.span list;  (** traced passes only *)
  cache : Run.Cache.counters;  (** untraced passes only, else zero *)
  minor_gcs : int;
  major_gcs : int;
  live_words : int;
      (** [first] passes: the words reachable from the cache at the end
          of the pass, plus the most words any finished engine held
          beyond its shared plans; else 0. An upper bound of the live
          heap's peak that does not depend on the spec order. *)
}

(** Run every spec of [r] once. A [first] pass also measures the worst
    relative error against the oracle (an extra sweep over the cells)
    and the live heap. *)
let run_pass ~oracle:o ~first ~traced (r : ready) : pass =
  let tr = Span.create () and m = memo r in
  let gc0 = Gc.quick_stat () in
  let raw = ref 0.0 and outcomes = ref [] and failures = ref [] in
  let speed = ref [] and engine_words = ref 0 in
  let n = List.length r.specs in
  (* about 300 reference-loop timings per pass, taken at up to 60 spec
     boundaries *)
  let sample_stride = max 1 (n / 60) in
  let per_boundary = max 5 (300 / ((n / sample_stride) + 1)) in
  Speed.sample ~n:per_boundary speed;
  List.iteri
    (fun i (it : Draw.item) ->
      let t0 = Span.now () in
      (match
         if traced then run_traced tr m it.spec
         else run_cached r.cache it.spec
       with
      | exception e -> failures := (it.label, Printexc.to_string e) :: !failures
      | prog, ir, flat, res -> (
          if not traced then raw := !raw +. (Span.now () -. t0);
          if first then
            engine_words :=
              max !engine_words
                (Obj.reachable_words (Obj.repr res)
                - Obj.reachable_words
                    (Obj.repr (Sim.Engine.shared_plans res.Sim.Engine.engine)));
          match verify o ~distance:first it.spec prog ir flat res with
          | Ok () -> outcomes := summarize it ir flat res :: !outcomes
          | Error why -> failures := (it.label, why) :: !failures));
      if settles r.kind then Gc.full_major ();
      if i mod sample_stride = sample_stride - 1 then
        Speed.sample ~n:per_boundary speed)
    r.specs;
  let gc1 = Gc.quick_stat () in
  let spans = Span.spans tr in
  if traced then
    raw :=
      List.fold_left
        (fun a (s : Span.span) ->
          if s.name = "spec" then a +. Span.duration s else a)
        0.0 spans;
  let scale = Speed.scale !speed in
  { traced;
    raw_wall = !raw;
    scale;
    wall = !raw *. scale;
    outcomes = List.rev !outcomes;
    failures = List.rev !failures;
    spans;
    cache =
      (if traced then { Run.Cache.hits = 0; misses = 0; evictions = 0 }
       else Run.Cache.counters r.cache);
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    live_words =
      (if first then Obj.reachable_words (Obj.repr r.cache) + !engine_words
       else 0) }

(** [paper_rank_agree outcomes] — over the benchmarks that have paper
    tables, the share of same-benchmark row pairs whose simulated-time
    order matches the paper's ([None] when no pair has paper times). *)
let paper_rank_agree (outcomes : outcome list) : (int * int) option =
  let agree, pairs =
    List.fold_left
      (fun (a, n) (b : Programs.Bench_def.t) ->
        let rows =
          List.filter_map
            (fun o ->
              if o.item.bench <> b.name then None
              else
                List.find_opt
                  (fun (r : Programs.Bench_def.paper_row) ->
                    r.experiment = o.item.row)
                  b.paper_rows
                |> Option.map (fun (r : Programs.Bench_def.paper_row) ->
                       (r.p_time, o.makespan)))
            outcomes
        in
        let a', n' = Measure.rank_agree rows in
        (a + a', n + n'))
      (0, 0) Programs.Suite.paper_benchmarks
  in
  if pairs = 0 then None else Some (agree, pairs)
