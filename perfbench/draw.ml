(** Seeded spec generation for the benchmark's workloads. Every function
    here is pure in its seed: the same seed gives the same specs in the
    same order, and the program under test only ever sees the specs. *)

type item = {
  bench : string;  (** benchmark name, e.g. "tomcatv" *)
  row : string;  (** experiment row label, e.g. "pl with shmem" *)
  label : string;  (** unique human-readable name of the spec *)
  spec : Run.Spec.t;
}

let shuffle st (a : 'a array) =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let shuffled ~seed xs =
  let a = Array.of_list xs in
  shuffle (Random.State.make [| seed |]) a;
  Array.to_list a

(** The paper grid of [benches] on the T3D: the six experiment rows per
    benchmark, each spec built by the report's own
    [Report.Experiment.bench_spec] (default engine knobs, ideal
    topology), in a seeded order. *)
let paper_items ~seed ~scale (benches : Programs.Bench_def.t list) : item list =
  List.concat_map
    (fun (b : Programs.Bench_def.t) ->
      List.map
        (fun (row, config, lib) ->
          { bench = b.name;
            row;
            label = b.name ^ "/" ^ row;
            spec =
              Report.Experiment.bench_spec ~machine:Machine.T3d.machine ~lib
                ~config ~scale b })
        Report.Experiment.paper_rows)
    benches
  |> shuffled ~seed

(** The factor levels of the cold sweep. *)
let collectives = [ "opaque"; "auto"; "ring"; "binomial"; "recdouble"; "dissem" ]

let topologies = Machine.Topology.all
let meshes = [ (2, 2); (2, 4); (4, 2); (4, 4); (1, 4); (3, 3) ]
let sizes = [ 1.0; 1.5; 2.0 ]

(* The define that sets a benchmark's problem size: the grid extent [n],
   or the message length [m] of the two-node synthetic. *)
let scale_defines factor (defines : (string * float) list) =
  let size = if List.mem_assoc "n" defines then "n" else "m" in
  List.map
    (fun (k, v) -> if k = size then (k, Float.round (v *. factor)) else (k, v))
    defines

(** A cold sweep over [programs] at test scale. Every (program, row,
    mesh, size) cell appears exactly once, so the heavy factors are the
    same in every draw. The seed deals the collectives and topologies
    over the six rows of each (program, mesh, size) block — every
    collective once and every topology twice per block, so the mix is
    the same in every draw and only which row meets which level changes.
    The seed also orders the specs, in six rounds that each visit every
    block once: any stretch of the sweep (the plan cache keeps the last
    256 specs) then holds about the same mix of blocks. Keys are
    distinct because the cells are. *)
let sweep_items ~seed ?(programs = Programs.Suite.all) ?(meshes = meshes)
    ?(sizes = sizes) () : item list =
  let st = Random.State.make [| seed |] in
  let rows = Array.of_list Report.Experiment.paper_rows in
  let nrows = Array.length rows in
  let deal levels =
    let deck = Array.init nrows (fun i -> List.nth levels (i mod List.length levels)) in
    shuffle st deck;
    deck
  in
  let blocks =
    List.concat_map
      (fun (b : Programs.Bench_def.t) ->
        List.concat_map
          (fun (pr, pc) ->
            List.map
              (fun f ->
                let colls = deal collectives and topos = deal topologies in
                let block =
                  Array.init nrows (fun i ->
                      let row, config, lib = rows.(i) in
                      let cname = colls.(i) and topo = topos.(i) in
                      let spec =
                        let open Run.Spec in
                        default b.source
                        |> with_defines (scale_defines f b.test_defines)
                        |> with_config config
                        |> with_collective
                             (Option.get (Opt.Config.collective_of_string cname))
                        |> with_target Machine.T3d.machine lib
                        |> with_mesh pr pc |> with_topology topo
                      in
                      { bench = b.name;
                        row;
                        label =
                          Printf.sprintf "%s/%s/%s/%s/%dx%d/x%g" b.name row
                            cname (Machine.Topology.name topo) pr pc f;
                        spec })
                in
                shuffle st block;
                block)
              sizes)
          meshes)
      programs
    |> Array.of_list
  in
  List.concat
    (List.init nrows (fun round ->
         shuffle st blocks;
         Array.to_list (Array.map (fun block -> block.(round)) blocks)))

(** [Some label] of the first item whose {!Run.Spec.key} repeats an
    earlier one, [None] when all keys are distinct. *)
let duplicate_key (items : item list) : string option =
  let seen = Hashtbl.create (List.length items) in
  List.find_map
    (fun it ->
      let k = Run.Spec.key it.spec in
      if Hashtbl.mem seen k then Some it.label
      else (
        Hashtbl.add seen k ();
        None))
    items
