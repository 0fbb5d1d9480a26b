type t = {
  source : string;
  defines : (string * float) list;
  config : Opt.Config.t;
  machine : Machine.Params.t;
  lib : Machine.Library.t;
  mesh : int * int;
  topology : Machine.Topology.t;
  check : bool;
  limit : int;
}

let default source =
  { source;
    defines = [];
    config = Opt.Config.pl_cum;
    machine = Machine.T3d.machine;
    lib = Machine.T3d.pvm;
    mesh = (4, 4);
    topology = Machine.Topology.Ideal;
    check = false;
    limit = 1_000_000_000 }

(* stable, so duplicate names keep their relative (semantic) order *)
let canon_defines ds =
  List.stable_sort (fun (a, _) (b, _) -> String.compare a b) ds

let with_defines ds t = { t with defines = canon_defines ds }
let with_config config t = { t with config }

let with_collective coll t =
  { t with config = { t.config with Opt.Config.collective = coll } }

let with_machine machine t = { t with machine }
let with_lib lib t = { t with lib }
let with_target machine lib t = { t with machine; lib }
let with_mesh pr pc t = { t with mesh = (pr, pc) }
let with_topology topology t = { t with topology }
let with_check check t = { t with check }
let with_limit limit t = { t with limit }

(* ------------------------------------------------------------------ *)
(* Canonical serialization and content address                         *)
(* ------------------------------------------------------------------ *)

(* Length-prefixed strings and hex-notation floats keep the
   serialization injective: no two distinct field values render to the
   same byte string, and floats round-trip exactly. *)

let add_s b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let add_f b (x : float) =
  Buffer.add_string b (Printf.sprintf "%h;" x)

let add_i b (i : int) =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let add_b b (v : bool) = Buffer.add_char b (if v then '1' else '0')

let add_program b t =
  add_s b t.source;
  List.iter
    (fun (name, v) ->
      add_s b name;
      add_f b v)
    (canon_defines t.defines)

let add_config b (c : Opt.Config.t) =
  add_b b c.Opt.Config.rr;
  add_b b c.Opt.Config.cc;
  add_b b c.Opt.Config.pl;
  add_b b c.Opt.Config.dbe;
  Buffer.add_char b
    (match c.Opt.Config.heuristic with
    | Opt.Config.Max_combine -> 'C'
    | Opt.Config.Max_latency -> 'L');
  add_s b (Opt.Config.collective_name c.Opt.Config.collective)

let add_machine b (m : Machine.Params.t) =
  add_s b m.Machine.Params.name;
  add_f b m.Machine.Params.clock_mhz;
  add_f b m.Machine.Params.timer_granularity_ns;
  add_f b m.Machine.Params.sec_per_flop;
  add_f b m.Machine.Params.kernel_overhead;
  add_f b m.Machine.Params.scalar_op_cost;
  add_f b m.Machine.Params.wire_latency;
  add_f b m.Machine.Params.bandwidth

let add_lib b (l : Machine.Library.t) =
  Buffer.add_char b
    (match l.Machine.Library.kind with
    | Machine.Library.NX_sync -> 's'
    | Machine.Library.NX_async -> 'a'
    | Machine.Library.NX_callback -> 'h'
    | Machine.Library.PVM -> 'p'
    | Machine.Library.SHMEM -> 'm');
  let c = l.Machine.Library.costs in
  add_s b c.Machine.Params.lib_name;
  add_f b c.Machine.Params.dr_over;
  add_f b c.Machine.Params.sr_over;
  add_f b c.Machine.Params.dn_over;
  add_f b c.Machine.Params.sv_over;
  add_f b c.Machine.Params.send_byte;
  add_f b c.Machine.Params.recv_byte;
  add_f b c.Machine.Params.msg_latency;
  add_f b c.Machine.Params.token_latency

let program_digest t =
  let b = Buffer.create 256 in
  add_program b t;
  Digest.to_hex (Digest.string (Buffer.contents b))

let key t =
  let b = Buffer.create 512 in
  add_program b t;
  add_config b t.config;
  add_machine b t.machine;
  add_lib b t.lib;
  let pr, pc = t.mesh in
  add_i b pr;
  add_i b pc;
  add_s b (Machine.Topology.name t.topology);
  (* constant bits where the retired row_path, fuse, cse and wire knobs
     sat: keys stay byte-identical to those of earlier versions, so
     digests recorded over keys (perfbench's sim_digest) stay
     comparable *)
  add_b b true;
  add_b b true;
  add_b b true;
  add_b b true;
  add_b b t.check;
  Digest.to_hex (Digest.string (Buffer.contents b))

let equal a b = String.equal (key a) (key b)

let pp ppf t =
  let pr, pc = t.mesh in
  Fmt.pf ppf "spec{%s, %s on %s/%s, %dx%d%s%s}"
    (String.sub (program_digest t) 0 8)
    (Opt.Config.name t.config)
    t.machine.Machine.Params.name
    (Machine.Library.kind_name t.lib.Machine.Library.kind)
    pr pc
    (match t.topology with
    | Machine.Topology.Ideal -> ""
    | topo -> ", " ^ Machine.Topology.name topo)
    (if t.check then ", check" else "")

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type artifact = {
  a_spec : t;
  a_prog : Zpl.Prog.t;
  a_ir : Ir.Instr.program;
  a_flat : Ir.Flat.t;
  a_plans : Sim.Engine.plans;
}

let build ?prog (spec : t) : artifact =
  let prog =
    match prog with
    | Some p -> p
    | None -> Zpl.Check.compile_string ~defines:spec.defines spec.source
  in
  let ir =
    Opt.Passes.compile ~check:spec.check ~machine:spec.machine ~lib:spec.lib
      ~mesh:spec.mesh ~topology:spec.topology spec.config prog
  in
  let flat = Ir.Flat.flatten ir in
  let pr, pc = spec.mesh in
  let plans =
    Sim.Engine.plan ~topology:spec.topology ~machine:spec.machine
      ~lib:spec.lib ~pr ~pc flat
  in
  { a_spec = spec; a_prog = prog; a_ir = ir; a_flat = flat; a_plans = plans }

let engine_of (a : artifact) : Sim.Engine.t =
  Sim.Engine.of_plans ~limit:a.a_spec.limit a.a_plans

let run (spec : t) : Sim.Engine.result =
  Sim.Engine.run (engine_of (build spec))
