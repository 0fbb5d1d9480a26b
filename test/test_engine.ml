(** Simulator engine tests: data movement, counters, determinism,
    blocking semantics per library model, collective reductions, and the
    safety rails (shift-too-wide rejection, instruction limit). *)

open Commopt

let stencil_src =
  {|
constant n = 8;
region R = [1..n, 1..n];
region BigR = [0..n+1, 0..n+1];
direction e = [0, 1]; direction w = [0, -1];
direction no = [-1, 0]; direction s = [1, 0];
var A, B : [BigR] float;
var err : float;
var t : int;
procedure main();
begin
  [BigR] A := Index1 + 10.0 * Index2;
  for t := 1 to 3 do
    [R] B := 0.25 * (A@e + A@w + A@no + A@s);
    [R] err := max<< abs(B - A);
    [R] A := B;
  end;
end;
|}

let make_engine ?(config = Opt.Config.pl_cum) ?(lib = Machine.T3d.pvm)
    ?(pr = 2) ?(pc = 2) ?limit src =
  let prog = Zpl.Check.compile_string src in
  let ir = Opt.Passes.compile config prog in
  Sim.Engine.of_plans ?limit
    (Sim.Engine.plan ~machine:Machine.T3d.machine ~lib ~pr ~pc
       (Ir.Flat.flatten ir))

let test_counts_and_time () =
  let res = Sim.Engine.run (make_engine stencil_src) in
  let st = res.Sim.Engine.stats in
  (* 4 directional transfers x 3 iterations, but every proc on a 2x2 mesh
     is a corner with only two inbound neighbors *)
  Alcotest.(check int) "dynamic count" 6 (Sim.Stats.dynamic_count st);
  Alcotest.(check bool) "time positive" true (res.Sim.Engine.time > 0.0);
  Alcotest.(check bool) "messages flowed" true (Sim.Stats.total_messages st > 0);
  Alcotest.(check int) "reduces joined" 3 st.Sim.Stats.procs.(0).Sim.Stats.reduces

let test_determinism () =
  let r1 = Sim.Engine.run (make_engine stencil_src) in
  let r2 = Sim.Engine.run (make_engine stencil_src) in
  Alcotest.(check (float 0.)) "same makespan" r1.Sim.Engine.time r2.Sim.Engine.time;
  Alcotest.(check int) "same instructions"
    r1.Sim.Engine.stats.Sim.Stats.instructions
    r2.Sim.Engine.stats.Sim.Stats.instructions

(* Every array of a finished run, gathered, equals the sequential
   oracle's store cell for cell. *)
let check_oracle name src (res : Sim.Engine.result) =
  let prog = Zpl.Check.compile_string src in
  let oracle = Runtime.Seqexec.run prog in
  Array.iteri
    (fun aid (info : Zpl.Prog.array_info) ->
      let g = Sim.Engine.gather res.Sim.Engine.engine aid in
      let sq = oracle.Runtime.Seqexec.stores.(aid) in
      Zpl.Region.iter info.a_region (fun p ->
          let a = Runtime.Store.get sq p and b = Runtime.Store.get g p in
          if a <> b then
            Alcotest.failf "%s: %s cell differs: %g vs %g" name info.a_name b a))
    prog.Zpl.Prog.arrays

let test_gather_matches_oracle () =
  check_oracle "2x2" stencil_src (Sim.Engine.run (make_engine stencil_src))

let test_replicated_scalars_agree () =
  let res = Sim.Engine.run (make_engine stencil_src) in
  let env0 = Sim.Engine.final_env res.Sim.Engine.engine in
  Array.iter
    (fun (p : Sim.Engine.proc) ->
      Array.iteri
        (fun i v ->
          if not (Runtime.Values.equal_value v env0.(i)) then
            Alcotest.fail "scalar env diverged between processors")
        (Sim.Engine.proc_env p))
    (Sim.Engine.procs res.Sim.Engine.engine)

let test_library_overheads_ordered () =
  let time lib = (Sim.Engine.run (make_engine ~lib stencil_src)).Sim.Engine.time in
  let csend = time Machine.Paragon.nx_sync in
  let hsend = time Machine.Paragon.nx_callback in
  Alcotest.(check bool) "callback primitives are heavier" true (hsend > csend)

let test_baseline_slower_than_optimized () =
  let time config =
    (Sim.Engine.run (make_engine ~config stencil_src)).Sim.Engine.time
  in
  Alcotest.(check bool) "optimization helps" true
    (time Opt.Config.pl_cum <= time Opt.Config.baseline)

let test_rejects_wide_shift () =
  (* shift magnitude 3 > block extent 2 on a 4x4 mesh over 8 cells *)
  let src =
    {|
constant n = 8;
region R = [4..n, 1..n];
var A, B : [1..n, 1..n] float;
procedure main(); begin [R] B := A@[-3, 0]; end;
|}
  in
  Alcotest.(check bool) "raises" true
    (match make_engine ~pr:4 ~pc:4 src with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The shift bound is per dimension: a column shift is checked against
   the column block extent only. On an 8x1 mesh over 12 rows the row
   blocks are 1-2 cells tall, but every block spans all columns. *)
let east2_src =
  {|
constant n = 12;
region R = [1..n, 1..n-2];
direction east2 = [0, 2];
var A, B : [1..n, 1..n] float;
procedure main();
begin
  [1..n, 1..n] A := Index1 + 100.0 * Index2;
  [R] B := A@east2;
end;
|}

let test_column_shift_tall_mesh () =
  List.iter
    (fun (pr, pc) ->
      check_oracle
        (Printf.sprintf "%dx%d" pr pc)
        east2_src
        (Sim.Engine.run (make_engine ~pr ~pc east2_src)))
    [ (8, 1); (1, 4) ]

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_rejects_tall_row_shift () =
  let src =
    {|
constant n = 12;
region R = [1..n-2, 1..n];
direction south2 = [2, 0];
var A, B : [1..n, 1..n] float;
procedure main(); begin [R] B := A@south2; end;
|}
  in
  Alcotest.(check bool) "raises on 8x1" true
    (match make_engine ~pr:8 ~pc:1 src with
    | _ -> false
    | exception Invalid_argument msg ->
        contains msg "row shift magnitude 2")

let test_instruction_limit () =
  (* the limit is per processor: each of the 4 procs runs well over 10
     instructions on this program, so a budget of 10 must trip *)
  Alcotest.(check bool) "limit enforced" true
    (match Sim.Engine.run (make_engine ~limit:10 stencil_src) with
    | _ -> false
    | exception Sim.Engine.Instruction_limit _ -> true)

(* A deadlock names the blocked processor, its op index and call, the
   transfer ([Ir.Transfer.describe]) and the partners with nothing
   pending, for fringe transfers and synthesized collective rounds
   alike. Each case deletes the SR ops of the first transfer [pick]
   accepts (each becomes a jump to the next op), so its receivers wait
   at their first DN for data that never comes. Returns the transfer's
   description. *)
let check_deadlock ~config pick =
  let prog = Zpl.Check.compile_string stencil_src in
  let flat = Ir.Flat.flatten (Opt.Passes.compile ~mesh:(2, 2) config prog) in
  let x = Option.get (Array.find_index pick flat.Ir.Flat.transfers) in
  let ops =
    Array.mapi
      (fun i op ->
        match op with
        | Ir.Flat.FComm (Ir.Instr.SR, y) when y = x -> Ir.Flat.FJump (i + 1)
        | op -> op)
      flat.Ir.Flat.ops
  in
  let e =
    Sim.Engine.of_plans
      (Sim.Engine.plan ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm ~pr:2
         ~pc:2 { flat with Ir.Flat.ops })
  in
  let dn =
    Option.get
      (Array.find_index (( = ) (Ir.Flat.FComm (Ir.Instr.DN, x))) ops)
  in
  let desc = Ir.Transfer.describe prog flat.Ir.Flat.transfers.(x) in
  (* rank 1 is rank 0's east neighbour on 2x2 and its first
     recursive-doubling partner *)
  Alcotest.(check string) "deadlock message"
    (Printf.sprintf
       "proc 0 blocked at op %d, DN of transfer %s: no data from proc 1" dn
       desc)
    (match Sim.Engine.run e with
    | _ -> "no deadlock"
    | exception Sim.Engine.Deadlock msg -> msg);
  desc

let test_deadlock_fringe () =
  Alcotest.(check string) "transfer" "x0:A@east"
    (check_deadlock ~config:Opt.Config.pl_cum (fun x ->
         not (Ir.Transfer.is_coll x)))

let test_deadlock_round () =
  let config =
    { Opt.Config.pl_cum with
      Opt.Config.collective = Opt.Config.Forced Ir.Coll.Recdouble }
  in
  let desc =
    check_deadlock ~config (fun (x : Ir.Transfer.t) ->
        match x.Ir.Transfer.coll with
        | Some d -> d.Ir.Coll.cl_phase = Ir.Coll.Reduce
        | None -> false)
  in
  Alcotest.(check bool) ("the round is named: " ^ desc) true
    (String.ends_with ~suffix:":recdouble:reduce[0/2]#s0" desc)

let test_wavefront_serializes () =
  (* a row-sweep over a distributed dimension must take longer than the
     same arithmetic without the cross-row dependence *)
  let sweep =
    {|
constant n = 16;
region R = [1..n, 1..n];
var A : [0..n+1, 0..n+1] float;
var i : int;
direction no = [-1, 0];
procedure main();
begin
  [0..n+1, 0..n+1] A := 1.0;
  for i := 2 to n do
    [i..i, 1..n] A := A@no * 0.5 + 1.0;
  end;
end;
|}
  in
  let independent =
    {|
constant n = 16;
region R = [1..n, 1..n];
var A : [0..n+1, 0..n+1] float;
var i : int;
procedure main();
begin
  [0..n+1, 0..n+1] A := 1.0;
  for i := 2 to n do
    [i..i, 1..n] A := A * 0.5 + 1.0;
  end;
end;
|}
  in
  let t src = (Sim.Engine.run (make_engine ~pr:4 ~pc:1 src)).Sim.Engine.time in
  Alcotest.(check bool) "dependence chain costs time" true
    (t sweep > t independent *. 1.5)

let test_shmem_rendezvous_couples () =
  (* under SHMEM the wavefront pays the per-instance rendezvous; PVM's
     buffered sends do not *)
  let sweep =
    {|
constant n = 24;
var A : [0..n+1, 0..n+1] float;
var i : int;
direction no = [-1, 0];
procedure main();
begin
  [0..n+1, 0..n+1] A := 1.0;
  for i := 2 to n do
    [i..i, 1..n] A := A@no * 0.5 + 1.0;
  end;
end;
|}
  in
  let t lib = (Sim.Engine.run (make_engine ~lib ~pr:4 ~pc:1 sweep)).Sim.Engine.time in
  Alcotest.(check bool) "shmem slower on serialized code" true
    (t Machine.T3d.shmem > t Machine.T3d.pvm)

let test_paragon_machine_is_slower () =
  let t machine =
    let prog = Zpl.Check.compile_string stencil_src in
    let ir = Opt.Passes.compile Opt.Config.pl_cum prog in
    let lib =
      if machine == Machine.Paragon.machine then Machine.Paragon.nx_sync
      else Machine.T3d.pvm
    in
    (Sim.Engine.run
       (Sim.Engine.of_plans
          (Sim.Engine.plan ~machine ~lib ~pr:2 ~pc:2 (Ir.Flat.flatten ir))))
      .Sim.Engine.time
  in
  Alcotest.(check bool) "50 MHz Paragon slower than 150 MHz T3D" true
    (t Machine.Paragon.machine > t Machine.T3d.machine)

(* Kernel programs are compiled once per stride signature: on an evenly
   split mesh every rank shares one program, on an uneven split each
   distinct per-array stride vector gets its own. *)
let plans_of ~pr ~pc (b : Programs.Bench_def.t) =
  let prog = Programs.Suite.compile ~scale:`Bench b in
  Sim.Engine.plan ~machine:Machine.T3d.machine ~lib:Machine.T3d.pvm ~pr ~pc
    (Ir.Flat.flatten (Opt.Passes.compile Opt.Config.pl_cum prog))

let test_kernel_programs_paper () =
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      let pr, pc = b.Programs.Bench_def.bench_mesh in
      Alcotest.(check (pair int int)) (b.name ^ " mesh") (8, 8) (pr, pc);
      Alcotest.(check int) (b.name ^ ": one program for 64 ranks") 1
        (Sim.Engine.kernel_programs (plans_of ~pr ~pc b)))
    Programs.Suite.paper_benchmarks

let stride_signatures (e : Sim.Engine.t) =
  Array.map
    (fun p -> Array.map Runtime.Store.strides (Sim.Engine.proc_stores p))
    (Sim.Engine.procs e)
  |> Array.to_list |> List.sort_uniq compare |> List.length

let test_kernel_programs_uneven () =
  (* stencil_src spans 10 columns, which a 3x3 mesh splits 4/3/3 *)
  let e = make_engine ~pr:3 ~pc:3 stencil_src in
  let plans = Sim.Engine.shared_plans e in
  Alcotest.(check int) "one program per stride signature"
    (stride_signatures e)
    (Sim.Engine.kernel_programs plans);
  Alcotest.(check int) "two signatures on the 4/3/3 split" 2
    (Sim.Engine.kernel_programs plans);
  check_oracle "3x3" stencil_src (Sim.Engine.run e)

let () =
  Alcotest.run "engine"
    [ ( "execution",
        [ Alcotest.test_case "counts & time" `Quick test_counts_and_time;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "gather == oracle" `Quick test_gather_matches_oracle;
          Alcotest.test_case "replicated scalars" `Quick test_replicated_scalars_agree ] );
      ( "models",
        [ Alcotest.test_case "library ordering" `Quick test_library_overheads_ordered;
          Alcotest.test_case "optimization helps" `Quick test_baseline_slower_than_optimized;
          Alcotest.test_case "wavefront serializes" `Quick test_wavefront_serializes;
          Alcotest.test_case "shmem rendezvous" `Quick test_shmem_rendezvous_couples;
          Alcotest.test_case "machine speeds" `Quick test_paragon_machine_is_slower ] );
      ( "kernel sharing",
        [ Alcotest.test_case "one program on the paper specs" `Quick
            test_kernel_programs_paper;
          Alcotest.test_case "one program per stride signature" `Quick
            test_kernel_programs_uneven ] );
      ( "guards",
        [ Alcotest.test_case "wide shift rejected" `Quick test_rejects_wide_shift;
          Alcotest.test_case "column shift on a tall mesh verifies" `Quick
            test_column_shift_tall_mesh;
          Alcotest.test_case "row shift beyond row blocks rejected" `Quick
            test_rejects_tall_row_shift;
          Alcotest.test_case "instruction limit" `Quick test_instruction_limit;
          Alcotest.test_case "deadlock names a fringe transfer" `Quick
            test_deadlock_fringe;
          Alcotest.test_case "deadlock names a collective round" `Quick
            test_deadlock_round ] ) ]
