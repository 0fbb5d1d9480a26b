(** Directed tests of the wire-plan communication runtime: steady-state
    communication allocates no minor words, the staging-buffer pool
    recycles under ping-pong traffic, send-time snapshots stay sound
    when the receiver lags the sender by many repeat iterations, and
    kernel calls whose region clips to empty allocate nothing. *)

open Commopt

let t3d = Machine.T3d.machine

let compile_flat ?defines src =
  let prog = Zpl.Check.compile_string ?defines src in
  Ir.Flat.flatten (Opt.Passes.compile Opt.Config.pl_cum prog)

let run ~pr ~pc flat =
  Sim.Engine.run
    (Sim.Engine.of_plans
       (Sim.Engine.plan ~machine:t3d ~lib:Machine.T3d.pvm ~pr ~pc flat))

(* ------------------------------------------------------------------ *)
(* Zero-allocation steady state                                        *)
(* ------------------------------------------------------------------ *)

(** Minor words allocated by one full build+run of the two-node
    synthetic at [iters] iterations. *)
let minor_words_of ~iters src =
  let defines = Programs.Synthetic.defines ~doubles:64 ~busyn:32 ~iters in
  let flat = compile_flat ~defines src in
  let engine =
    Sim.Engine.of_plans
      (Sim.Engine.plan ~machine:t3d ~lib:Machine.T3d.pvm ~pr:1 ~pc:2 flat)
  in
  let before = Gc.minor_words () in
  ignore (Sim.Engine.run engine);
  Gc.minor_words () -. before

(** Differential allocation measurement: the one-off costs (plan
    compilation, kernel caches, pool warm-up) are identical at [lo] and
    [hi] iterations, so the [hi - lo] delta isolates the per-iteration
    cost; subtracting the communication-free busy variant's delta then
    isolates the per-iteration cost of communication alone. That must be
    (essentially) zero: no payload lists, no hashed mailbox lookups, no
    boxed floats on the activation path. *)
let test_zero_alloc () =
  let lo = 50 and hi = 250 in
  (* Warm both program shapes once so shared lazy state (alcotest
     buffers, format machinery) is paid before measuring. *)
  ignore (minor_words_of ~iters:2 Programs.Synthetic.source);
  ignore (minor_words_of ~iters:2 Programs.Synthetic.busy_source);
  let comm =
    minor_words_of ~iters:hi Programs.Synthetic.source
    -. minor_words_of ~iters:lo Programs.Synthetic.source
  and busy =
    minor_words_of ~iters:hi Programs.Synthetic.busy_source
    -. minor_words_of ~iters:lo Programs.Synthetic.busy_source
  in
  let per_iter = (comm -. busy) /. float_of_int (hi - lo) in
  (* Each iteration is 2 transfers x 2 sides x 2 procs = 8 comm
     activations plus 2 packed messages; 8 words/iteration of slack is
     <= 1 word per activation, i.e. no per-message allocation at all. *)
  Alcotest.(check bool)
    (Printf.sprintf
       "steady-state comm allocates %.2f minor words/iteration (want <= 8)"
       per_iter)
    true
    (per_iter <= 8.0)

(* ------------------------------------------------------------------ *)
(* Allocation-free kernel dispatch                                     *)
(* ------------------------------------------------------------------ *)

(** A TOMCATV-style single-row sweep: [body] runs once per row [i] of
    the interior, so on a multi-row mesh only the processors owning row
    [i] have cells to update — every other processor's call clips to an
    empty region. [body = ""] is the control variant: the same loops,
    no kernel. *)
let sweep_src ~body =
  Printf.sprintf
    {|
constant n     = 34;
constant iters = 2;

region R = [1..n, 1..8];

var A, B, C : [R] float;
var i, t : int;
var s : float;

procedure main();
begin
  [R] A := Index1 * 0.25;
  [R] B := Index2 + 0.5;
  for t := 1 to iters do
    for i := 2 to n - 1 do
      s := s + 1.0;
      %s
    end;
  end;
end;
|}
    body

let sweep_rows = 32 (* rows 2..n-1 *)

(** Minor words of one run of [src] at [iters] outer iterations on a
    [pr]x1 mesh, engine construction excluded. *)
let sweep_minor_words ~pr ~iters src =
  let defines = [ ("iters", float_of_int iters) ] in
  let flat = compile_flat ~defines src in
  let engine =
    Sim.Engine.of_plans
      (Sim.Engine.plan ~machine:t3d ~lib:Machine.T3d.pvm ~pr ~pc:1 flat)
  in
  let before = Gc.minor_words () in
  ignore (Sim.Engine.run engine);
  Gc.minor_words () -. before

(** Differential measurement as in {!test_zero_alloc}: the [hi - lo]
    delta isolates the per-iteration cost, and subtracting the
    kernel-free control variant's delta leaves the kernel calls alone.
    Per outer iteration each of [pr] processors executes the sweep
    statement once per row: [sweep_rows] calls have cells (one owner per
    row) and may allocate their clipped region — 9 words for a rank-2
    region — while the other [(pr - 1) * sweep_rows] clip to empty and
    must allocate nothing. *)
let test_empty_kernels_alloc_free () =
  let pr = 8 and lo = 5 and hi = 45 in
  let per_iter src =
    ignore (sweep_minor_words ~pr ~iters:2 src);
    (sweep_minor_words ~pr ~iters:hi src -. sweep_minor_words ~pr ~iters:lo src)
    /. float_of_int (hi - lo)
  in
  let control = per_iter (sweep_src ~body:"") in
  let empty_calls = float_of_int ((pr - 1) * sweep_rows) in
  let check name body =
    let kernels = per_iter (sweep_src ~body) -. control in
    let per_empty = (kernels -. (9.0 *. float_of_int sweep_rows)) /. empty_calls in
    Alcotest.(check bool)
      (Printf.sprintf
         "%s: %.2f minor words per empty-region call (want <= 0.5; %.1f \
          words/iteration for all kernel calls)"
         name per_empty kernels)
      true (per_empty <= 0.5)
  in
  check "single statement" "[i..i, 2..7] A := A * 0.5 + B;"

(* ------------------------------------------------------------------ *)
(* Allocation-free collective rounds                                   *)
(* ------------------------------------------------------------------ *)

let forced alg =
  { Opt.Config.pl_cum with Opt.Config.collective = Opt.Config.Forced alg }

(** The reduction synthetic ([+<<], [max<<], [min<<] per iteration)
    compiled with every reduction forced into [alg]'s rounds on 2x2. *)
let coll_flat ~alg ~iters =
  let defines = Programs.Synthetic.reduce_defines ~n:16 ~iters in
  let prog =
    Zpl.Check.compile_string ~defines Programs.Synthetic.reduce_source
  in
  Ir.Flat.flatten (Opt.Passes.compile ~mesh:(2, 2) (forced alg) prog)

let coll_minor_words ~alg ~iters =
  let engine =
    Sim.Engine.of_plans
      (Sim.Engine.plan ~machine:t3d ~lib:Machine.T3d.pvm ~pr:2 ~pc:2
         (coll_flat ~alg ~iters))
  in
  let before = Gc.minor_words () in
  ignore (Sim.Engine.run engine);
  Gc.minor_words () -. before

(** The algorithms differ in rounds, partners, message widths and
    combine order, but none of that may cost an allocation: a round is
    a packed staging buffer through a ring mailbox and a combine over
    unboxed floats. So the per-iteration minor words — the kernels'
    clipped regions and the scalar updates, the same for every
    algorithm — must agree to within 8 words. *)
let test_coll_rounds_alloc_free () =
  let lo = 50 and hi = 250 in
  let per_iter alg =
    ignore (coll_minor_words ~alg ~iters:2);
    (coll_minor_words ~alg ~iters:hi -. coll_minor_words ~alg ~iters:lo)
    /. float_of_int (hi - lo)
  in
  let words = List.map (fun a -> (a, per_iter a)) Ir.Coll.all_algs in
  let lo_w = List.fold_left (fun m (_, w) -> Float.min m w) infinity words
  and hi_w = List.fold_left (fun m (_, w) -> Float.max m w) 0.0 words in
  Alcotest.(check bool)
    (Printf.sprintf "minor words/iteration %s differ by %.1f (want <= 8)"
       (String.concat ", "
          (List.map
             (fun (a, w) -> Printf.sprintf "%s %.1f" (Ir.Coll.alg_name a) w)
             words))
       (hi_w -. lo_w))
    true
    (hi_w -. lo_w <= 8.0)

(* ------------------------------------------------------------------ *)
(* Pool recycling under ping-pong traffic                              *)
(* ------------------------------------------------------------------ *)

let test_pool_recycles () =
  let iters = 60 in
  let defines = Programs.Synthetic.defines ~doubles:16 ~busyn:16 ~iters in
  let flat = compile_flat ~defines Programs.Synthetic.source in
  let res = run ~pr:1 ~pc:2 flat in
  let fresh, reused = Sim.Engine.pool_counts res.Sim.Engine.engine in
  let total = Sim.Stats.total_messages res.Sim.Engine.stats in
  Alcotest.(check bool) "messages flowed" true (total >= 2 * iters);
  Alcotest.(check int) "every send acquired a staging buffer" total
    (fresh + reused);
  (* Ping-pong keeps the two processors in lockstep, so the in-flight
     high-water — and with it the number of buffers ever allocated — is
     a small constant independent of the iteration count. *)
  Alcotest.(check bool)
    (Printf.sprintf "fresh buffers bounded (%d fresh for %d messages)" fresh
       total)
    true
    (fresh <= 8);
  Alcotest.(check bool) "the pool actually recycled" true (reused > total / 2)

(** Round messages draw staging buffers from the same wire pools as
    fringe messages, so the pool accounting covers them: on the
    reduction synthetic every message is a round message. *)
let test_pool_counts_cover_rounds () =
  List.iter
    (fun alg ->
      let res = run ~pr:2 ~pc:2 (coll_flat ~alg ~iters:10) in
      let fresh, reused = Sim.Engine.pool_counts res.Sim.Engine.engine in
      let total = Sim.Stats.total_messages res.Sim.Engine.stats in
      let name = Ir.Coll.alg_name alg in
      Alcotest.(check bool) (name ^ ": rounds sent messages") true (total > 0);
      Alcotest.(check int)
        (name ^ ": every send acquired a staging buffer")
        total (fresh + reused))
    Ir.Coll.all_algs

(* ------------------------------------------------------------------ *)
(* Snapshot soundness when the receiver lags the sender                *)
(* ------------------------------------------------------------------ *)

(** One-directional traffic: only processor 1 sends (the [B@east]
    boundary), so under the serial drain processor 0 blocks on its first
    DN wait while processor 1 — which never waits on anything — runs the
    {e entire} program, depositing one message per iteration into
    processor 0's mailbox. [B] is rewritten every iteration, so each
    in-flight message must carry the values [B] held at its own send
    time: if staging buffers aliased live stores (or were recycled while
    still in flight), the lagging receiver would read late values and
    diverge from the sequential oracle. *)
let lag_src =
  {|
constant m     = 16;
constant iters = 40;

region Strip = [1..m, 1..2];
direction east = [0, 1];

var A, B : [0..m+1, 0..3] float;
var t : int;

procedure main();
begin
  [0..m+1, 0..3] A := Index1 * 0.25;
  [0..m+1, 0..3] B := Index2 + Index1 * 0.5;
  for t := 1 to iters do
    [Strip] A := A * 0.5 + B@east * 0.25;
    [Strip] B := B * 1.0001 + 0.0001;
  end;
end;
|}

let bits (s : Runtime.Store.t) =
  Array.map Int64.bits_of_float (Runtime.Store.to_array s)

let test_snapshot_under_lag () =
  let iters = 40 in
  let prog = Zpl.Check.compile_string lag_src in
  let wire =
    run ~pr:1 ~pc:2
      (Ir.Flat.flatten (Opt.Passes.compile Opt.Config.pl_cum prog))
  in
  let oracle = Runtime.Seqexec.run prog in
  Array.iteri
    (fun aid want ->
      Alcotest.(check bool)
        (Printf.sprintf "lagging receiver: array %d == oracle (bitwise)" aid)
        true
        (bits (Sim.Engine.gather wire.Sim.Engine.engine aid) = bits want))
    oracle.Runtime.Seqexec.stores;
  let fresh, reused = Sim.Engine.pool_counts wire.Sim.Engine.engine in
  let total = Sim.Stats.total_messages wire.Sim.Engine.stats in
  Alcotest.(check int) "every send acquired a staging buffer" total
    (fresh + reused);
  (* The stress actually happened: the sender lapped the receiver by the
     whole loop, so the pool's high-water — all-fresh acquisitions — is
     one buffer per iteration, none ever recycled. *)
  Alcotest.(check int) "sender ran the whole loop ahead" iters fresh;
  Alcotest.(check int) "no buffer was recycled while in flight" 0 reused

(* ------------------------------------------------------------------ *)
(* Send sides derived from receive sides                               *)
(* ------------------------------------------------------------------ *)

(** The engine computes only receive sides and derives the send sides
    from them ([Halo.send_sides]). For every halo transfer of every
    corpus program under every optimizer row, on even, uneven and
    degenerate meshes, the derived sides must equal a direct
    [partner_sides ~dir:`Send]: same partners in the same order, same
    (array, rect) lists, same cell counts. *)
let test_send_sides_derived () =
  let checked = ref 0 and combined = ref 0 in
  List.iter
    (fun (b : Programs.Bench_def.t) ->
      let prog = Programs.Suite.compile b in
      List.iter
        (fun config ->
          List.iter
            (fun (pr, pc) ->
              let layout = Runtime.Layout.for_program ~pr ~pc prog in
              let n = Runtime.Layout.nprocs layout in
              let flat =
                Ir.Flat.flatten
                  (Opt.Passes.compile ~mesh:(pr, pc) config prog)
              in
              Array.iteri
                (fun xi (x : Ir.Transfer.t) ->
                  if not (Ir.Transfer.is_coll x) then begin
                    let sides dir =
                      Array.init n (fun p ->
                          Runtime.Halo.partner_sides layout prog
                            ~arrays:x.Ir.Transfer.arrays ~off:x.Ir.Transfer.off
                            ~p ~dir)
                    in
                    incr checked;
                    if List.length x.Ir.Transfer.arrays > 1 then incr combined;
                    if Runtime.Halo.send_sides (sides `Recv) <> sides `Send then
                      Alcotest.failf "%s %dx%d: transfer %d: derived send \
                                      sides differ" b.name pr pc xi
                  end)
                flat.Ir.Flat.transfers)
            [ (2, 2); (3, 3); (1, 4); (4, 2); (8, 1) ])
        [ Opt.Config.baseline; Opt.Config.rr_only; Opt.Config.cc_cum;
          Opt.Config.pl_cum; Opt.Config.pl_max_latency ])
    Programs.Suite.all;
  Alcotest.(check bool) "combined transfers checked" true (!combined > 0)

let () =
  Alcotest.run "comm runtime"
    [ ( "wire",
        [ Alcotest.test_case "zero-allocation steady state" `Quick
            test_zero_alloc;
          Alcotest.test_case "pool recycles under ping-pong" `Quick
            test_pool_recycles;
          Alcotest.test_case "pool counts cover collective rounds" `Quick
            test_pool_counts_cover_rounds;
          Alcotest.test_case "snapshots sound under receiver lag" `Quick
            test_snapshot_under_lag;
          Alcotest.test_case "empty-region kernel calls allocate nothing"
            `Quick test_empty_kernels_alloc_free;
          Alcotest.test_case "collective rounds allocate alike" `Quick
            test_coll_rounds_alloc_free;
          Alcotest.test_case "send sides derived from receive sides" `Quick
            test_send_sides_derived ] ) ]
