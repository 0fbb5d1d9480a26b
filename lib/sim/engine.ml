(** Deterministic discrete-event simulation of an SPMD program on a
    simulated multiprocessor.

    Each virtual processor owns real distributed blocks (with fringes) of
    every array, executes the flattened IR greedily on its own clock, and
    blocks only on message availability (receives, rendezvous tokens,
    collective reductions). Because every wait is a blocking wait — no
    processor ever branches on the {e absence} of a message — processors
    may safely run ahead of each other: a blocked processor resumes at
    [max(own clock, message arrival)], which yields exactly the same times
    as a global-clock event loop. Ties never matter, so the simulation is
    fully deterministic.

    {b Kernel dispatch} clips a statement's region in ints: its bounds
    are evaluated against the scalar environment and intersected with
    the lhs store's owned block ({!Runtime.Values.clip_dregion}), which
    is already the declared region clipped to this rank's partition box
    — so no per-call box or region pipeline is built. A statement whose
    clip is empty (most calls of a single-row sweep on a multi-row mesh)
    is charged its kernel overhead and allocates nothing; a non-empty
    one allocates only the clipped region. Reductions have no lhs store
    and clip to the rank's partition box, computed once by
    {!of_plans}.

    {b The wire-plan communication runtime} pre-compiles every
    (transfer, processor, partner) side at {!plan} time into a
    {!Runtime.Wireplan.t} — flat blit descriptors against the local
    stores — with all member-array pieces of one partner packed into a
    single staging buffer drawn from a per-side pool. A synthesized
    collective round is an ordinary transfer on this path: each rank's
    {!Ir.Coll.role} becomes at most one receive and one send side whose
    payload is the round's scalars, so the six call semantics, the
    mailboxes, the pools and the deadlock diagnostic are shared, and
    only packing (SR) and unpacking (DN) look at the round's tag.
    Messages travel through dense ring mailboxes indexed by (source,
    transfer, kind), and every hot-path float lives in an all-float
    record or float array, so a steady-state communication activation
    allocates nothing: no payload lists, no closures, no boxed floats
    (regression-tested with [Gc.minor_words]). A staging buffer is
    acquired when the sender packs it — the send-time snapshot of the
    fringe — and returns to the {e sender's} pool only when the
    receiver unpacks it, so senders running ahead simply deepen the
    pool to the in-flight high-water mark.

    The network model charges per-message CPU overheads and per-byte
    copy/pack costs on the involved processors (the "software overhead"
    the paper measures) plus wire latency and bandwidth. Under the
    default {!Machine.Topology.Ideal} every pair is one hop and links
    are never shared — the flat model the seed shipped, bit-identical
    to it. Under [Mesh]/[Torus] each message walks its precomputed
    dimension-order route hop by hop: at every directed link it waits
    for [max (head arrival) (link free)], holds the link for the
    transfer time, and pays one wire latency — so concurrent traffic
    over a shared link serializes (see DESIGN.md). Link grants follow
    drain execution order, which is deterministic. *)

(** One partner's share of a transfer on one processor, wire-compiled:
    the blit plan against this processor's own stores (empty for a
    collective round, whose payload is scalars), and the staging pool
    buffers are drawn from. On send sides the pool is owned; on
    recv sides it aliases the matching sender's pool, so releasing a
    consumed buffer returns it to where the next send will look. *)
type wside = {
  w_partner : int;
  w_bytes : int;
  w_plan : Runtime.Wireplan.t;
  w_route : int array;
      (** directed link ids from this proc to [w_partner] (data on send
          sides, rendezvous tokens on recv sides); [[||]] under the
          ideal topology *)
  mutable w_pool : Runtime.Wireplan.pool;
}

type wplan = { w_recv : wside array; w_send : wside array }

(** Immutable blueprint of one {!wside}: the blit plan (compiled against
    shape-only stores, so it depends only on the layout, never on cell
    data) plus everything needed to mint the per-engine pool.
    [b_link] on receive sides is the index of the matching side in the
    sender's send array, fixed by {!build_wblue}; [-1] on send sides. *)
type wblue = {
  b_partner : int;
  b_cells : int;  (** message size in 8-byte cells *)
  b_plan : Runtime.Wireplan.t;
  b_route : int array;  (** link ids to [b_partner]; [[||]] under ideal *)
  b_link : int;
}

type wbpair = { b_recv : wblue array; b_send : wblue array }

(** Compiled form of one flat op on one rank: store-agnostic
    {!Runtime.Kernel} plans, built eagerly at {!plan} time against
    shape-only stores. *)
type ckern =
  | KNone  (** op carries no kernel (control flow, comm, halt) *)
  | KAssign of Runtime.Kernel.plan
  | KReduce of Runtime.Kernel.rplan

type kprog = {
  k_ops : ckern array;  (** per op index *)
  k_spec : Runtime.Kernel.envspec;
      (** workspace requirements of this program's plans; {!of_plans}
          mints one {!Runtime.Kernel.env} per rank from it *)
}

(** Everything the engine needs that does not depend on run-time
    state: the compiled, immutable, shareable half of an engine. Two
    engines built from one [plans] value share these artifacts
    physically ([==]); each {!of_plans} call mints only the mutable
    half (stores, kernel workspaces, mailboxes, staging pools,
    statistics) and performs {e no kernel compilation} — the kernel
    programs in [p_kern] are store-agnostic and bind stores through a
    per-engine {!Runtime.Kernel.env}. *)
type plans = {
  p_flat : Ir.Flat.t;
  p_machine : Machine.Params.t;
  p_lib : Machine.Library.t;
  p_pr : int;
  p_pc : int;
  p_layout : Runtime.Layout.t;
  p_topology : Machine.Topology.t;
  p_fringe : int array;  (** per array id: fringe width *)
  p_nx : int;  (** number of transfers *)
  p_nslots : int;  (** collective slots *)
  p_dissem : bool array;  (** per slot: needs the allgathered partials *)
  p_wblue : wbpair array array;
      (** [transfer id].(proc), fringe transfers and collective rounds *)
  p_colls : Ir.Coll.desc option array;  (** per transfer: collective tag *)
  p_refchecks : Runtime.Kernel.refs array;
      (** per op index: the rhs's (array, shift) reads, extracted once *)
  p_kern : kprog array;
      (** per rank: the compiled, store-agnostic kernel program, built
          once per stride signature. Ranks whose stores have equal
          per-array strides share one program physically; uneven block
          splits give some ranks other strides, hence other flat
          shifts, and those get their own. *)
}

(* Blocked-state encoding. An option-of-variant would allocate on every
   block; two ints don't. The partner lists the old encoding carried are
   only needed for deadlock diagnostics and are recomputed there. *)
let wk_none = 0

let wk_data = 1 (* wait_arg = transfer id *)

let wk_tokens = 2 (* wait_arg = transfer id *)

let wk_reduce = 3 (* wait_arg = reduction sequence number *)

(** Mutable float cell. All-float records are stored flat, so
    [c.fv <- c.fv +. dt] is an unboxed load/add/store; a mutable float
    field in the mixed [proc] record would box every update. *)
type fcell = { mutable fv : float }

(** Ring mailbox of one (source, transfer, kind) slot: arrival times and
    staging buffers side by side so neither push nor pop allocates.
    Capacity is a power of two (grow-on-full); [mb_head] indexes the
    oldest entry. Token entries carry {!dummy_buf}. *)
type mbox = {
  mutable mb_arr : float array;
  mutable mb_buf : Runtime.Store.buf array;
  mutable mb_head : int;
  mutable mb_n : int;
}

let dummy_buf : Runtime.Store.buf = Runtime.Store.alloc_buf 0

(** Shared sentinel for (source, transfer, kind) slots no plan delivers
    to; keeps the dense mailbox array total without per-slot rings. *)
let unused_mbox : mbox =
  { mb_arr = [||]; mb_buf = [||]; mb_head = 0; mb_n = 0 }

let fresh_mbox () : mbox =
  { mb_arr = [||]; mb_buf = [||]; mb_head = 0; mb_n = 0 }

let mbox_grow (mb : mbox) =
  let cap = Array.length mb.mb_arr in
  let ncap = if cap = 0 then 4 else 2 * cap in
  let arr = Array.make ncap 0.0 in
  let buf = Array.make ncap dummy_buf in
  for i = 0 to mb.mb_n - 1 do
    let j = (mb.mb_head + i) land (cap - 1) in
    arr.(i) <- mb.mb_arr.(j);
    buf.(i) <- mb.mb_buf.(j)
  done;
  mb.mb_arr <- arr;
  mb.mb_buf <- buf;
  mb.mb_head <- 0

(** Slot index for the next push; the caller writes arrival and buffer
    into it directly so no float crosses a function boundary (which
    would box it). *)
let mbox_reserve (mb : mbox) : int =
  if mb.mb_n = Array.length mb.mb_arr then mbox_grow mb;
  let i = (mb.mb_head + mb.mb_n) land (Array.length mb.mb_arr - 1) in
  mb.mb_n <- mb.mb_n + 1;
  i

(** Slot index of the oldest entry, which is removed; the caller reads
    the fields out directly. Only call when [mb_n > 0]. *)
let mbox_pop (mb : mbox) : int =
  let i = mb.mb_head in
  mb.mb_head <- (i + 1) land (Array.length mb.mb_arr - 1);
  mb.mb_n <- mb.mb_n - 1;
  i

type proc = {
  rank : int;
  mutable pc : int;
  time : fcell;
  stores : Runtime.Store.t array;
  box : Zpl.Region.t;
      (** this rank's 2-D partition box, which reductions clip to *)
  env : Runtime.Values.env;
  mutable wait_kind : int;  (** one of the [wk_*] codes *)
  mutable wait_arg : int;
  mutable halted : bool;
  mutable queued : bool;
  mutable instrs : int;  (** instructions executed by this processor *)
  ops_run : int array;
      (** per flat op index: completed executions on this processor.
          Communication calls count on completion only (like [instrs]),
          so an op's count is its activation count; control flow is
          replicated, so the counts are identical across processors —
          the join key static communication predictions are validated
          against (see {!op_counts}). *)
  posted : int array;  (** per transfer: outstanding posted receives *)
  send_done : float array;  (** per transfer: when the last send drained *)
  mutable reduce_seq : int;
  wmail : mbox array;  (** dense (src, xfer, kind) mailboxes *)
  scratch : float array;
      (** unboxed hot-path temporaries: [0] max-arrival accumulator
          (also {!block_until_acc}'s argument), [1] per-byte unpack rate *)
  cacc : float array;  (** per collective slot: running combine value *)
  cvals : float array array;
      (** per collective slot used by dissemination: the allgathered
          partials, indexed by source rank; [[||]] for other slots *)
  kenv : Runtime.Kernel.env;
      (** this rank's binding of its stores and scalar env to the shared
          kernel program's workspace spec *)
  stats : Stats.per_proc;
}

type reduce_slot = {
  mutable arrived : int;
  partials : float array;
  times : float array;
  mutable op : Zpl.Ast.redop;
  mutable lhs : int;
}

type t = {
  shared : plans;  (** the immutable half this engine was built from *)
  flat : Ir.Flat.t;
  machine : Machine.Params.t;
  lib : Machine.Library.t;
  layout : Runtime.Layout.t;
  topology : Machine.Topology.t;
  topo_ideal : bool;  (** [topology = Ideal]: take the flat-cost path *)
  link_free : float array;
      (** per directed link: when it next frees up; [[||]] under ideal.
          Mutated at send time in drain execution order. *)
  procs : proc array;
  nx : int;  (** number of transfers *)
  wplans : wplan array array;
      (** [transfer id].(proc), fringe transfers and collective rounds *)
  colls : Ir.Coll.desc option array;  (** per transfer: its collective tag *)
  runnable : int array;  (** ring; capacity = nprocs ([queued] dedups) *)
  mutable run_head : int;
  mutable run_len : int;
  reduce_slots : (int, reduce_slot) Hashtbl.t;
  stats : Stats.t;
  limit : int;
  kern : kprog array;  (** per rank: shared compiled kernel programs *)
  refchecks : Runtime.Kernel.refs array;
      (** per op index: the rhs's (array, shift) reads, extracted once so
          the per-execution bounds check is allocation-free *)
}

exception Deadlock of string
exception Instruction_limit of int

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(** Compile the wire blueprints of one transfer: per processor, per
    partner, the blit descriptors against shape-only stores. Only the
    receive sides are computed from the layout; the send sides are
    their duals ({!Runtime.Halo.send_sides}), in ascending partner
    order — the order link grants follow. A sender's list is ordered by
    receiver rank, so a receive side's [b_link] is the number of lower
    ranks that receive from the same sender. *)
let build_wblue (layout : Runtime.Layout.t) (prog : Zpl.Prog.t)
    (x : Ir.Transfer.t) ~(shapes : Runtime.Store.t array array)
    ~(topo : Machine.Topology.t) ~pr ~pc : wbpair array =
  let nprocs = Array.length shapes in
  let blues p sides link =
    Array.of_list
      (List.map
         (fun (pp : Runtime.Halo.partner_pieces) ->
           let q = pp.Runtime.Halo.pp_partner in
           { b_partner = q;
             b_cells = pp.Runtime.Halo.pp_cells;
             b_plan =
               Runtime.Wireplan.build ~stores:shapes.(p)
                 pp.Runtime.Halo.pp_rects;
             b_route = Machine.Topology.route topo ~pr ~pc ~src:p ~dst:q;
             b_link = link q })
         sides)
  in
  let recvs =
    Array.init nprocs (fun p ->
        Runtime.Halo.partner_sides layout prog ~arrays:x.Ir.Transfer.arrays
          ~off:x.Ir.Transfer.off ~p ~dir:`Recv)
  in
  let sends = Runtime.Halo.send_sides recvs in
  let nlinked = Array.make nprocs 0 in
  let next q =
    nlinked.(q) <- nlinked.(q) + 1;
    nlinked.(q) - 1
  in
  Array.init nprocs (fun p ->
      { b_recv = blues p recvs.(p) next;
        b_send = blues p sends.(p) (fun _ -> -1) })

let no_blits = Runtime.Wireplan.build ~stores:[||] []

(** The wire blueprints of one synthesized collective round: each
    rank's {!Ir.Coll.role} becomes at most one receive side (from
    [r_from]) and one send side (to [r_to]) of [r_count] scalars. The
    payload is the round's scalars, not store rows, so the blit plan is
    empty; a round sender has exactly one send side, so [b_link] is 0. *)
let coll_wblue (d : Ir.Coll.desc) ~nprocs ~(topo : Machine.Topology.t) ~pr
    ~pc : wbpair array =
  Array.init nprocs (fun p ->
      let r = Ir.Coll.role d ~rank:p in
      let side q link =
        if q < 0 then [||]
        else
          [| { b_partner = q;
               b_cells = r.Ir.Coll.r_count;
               b_plan = no_blits;
               b_route = Machine.Topology.route topo ~pr ~pc ~src:p ~dst:q;
               b_link = link } |]
      in
      { b_recv = side r.Ir.Coll.r_from 0; b_send = side r.Ir.Coll.r_to (-1) })

(** Index of the (source, transfer, kind) slot in a proc's dense mailbox
    array. *)
let wkey (t : t) ~src ~xfer kind_bit = (((src * t.nx) + xfer) * 2) + kind_bit

let kb_data = 0
let kb_token = 1

let plan ?(row_path = true)
    ?(topology = Machine.Topology.Ideal) ~(machine : Machine.Params.t)
    ~(lib : Machine.Library.t) ~pr ~pc (flat : Ir.Flat.t) : plans =
  let prog = flat.Ir.Flat.prog in
  let layout = Runtime.Layout.for_program ~pr ~pc prog in
  let nprocs = Runtime.Layout.nprocs layout in
  (* fringe shifts must stay within adjacent blocks, per dimension *)
  let mr, mc = Runtime.Layout.min_block_extent layout in
  Array.iter
    (fun (x : Ir.Transfer.t) ->
      let d0, d1 = x.off in
      List.iter
        (fun (dim, d, ext) ->
          if abs d > ext then
            Fmt.invalid_arg
              "Engine.plan: %s shift magnitude %d exceeds the smallest %s \
               block extent %d of a %dx%d mesh"
              dim (abs d) dim ext pr pc)
        [ ("row", d0, mr); ("column", d1, mc) ])
    flat.Ir.Flat.transfers;
  let fringe = Zpl.Prog.fringe_widths prog in
  let colls =
    Array.map (fun (x : Ir.Transfer.t) -> x.Ir.Transfer.coll)
      flat.Ir.Flat.transfers
  in
  Array.iter
    (function
      | Some (d : Ir.Coll.desc) ->
          if d.Ir.Coll.cl_nprocs <> nprocs then
            Fmt.invalid_arg
              "Engine.plan: collective round %s was synthesized for %d \
               processors, but the engine mesh is %dx%d (%d) — recompile for \
               this mesh"
              (Ir.Coll.describe d) d.Ir.Coll.cl_nprocs pr pc nprocs
      | None -> ())
    colls;
  let nslots = Ir.Flat.coll_slots flat in
  (* slots whose algorithm gathers raw partials (dissemination) need the
     per-rank value array; derived from ops too, for the zero-round
     one-processor case *)
  let dissem_slot = Array.make nslots false in
  Array.iter
    (function
      | Some (d : Ir.Coll.desc) when d.Ir.Coll.cl_alg = Ir.Coll.Dissem ->
          dissem_slot.(d.Ir.Coll.cl_slot) <- true
      | _ -> ())
    colls;
  Array.iter
    (function
      | Ir.Flat.FCollPart w | Ir.Flat.FCollFin w ->
          if w.Ir.Instr.cw_alg = Ir.Coll.Dissem then
            dissem_slot.(w.Ir.Instr.cw_slot) <- true
      | _ -> ())
    flat.Ir.Flat.ops;
  (* blit plans and row kernels only read shapes and strides, so
     compile both against data-free stores — no cell allocation at
     plan time. The geometry (rank, strides, allocation) is identical
     to the real stores {!of_plans} mints, which is what makes the
     compiled flat shifts valid against them. *)
  let shapes =
    Array.init nprocs (fun rank ->
        Array.map
          (fun (info : Zpl.Prog.array_info) ->
            Runtime.Store.make_shape info
              ~owned:(Runtime.Halo.owned_of layout info rank)
              ~fringe:fringe.(info.a_id))
          prog.Zpl.Prog.arrays)
  in
  let p_wblue =
    Array.map
      (fun (x : Ir.Transfer.t) ->
        match x.Ir.Transfer.coll with
        | Some d -> coll_wblue d ~nprocs ~topo:topology ~pr ~pc
        | None -> build_wblue layout prog x ~shapes ~topo:topology ~pr ~pc)
      flat.Ir.Flat.transfers
  in
  let ops = flat.Ir.Flat.ops in
  (* Store-agnostic kernel compilation, once per stride signature. The
     row compiler reads only each compile-time store's rank and strides
     (to flatten shifts) and the per-point compiler reads no geometry,
     so ranks whose stores have equal per-array strides share one
     physical program. Engines minted from this plan set never compile
     kernels — they bind stores through a per-rank env. *)
  let compiled = Hashtbl.create 8 in
  let compile stores =
    let ws = Runtime.Kernel.make_ws () in
    let rc = { Runtime.Kernel.rstore = Array.get stores; rws = ws } in
    let k_ops =
      Array.map
        (function
          | Ir.Flat.FKernel a ->
              KAssign (Runtime.Kernel.plan_assign ~row:row_path rc a)
          | Ir.Flat.FReduce r ->
              KReduce (Runtime.Kernel.plan_reduce ~row:row_path rc r)
          | Ir.Flat.FCollPart w ->
              KReduce
                (Runtime.Kernel.plan_reduce ~row:row_path rc w.Ir.Instr.cw_red)
          | _ -> KNone)
        ops
    in
    { k_ops; k_spec = Runtime.Kernel.ws_spec ws }
  in
  let p_kern =
    Array.map
      (fun stores ->
        let key = Array.map Runtime.Store.strides stores in
        match Hashtbl.find_opt compiled key with
        | Some k -> k
        | None ->
            let k = compile stores in
            Hashtbl.add compiled key k;
            k)
      shapes
  in
  { p_flat = flat;
    p_machine = machine;
    p_lib = lib;
    p_pr = pr;
    p_pc = pc;
    p_layout = layout;
    p_topology = topology;
    p_fringe = fringe;
    p_nx = Array.length flat.Ir.Flat.transfers;
    p_nslots = nslots;
    p_dissem = dissem_slot;
    p_wblue;
    p_colls = colls;
    p_refchecks =
      Array.map
        (function
          | Ir.Flat.FKernel a -> Runtime.Kernel.refs_of a.Zpl.Prog.rhs
          | Ir.Flat.FReduce r -> Runtime.Kernel.refs_of r.Zpl.Prog.r_rhs
          | Ir.Flat.FCollPart w ->
              Runtime.Kernel.refs_of w.Ir.Instr.cw_red.Zpl.Prog.r_rhs
          | _ -> [||])
        ops;
    p_kern }

let of_plans ?(limit = 1_000_000_000) (sp : plans) : t =
  let flat = sp.p_flat in
  let prog = flat.Ir.Flat.prog in
  let layout = sp.p_layout in
  let topo_ideal = sp.p_topology = Machine.Topology.Ideal in
  let nprocs = Runtime.Layout.nprocs layout in
  let nx = sp.p_nx in
  let nslots = sp.p_nslots in
  let procs =
    Array.init nprocs (fun rank ->
        let stores =
          Array.map
            (fun (info : Zpl.Prog.array_info) ->
              Runtime.Store.make info
                ~owned:(Runtime.Halo.owned_of layout info rank)
                ~fringe:sp.p_fringe.(info.a_id))
            prog.Zpl.Prog.arrays
        in
        let env = Runtime.Values.make_env prog in
        let kenv =
          Runtime.Kernel.make_env ~stores
            ~scalar:(fun id -> Runtime.Values.as_float env.(id))
            sp.p_kern.(rank).k_spec
        in
        { rank; pc = 0; time = { fv = 0.0 }; stores;
          box = Runtime.Layout.box layout rank;
          env;
          wait_kind = wk_none; wait_arg = 0;
          halted = false; queued = false;
          instrs = 0;
          ops_run = Array.make (Array.length flat.Ir.Flat.ops) 0;
          posted = Array.make nx 0;
          send_done = Array.make nx 0.0;
          reduce_seq = 0;
          wmail = Array.make (nprocs * nx * 2) unused_mbox;
          scratch = Array.make 2 0.0;
          cacc = Array.make nslots 0.0;
          cvals =
            Array.init nslots (fun s ->
                if sp.p_dissem.(s) then Array.make nprocs 0.0 else [||]);
          kenv;
          stats = Stats.fresh_proc () })
  in
  (* wire sides: shared blit plans, per-engine staging pools; receive
     pools alias the matching sender's pool (resolved at plan time into
     [b_link]), so a consumed buffer is released to where the next send
     acquires *)
  let wplans =
    Array.map
      (fun (bp : wbpair array) ->
        let mk (b : wblue) =
          { w_partner = b.b_partner;
            w_bytes = 8 * b.b_cells;
            w_plan = b.b_plan;
            w_route = b.b_route;
            w_pool = Runtime.Wireplan.make_pool ~cells:b.b_cells }
        in
        let sides =
          Array.map
            (fun (pair : wbpair) ->
              { w_recv = Array.map mk pair.b_recv;
                w_send = Array.map mk pair.b_send })
            bp
        in
        Array.iteri
          (fun p (pair : wbpair) ->
            Array.iteri
              (fun i (rb : wblue) ->
                sides.(p).w_recv.(i).w_pool <-
                  sides.(rb.b_partner).w_send.(rb.b_link).w_pool)
              pair.b_recv)
          bp;
        sides)
      sp.p_wblue
  in
  let t =
    { shared = sp;
      flat;
      machine = sp.p_machine;
      lib = sp.p_lib;
      layout;
      topology = sp.p_topology;
      topo_ideal;
      link_free =
        (if topo_ideal then [||]
         else
           Array.make
             (Machine.Topology.nlinks ~pr:sp.p_pr ~pc:sp.p_pc)
             0.0);
      procs;
      nx;
      wplans;
      colls = sp.p_colls;
      runnable = Array.make (max 1 nprocs) 0;
      run_head = 0;
      run_len = 0;
      reduce_slots = Hashtbl.create 8;
      stats = Stats.make nprocs;
      limit;
      kern = sp.p_kern;
      refchecks = sp.p_refchecks }
  in
  (* materialize exactly the mailbox slots some plan delivers to: data
     flows sender -> receiver, tokens receiver -> sender *)
  Array.iteri
    (fun xi wp ->
      Array.iteri
        (fun p plan ->
          Array.iter
            (fun (s : wside) ->
              procs.(p).wmail.(wkey t ~src:s.w_partner ~xfer:xi kb_data) <-
                fresh_mbox ())
            plan.w_recv;
          Array.iter
            (fun (s : wside) ->
              procs.(p).wmail.(wkey t ~src:s.w_partner ~xfer:xi kb_token) <-
                fresh_mbox ())
            plan.w_send)
        wp)
    wplans;
  t

let shared_plans (t : t) = t.shared

let kernel_programs (sp : plans) =
  Array.fold_left
    (fun seen k -> if List.memq k seen then seen else k :: seen)
    [] sp.p_kern
  |> List.length

(* ------------------------------------------------------------------ *)
(* Mail and the runnable ring                                          *)
(* ------------------------------------------------------------------ *)

let wake (t : t) (q : proc) =
  if (not q.halted) && not q.queued then begin
    q.queued <- true;
    let cap = Array.length t.runnable in
    t.runnable.((t.run_head + t.run_len) mod cap) <- q.rank;
    t.run_len <- t.run_len + 1
  end

(** Rank of the next runnable processor, or -1. *)
let take_runnable (t : t) : int =
  if t.run_len = 0 then -1
  else begin
    let r = t.runnable.(t.run_head) in
    t.run_head <- (t.run_head + 1) mod Array.length t.runnable;
    t.run_len <- t.run_len - 1;
    r
  end

(** True when every side's next message has arrived. Top-level
    recursion, not a local closure — the empty-mailbox check runs on
    every (possibly re-executed) wait and must not allocate. *)
let rec all_arrived (t : t) (p : proc) ~xfer ~kind_bit (sides : wside array) i =
  i >= Array.length sides
  || (p.wmail.(wkey t ~src:sides.(i).w_partner ~xfer kind_bit).mb_n > 0
     && all_arrived t p ~xfer ~kind_bit sides (i + 1))

(** Partners with no pending message — deadlock diagnostics only. *)
let wire_missing (t : t) (p : proc) ~xfer ~kind_bit (sides : wside array) =
  Array.to_list sides
  |> List.filter_map (fun (s : wside) ->
         if p.wmail.(wkey t ~src:s.w_partner ~xfer kind_bit).mb_n = 0 then
           Some s.w_partner
         else None)

(* ------------------------------------------------------------------ *)
(* Cost helpers                                                        *)
(* ------------------------------------------------------------------ *)

let costs (t : t) = t.lib.Machine.Library.costs

let reduce_stage_cost (t : t) =
  let c = costs t in
  c.Machine.Params.sr_over +. c.Machine.Params.dn_over
  +. t.machine.Machine.Params.wire_latency

let reduce_stages (t : t) =
  let n = Runtime.Layout.nprocs t.layout in
  Ir.Coll.ceil_log2 (max 2 n)

(** Arrival of a message's head after walking [route] (a precomputed
    directed-link sequence), departing at [from_time]: at each hop the
    message claims the link at [max (head so far) (link free)], holds it
    for the transfer time, and pays one wire latency — store-and-forward
    with per-link serialization. Mutates {!t.link_free}; link grants
    follow call order, which the drain makes deterministic.
    Callers add the library's messaging latency (msg or token) on top,
    exactly as the flat model does. Never called under [Ideal] (routes
    are empty there anyway), so the zero-allocation guarantee of the
    default configuration is unaffected by this helper's boxed floats. *)
let route_arrival (t : t) ~(from_time : float) ~(bytes : float)
    (route : int array) : float =
  let occupy = bytes /. t.machine.Machine.Params.bandwidth in
  let hop = t.machine.Machine.Params.wire_latency +. occupy in
  let tm = ref from_time in
  for i = 0 to Array.length route - 1 do
    let l = Array.unsafe_get route i in
    if t.link_free.(l) > !tm then tm := t.link_free.(l);
    t.link_free.(l) <- !tm +. occupy;
    tm := !tm +. hop
  done;
  !tm

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

type step = Continue | Blocked | Halted

(* The compiled, store-agnostic kernel programs live in the shared
   [plans]; these lookups never compile anything. *)

let assign_plan (t : t) (p : proc) idx =
  match t.kern.(p.rank).k_ops.(idx) with
  | KAssign plan -> plan
  | KNone | KReduce _ -> assert false

let reduce_plan (t : t) (p : proc) idx =
  match t.kern.(p.rank).k_ops.(idx) with
  | KReduce plan -> plan
  | KNone | KAssign _ -> assert false

(** Execute one array statement and charge its cost: the kernel
    overhead plus its flops over the clipped region's cells. *)
let exec_kernel (t : t) (p : proc) idx (a : Zpl.Prog.assign_a) =
  let store = p.stores.(a.lhs) in
  let region =
    Runtime.Values.clip_dregion p.env a.region
      ~within:(Runtime.Store.owned store)
  in
  let cells =
    if Zpl.Region.is_empty region then 0
    else begin
      Runtime.Kernel.check_ref_bounds ~region ~stores:p.stores
        t.refchecks.(idx);
      Runtime.Kernel.exec_plan (assign_plan t p idx) ~env:p.kenv ~lhs:store
        ~region
    end
  in
  let dt =
    t.machine.Machine.Params.kernel_overhead
    +. (float_of_int (cells * a.flops) *. t.machine.Machine.Params.sec_per_flop)
  in
  p.time.fv <- p.time.fv +. dt;
  p.stats.Stats.times.Stats.compute <- p.stats.Stats.times.Stats.compute +. dt;
  p.stats.Stats.cells <- p.stats.Stats.cells + cells

(* --- communication calls --- *)

(** Block [p] until the time in [scratch.(0)] — a float parameter would
    be boxed at the call (no flambda), this is not. *)
let block_until_acc (p : proc) =
  let a = p.scratch.(0) in
  if a > p.time.fv then begin
    p.stats.Stats.times.Stats.wait <-
      p.stats.Stats.times.Stats.wait +. (a -. p.time.fv);
    p.time.fv <- a
  end

(* --- communication: pooled staging buffers through ring mailboxes ---

   One path serves fringe transfers and synthesized collective rounds.
   A round is an ordinary transfer whose sides carry a handful of
   scalars instead of store rows ({!coll_wblue}); only packing at SR
   and unpacking at DN look at the transfer's collective tag. Charge
   formulas and their float-accumulation order are the same for both.

   Nothing here allocates in steady state: costs are computed inline
   into all-float records and scratch slots, payloads are packed into
   pooled buffers, and queues are int-indexed rings. Keep helper calls
   float-free — an OCaml float argument or return is boxed at every
   non-inlined call. *)

(** {!Runtime.Reduce.apply}, inlined so a round's combine boxes no
    float. *)
let[@inline] combine (op : Zpl.Ast.redop) a b =
  match op with
  | Zpl.Ast.RSum -> a +. b
  | Zpl.Ast.RProd -> a *. b
  | Zpl.Ast.RMax -> Float.max a b
  | Zpl.Ast.RMin -> Float.min a b

(** Number of 8-byte scalars a round side carries. *)
let coll_count (s : wside) = s.w_bytes / 8

(** Pack a round's payload: the slot accumulator, or for dissemination
    the window of [count] consecutive partials ending at our rank,
    newest first — entry j originated at rank - j. *)
let coll_pack (p : proc) (d : Ir.Coll.desc) (s : wside)
    (buf : Runtime.Store.buf) =
  match (d.Ir.Coll.cl_alg, d.Ir.Coll.cl_phase) with
  | Ir.Coll.Dissem, Ir.Coll.Gather ->
      let vals = p.cvals.(d.Ir.Coll.cl_slot) in
      let np = d.Ir.Coll.cl_nprocs in
      for j = 0 to coll_count s - 1 do
        Bigarray.Array1.unsafe_set buf j
          vals.((((p.rank - j) mod np) + np) mod np)
      done
  | _ -> Bigarray.Array1.unsafe_set buf 0 p.cacc.(d.Ir.Coll.cl_slot)

(** Fold a received round payload into this rank's collective state.
    The combine expressions are fixed per (algorithm, phase) — see
    {!Ir.Coll} for why each choice keeps the result bit-identical across
    ranks. [s] is the receive side, so [s.w_partner] is the sender. *)
let coll_combine (p : proc) (d : Ir.Coll.desc) (s : wside)
    (buf : Runtime.Store.buf) =
  let slot = d.Ir.Coll.cl_slot in
  let op = d.Ir.Coll.cl_op in
  match (d.Ir.Coll.cl_alg, d.Ir.Coll.cl_phase) with
  | Ir.Coll.Ring, Ir.Coll.Reduce ->
      (* the chain prefix arrives; our partial folds on its right *)
      p.cacc.(slot) <-
        combine op (Bigarray.Array1.unsafe_get buf 0) p.cacc.(slot)
  | Ir.Coll.Binomial, Ir.Coll.Reduce | Ir.Coll.Recdouble, Ir.Coll.Fold_in ->
      (* lower rank holds the left operand *)
      p.cacc.(slot) <-
        combine op p.cacc.(slot) (Bigarray.Array1.unsafe_get buf 0)
  | Ir.Coll.Recdouble, Ir.Coll.Reduce ->
      (* both partners evaluate lower-rank-left, so their bits agree *)
      if s.w_partner > p.rank then
        p.cacc.(slot) <-
          combine op p.cacc.(slot) (Bigarray.Array1.unsafe_get buf 0)
      else
        p.cacc.(slot) <-
          combine op (Bigarray.Array1.unsafe_get buf 0) p.cacc.(slot)
  | Ir.Coll.Ring, Ir.Coll.Bcast
  | Ir.Coll.Binomial, Ir.Coll.Bcast
  | Ir.Coll.Recdouble, Ir.Coll.Fold_out ->
      p.cacc.(slot) <- Bigarray.Array1.unsafe_get buf 0
  | Ir.Coll.Dissem, Ir.Coll.Gather ->
      let vals = p.cvals.(slot) in
      let np = d.Ir.Coll.cl_nprocs in
      for j = 0 to coll_count s - 1 do
        vals.((((s.w_partner - j) mod np) + np) mod np) <-
          Bigarray.Array1.unsafe_get buf j
      done
  | _ -> assert false (* no role delivers data in these (alg, phase) *)

let wire_send (t : t) (p : proc) ~xfer (s : wside) =
  let c = costs t in
  let m = t.machine in
  let buf = Runtime.Wireplan.acquire s.w_pool in
  (match t.colls.(xfer) with
  | None -> Runtime.Wireplan.pack s.w_plan p.stores buf
  | Some d -> coll_pack p d s buf);
  let bytes = float_of_int s.w_bytes in
  let cpu = c.Machine.Params.sr_over +. (bytes *. c.Machine.Params.send_byte) in
  p.time.fv <- p.time.fv +. cpu;
  p.stats.Stats.times.Stats.comm_cpu <-
    p.stats.Stats.times.Stats.comm_cpu +. cpu;
  let q = t.procs.(s.w_partner) in
  let mb = q.wmail.(wkey t ~src:p.rank ~xfer kb_data) in
  let j = mbox_reserve mb in
  mb.mb_arr.(j) <-
    (if t.topo_ideal then
       p.time.fv
       +. (m.Machine.Params.wire_latency +. c.Machine.Params.msg_latency
          +. (bytes /. m.Machine.Params.bandwidth))
     else
       route_arrival t ~from_time:p.time.fv ~bytes s.w_route
       +. c.Machine.Params.msg_latency);
  mb.mb_buf.(j) <- buf;
  wake t q;
  let cand = p.time.fv +. (bytes /. m.Machine.Params.bandwidth) in
  if cand > p.send_done.(xfer) then p.send_done.(xfer) <- cand;
  p.stats.Stats.msgs_sent <- p.stats.Stats.msgs_sent + 1;
  p.stats.Stats.bytes_sent <- p.stats.Stats.bytes_sent + s.w_bytes

let exec_comm (t : t) (p : proc) (call : Ir.Instr.call) (xfer : int) : step =
  let wp = t.wplans.(xfer).(p.rank) in
  let c = costs t in
  match Machine.Library.semantics t.lib.Machine.Library.kind call with
  | Machine.Library.No_op -> Continue
  | Machine.Library.Post_recv ->
      let nr = Array.length wp.w_recv in
      if nr > 0 then begin
        let dt = float_of_int nr *. c.Machine.Params.dr_over in
        p.time.fv <- p.time.fv +. dt;
        p.stats.Stats.times.Stats.comm_cpu <-
          p.stats.Stats.times.Stats.comm_cpu +. dt;
        p.posted.(xfer) <- p.posted.(xfer) + 1
      end;
      Continue
  | Machine.Library.Notify_ready ->
      for i = 0 to Array.length wp.w_recv - 1 do
        let s = wp.w_recv.(i) in
        p.time.fv <- p.time.fv +. c.Machine.Params.dr_over;
        p.stats.Stats.times.Stats.comm_cpu <-
          p.stats.Stats.times.Stats.comm_cpu +. c.Machine.Params.dr_over;
        let q = t.procs.(s.w_partner) in
        let mb = q.wmail.(wkey t ~src:p.rank ~xfer kb_token) in
        let j = mbox_reserve mb in
        mb.mb_arr.(j) <-
          (if t.topo_ideal then
             p.time.fv
             +. t.machine.Machine.Params.wire_latency
             +. c.Machine.Params.token_latency
           else
             route_arrival t ~from_time:p.time.fv ~bytes:0.0 s.w_route
             +. c.Machine.Params.token_latency);
        mb.mb_buf.(j) <- dummy_buf;
        wake t q
      done;
      Continue
  | Machine.Library.Send_buffered ->
      let ns = Array.length wp.w_send in
      if ns > 0 then begin
        for i = 0 to ns - 1 do
          wire_send t p ~xfer wp.w_send.(i)
        done;
        p.stats.Stats.xfers_sent <- p.stats.Stats.xfers_sent + 1
      end;
      Continue
  | Machine.Library.Send_rendezvous ->
      let ns = Array.length wp.w_send in
      if ns = 0 then Continue
      else if not (all_arrived t p ~xfer ~kind_bit:kb_token wp.w_send 0) then begin
        p.wait_kind <- wk_tokens;
        p.wait_arg <- xfer;
        Blocked
      end
      else begin
        p.wait_kind <- wk_none;
        p.scratch.(0) <- 0.0;
        for i = 0 to ns - 1 do
          let mb =
            p.wmail.(wkey t ~src:wp.w_send.(i).w_partner ~xfer kb_token)
          in
          let j = mbox_pop mb in
          if mb.mb_arr.(j) > p.scratch.(0) then p.scratch.(0) <- mb.mb_arr.(j)
        done;
        block_until_acc p;
        for i = 0 to ns - 1 do
          wire_send t p ~xfer wp.w_send.(i)
        done;
        p.stats.Stats.xfers_sent <- p.stats.Stats.xfers_sent + 1;
        Continue
      end
  | Machine.Library.Wait_data ->
      let nr = Array.length wp.w_recv in
      if nr = 0 then Continue
      else if not (all_arrived t p ~xfer ~kind_bit:kb_data wp.w_recv 0) then begin
        p.wait_kind <- wk_data;
        p.wait_arg <- xfer;
        Blocked
      end
      else begin
        p.wait_kind <- wk_none;
        (* max arrival first (peek), so waiting is charged once against
           the overall latest message — accumulating per message would
           round differently *)
        p.scratch.(0) <- 0.0;
        for i = 0 to nr - 1 do
          let mb =
            p.wmail.(wkey t ~src:wp.w_recv.(i).w_partner ~xfer kb_data)
          in
          if mb.mb_arr.(mb.mb_head) > p.scratch.(0) then
            p.scratch.(0) <- mb.mb_arr.(mb.mb_head)
        done;
        block_until_acc p;
        if p.posted.(xfer) > 0 then begin
          p.posted.(xfer) <- p.posted.(xfer) - 1;
          p.scratch.(1) <- 0.0
        end
        else if Machine.Library.deposits_directly t.lib.Machine.Library.kind
        then p.scratch.(1) <- 0.0
        else p.scratch.(1) <- c.Machine.Params.recv_byte;
        for i = 0 to nr - 1 do
          let s = wp.w_recv.(i) in
          let mb = p.wmail.(wkey t ~src:s.w_partner ~xfer kb_data) in
          let j = mbox_pop mb in
          let buf = mb.mb_buf.(j) in
          mb.mb_buf.(j) <- dummy_buf;
          let dt =
            c.Machine.Params.dn_over
            +. (float_of_int s.w_bytes *. p.scratch.(1))
          in
          p.time.fv <- p.time.fv +. dt;
          p.stats.Stats.times.Stats.comm_cpu <-
            p.stats.Stats.times.Stats.comm_cpu +. dt;
          (match t.colls.(xfer) with
          | None -> Runtime.Wireplan.unpack s.w_plan p.stores buf
          | Some d -> coll_combine p d s buf);
          Runtime.Wireplan.release s.w_pool buf;
          p.stats.Stats.msgs_recv <- p.stats.Stats.msgs_recv + 1;
          p.stats.Stats.bytes_recv <- p.stats.Stats.bytes_recv + s.w_bytes
        done;
        p.stats.Stats.xfers_recv <- p.stats.Stats.xfers_recv + 1;
        Continue
      end
  | Machine.Library.Wait_send_done ->
      if Array.length wp.w_send > 0 then begin
        p.scratch.(0) <- p.send_done.(xfer);
        block_until_acc p;
        p.time.fv <- p.time.fv +. c.Machine.Params.sv_over;
        p.stats.Stats.times.Stats.comm_cpu <-
          p.stats.Stats.times.Stats.comm_cpu +. c.Machine.Params.sv_over
      end;
      Continue

(* --- collective reduction --- *)

let finish_reduce (t : t) seq (slot : reduce_slot) =
  let n = Array.length t.procs in
  let value = ref (Runtime.Reduce.identity slot.op) in
  for r = 0 to n - 1 do
    value := Runtime.Reduce.apply slot.op !value slot.partials.(r)
  done;
  let arrive = Array.fold_left Float.max 0.0 slot.times in
  let finish =
    arrive +. (float_of_int (reduce_stages t) *. reduce_stage_cost t)
  in
  Array.iter
    (fun (q : proc) ->
      q.stats.Stats.times.Stats.wait <-
        q.stats.Stats.times.Stats.wait +. Float.max 0.0 (finish -. q.time.fv);
      q.time.fv <- Float.max q.time.fv finish;
      q.env.(slot.lhs) <- Runtime.Values.VFloat !value;
      q.stats.Stats.reduces <- q.stats.Stats.reduces + 1;
      q.wait_kind <- wk_none;
      q.pc <- q.pc + 1;
      wake t q)
    t.procs;
  Hashtbl.remove t.reduce_slots seq

(** Compute this rank's local partial of a reduction over its partition
    box and charge its cost: the kernel overhead plus its flops over the
    clipped cells. Returns {!Runtime.Kernel.exec_rplan}'s (partial,
    cells) pair as is, so no float crosses this call unboxed. Shared by
    the opaque reduction and a synthesized collective's first half. *)
let local_partial (t : t) (p : proc) idx (r : Zpl.Prog.reduce_s) =
  let region = Runtime.Values.clip_dregion p.env r.r_region ~within:p.box in
  Runtime.Kernel.check_ref_bounds ~region ~stores:p.stores t.refchecks.(idx);
  let ((_, cells) as res) =
    Runtime.Kernel.exec_rplan (reduce_plan t p idx) ~env:p.kenv ~region r.r_op
  in
  let dt =
    t.machine.Machine.Params.kernel_overhead
    +. (float_of_int (cells * r.r_flops) *. t.machine.Machine.Params.sec_per_flop)
  in
  p.time.fv <- p.time.fv +. dt;
  p.stats.Stats.times.Stats.compute <- p.stats.Stats.times.Stats.compute +. dt;
  p.stats.Stats.cells <- p.stats.Stats.cells + cells;
  res

let exec_reduce (t : t) (p : proc) idx (r : Zpl.Prog.reduce_s) : step =
  let partial, _ = local_partial t p idx r in
  let seq = p.reduce_seq in
  p.reduce_seq <- seq + 1;
  let slot =
    match Hashtbl.find_opt t.reduce_slots seq with
    | Some s -> s
    | None ->
        let s =
          { arrived = 0;
            partials = Array.make (Array.length t.procs) 0.0;
            times = Array.make (Array.length t.procs) 0.0;
            op = r.r_op;
            lhs = r.r_lhs }
        in
        Hashtbl.replace t.reduce_slots seq s;
        s
  in
  slot.partials.(p.rank) <- partial;
  slot.times.(p.rank) <- p.time.fv;
  slot.arrived <- slot.arrived + 1;
  p.wait_kind <- wk_reduce;
  p.wait_arg <- seq;
  if slot.arrived = Array.length t.procs then finish_reduce t seq slot;
  Blocked

(* --- synthesized collective bookends --- *)

(** Compute this rank's local partial ({!local_partial}, as the opaque
    reduction does) and seed the slot state the rounds will combine
    into. *)
let exec_coll_part (t : t) (p : proc) idx (w : Ir.Instr.coll_work) =
  let r = w.Ir.Instr.cw_red in
  let partial, _ = local_partial t p idx r in
  let slot = w.Ir.Instr.cw_slot in
  p.cacc.(slot) <- partial;
  match w.Ir.Instr.cw_alg with
  | Ir.Coll.Ring ->
      (* rank 0 heads the chain: seed with the identity so the chain
         reproduces the opaque fold bit for bit *)
      if p.rank = 0 then
        p.cacc.(slot) <-
          combine r.Zpl.Prog.r_op
            (Runtime.Reduce.identity r.Zpl.Prog.r_op)
            partial
  | Ir.Coll.Dissem -> p.cvals.(slot).(p.rank) <- partial
  | Ir.Coll.Binomial | Ir.Coll.Recdouble -> ()

(** Publish the finished value into the replicated scalar. For
    dissemination every rank folds the allgathered partials locally in
    rank order seeded with the identity — the opaque fold order — so all
    ranks (and the opaque path) agree bitwise; the other algorithms
    already hold the finished value in the slot accumulator. *)
let exec_coll_fin (t : t) (p : proc) (w : Ir.Instr.coll_work) =
  let r = w.Ir.Instr.cw_red in
  let slot = w.Ir.Instr.cw_slot in
  let value =
    match w.Ir.Instr.cw_alg with
    | Ir.Coll.Dissem ->
        let vals = p.cvals.(slot) in
        let v = ref (Runtime.Reduce.identity r.Zpl.Prog.r_op) in
        for src = 0 to Array.length vals - 1 do
          v := combine r.Zpl.Prog.r_op !v vals.(src)
        done;
        !v
    | Ir.Coll.Ring | Ir.Coll.Binomial | Ir.Coll.Recdouble -> p.cacc.(slot)
  in
  p.env.(r.Zpl.Prog.r_lhs) <- Runtime.Values.VFloat value;
  p.time.fv <- p.time.fv +. t.machine.Machine.Params.scalar_op_cost;
  p.stats.Stats.reduces <- p.stats.Stats.reduces + 1

(* --- main dispatch --- *)

(** Count one executed instruction against [p]'s budget. The limit is
    per processor, so the check involves no shared state. *)
let count_instr (t : t) (p : proc) =
  p.instrs <- p.instrs + 1;
  if p.instrs > t.limit then raise (Instruction_limit t.limit)

(** Record one completed execution of op [idx] — same completion-only
    discipline as {!count_instr}, but per op index. *)
let count_op (p : proc) idx = p.ops_run.(idx) <- p.ops_run.(idx) + 1

let exec_one (t : t) (p : proc) : step =
  match t.flat.Ir.Flat.ops.(p.pc) with
  | Ir.Flat.FHalt ->
      count_instr t p;
      count_op p p.pc;
      p.halted <- true;
      p.stats.Stats.times.Stats.finish <- p.time.fv;
      Halted
  | Ir.Flat.FKernel a ->
      count_instr t p;
      count_op p p.pc;
      exec_kernel t p p.pc a;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FScalar { lhs; rhs } ->
      count_instr t p;
      count_op p p.pc;
      p.env.(lhs) <- Runtime.Values.eval_env p.env rhs;
      p.time.fv <- p.time.fv +. t.machine.Machine.Params.scalar_op_cost;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FJump target ->
      count_instr t p;
      count_op p p.pc;
      p.pc <- target;
      Continue
  | Ir.Flat.FJumpIfNot (cond, target) ->
      count_instr t p;
      count_op p p.pc;
      p.time.fv <- p.time.fv +. t.machine.Machine.Params.scalar_op_cost;
      if Runtime.Values.eval_bool p.env cond then p.pc <- p.pc + 1
      else p.pc <- target;
      Continue
  | Ir.Flat.FReduce r ->
      count_instr t p;
      count_op p p.pc;
      exec_reduce t p p.pc r
  | Ir.Flat.FCollPart w ->
      count_instr t p;
      count_op p p.pc;
      exec_coll_part t p p.pc w;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FCollFin w ->
      count_instr t p;
      count_op p p.pc;
      exec_coll_fin t p w;
      p.pc <- p.pc + 1;
      Continue
  | Ir.Flat.FComm (call, xfer) -> (
      match exec_comm t p call xfer with
      | Continue ->
          (* counted only on completion: a blocked call re-executes when
             woken, and the number of attempts depends on how far its
             partners ran ahead — counting attempts would break
             [op_counts] as a per-op activation count, the join key
             Commvol's static predictions are validated against *)
          count_instr t p;
          count_op p p.pc;
          p.pc <- p.pc + 1;
          Continue
      | other -> other)

(* The drain loops are top-level recursions, not local [let rec]
   closures: a closure would be allocated on every processor wake, which
   the zero-allocation comm path forbids. *)
let rec exec_until_blocked (t : t) (p : proc) =
  match exec_one t p with
  | Continue -> exec_until_blocked t p
  | Blocked | Halted -> ()

let rec drain (t : t) =
  let r = take_runnable t in
  if r >= 0 then begin
    let p = t.procs.(r) in
    p.queued <- false;
    if not p.halted then exec_until_blocked t p;
    drain t
  end

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  time : float;  (** makespan over processors *)
  stats : Stats.t;
  engine : t;
}

let run (t : t) : result =
  Array.iter (fun (p : proc) -> wake t p) t.procs;
  (* wake marks queued; initial procs are not waiting *)
  drain t;
  (match
     Array.find_opt (fun (p : proc) -> not p.halted) t.procs
   with
  | Some p ->
      let why =
        if p.wait_kind = wk_data || p.wait_kind = wk_tokens then begin
          (* {!Ir.Transfer.describe} names a collective round's
             algorithm, phase and round *)
          let x = p.wait_arg in
          let wp = t.wplans.(x).(p.rank) in
          let what, kind_bit, sides =
            if p.wait_kind = wk_data then ("data", kb_data, wp.w_recv)
            else ("token", kb_token, wp.w_send)
          in
          let call =
            match t.flat.Ir.Flat.ops.(p.pc) with
            | Ir.Flat.FComm (c, _) -> Ir.Instr.call_name c
            | _ -> assert false (* only comm calls block on mail *)
          in
          Printf.sprintf "proc %d blocked at op %d, %s of transfer %s: no %s \
                          from proc %s"
            p.rank p.pc call
            (Ir.Transfer.describe t.flat.Ir.Flat.prog
               t.flat.Ir.Flat.transfers.(x))
            what
            (wire_missing t p ~xfer:x ~kind_bit sides
            |> List.map string_of_int |> String.concat ",")
        end
        else if p.wait_kind = wk_reduce then
          Printf.sprintf "proc %d waiting in reduction %d" p.rank p.wait_arg
        else Printf.sprintf "proc %d stopped at pc %d" p.rank p.pc
      in
      raise (Deadlock why)
  | None -> ());
  t.stats.Stats.instructions <-
    Array.fold_left (fun n (p : proc) -> n + p.instrs) 0 t.procs;
  Array.iteri (fun i (p : proc) -> t.stats.Stats.procs.(i) <- p.stats) t.procs;
  { time = Stats.makespan t.stats; stats = t.stats; engine = t }

(** Gather the distributed blocks of array [aid] into one global store
    (fringe cells ignored) — used to verify against the sequential
    oracle. Owned blocks are disjoint, so per-processor rectangle blits
    write each cell exactly once. *)
let gather (t : t) (aid : int) : Runtime.Store.t =
  let info = t.flat.Ir.Flat.prog.Zpl.Prog.arrays.(aid) in
  let global = Runtime.Store.make info ~owned:info.a_region ~fringe:0 in
  Array.iter
    (fun (p : proc) ->
      let s = p.stores.(aid) in
      let owned = Runtime.Store.owned s in
      if not (Zpl.Region.is_empty owned) then
        Runtime.Store.copy_rect ~src:s ~dst:global owned)
    t.procs;
  global

(** Scalars after the run (replicated; proc 0's copy). *)
let final_env (t : t) : Runtime.Values.env = t.procs.(0).env

(* accessors for tests and tools that inspect a finished engine *)

let procs (t : t) = t.procs
let proc_env (p : proc) = p.env
let proc_stores (p : proc) = p.stores
let topology (t : t) = t.topology

(** Per-link busy-until times after a run — all zeros (empty) under
    [Ideal]. Exposed for tests that assert occupancy stays sane (no
    negative/NaN entries, phantom boundary links never claimed). *)
let link_occupancy (t : t) : float array = Array.copy t.link_free

(** Staging-pool accounting over all send sides, collective rounds
    included (receive sides alias the sender's pool): (buffers freshly
    allocated, acquires served from the freelists). The split depends on how far senders run ahead — a
    sender running ahead deepens its pools — so it is a runtime
    diagnostic, not part of {!Stats.t}. *)
let pool_counts (t : t) : int * int =
  let fresh = ref 0 and reused = ref 0 in
  Array.iter
    (Array.iter (fun (wp : wplan) ->
         Array.iter
           (fun (s : wside) ->
             let f, r = Runtime.Wireplan.pool_stats s.w_pool in
             fresh := !fresh + f;
             reused := !reused + r)
           wp.w_send))
    t.wplans;
  (!fresh, !reused)

(** Completed executions per flat op index after a run (processor 0's
    counters; control flow is replicated, so every processor's counts
    are identical). [Ir.Flat.src_of_op] joins them back to structured
    positions — the measured activation counts static communication
    predictions are validated against. *)
let op_counts (t : t) : int array = Array.copy t.procs.(0).ops_run
