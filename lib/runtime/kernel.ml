(** Compilation of per-cell array expressions to closures, and execution of
    whole-array statements and reductions over a region. Shared between the
    parallel simulator (reading local blocks with fringes) and the
    sequential oracle (reading global storage).

    Two execution paths coexist. The per-point path interprets the
    expression tree cell by cell and doubles as the differential-testing
    oracle. The row path compiles the expression once into loops over
    contiguous Bigarray rows; every row kernel performs the exact same
    floating-point operation sequence per cell as the per-point path, so
    the two are bit-identical (see test/test_props.ml).

    Compiled plans are {e store-agnostic}: they capture only layout
    (array ids, flat shifts computed from strides), operator structure
    and coefficient structure — never a store's cells, a scalar value,
    or any mutable scratch. Everything mutable lives in a runtime
    {!env}, allocated once per executor from the {!envspec} the compile
    pass records in its workspace ({!ws}), and passed to every [exec_*]
    entry. One compiled plan may therefore be shared by many concurrent
    executors (engines minted from one cached plan set), each binding
    its own stores and workspace. *)

module A1 = Bigarray.Array1

type buf = Store.buf

type ctx = {
  read : int -> int array -> float;  (** array id, global coordinates *)
  scalar : int -> float;  (** numeric scalar value *)
}

(** [compile ctx e] builds a closure evaluating [e] at a global point. The
    point buffer passed in is never retained. *)
let rec compile (ctx : ctx) (e : Zpl.Prog.aexpr) : int array -> float =
  match e with
  | Zpl.Prog.AConst c -> fun _ -> c
  | Zpl.Prog.AScalar id -> fun _ -> ctx.scalar id
  | Zpl.Prog.AIndex d -> fun p -> float_of_int p.(d)
  | Zpl.Prog.ARef (aid, off) ->
      if Array.for_all (fun d -> d = 0) off then fun p -> ctx.read aid p
      else
        let n = Array.length off in
        let scratch = Array.make n 0 in
        fun p ->
          for k = 0 to n - 1 do
            scratch.(k) <- p.(k) + off.(k)
          done;
          ctx.read aid scratch
  | Zpl.Prog.ABin (op, a, b) -> (
      let fa = compile ctx a and fb = compile ctx b in
      match op with
      | Zpl.Ast.Add -> fun p -> fa p +. fb p
      | Zpl.Ast.Sub -> fun p -> fa p -. fb p
      | Zpl.Ast.Mul -> fun p -> fa p *. fb p
      | Zpl.Ast.Div -> fun p -> fa p /. fb p
      | Zpl.Ast.Pow -> fun p -> Float.pow (fa p) (fb p)
      | Zpl.Ast.Lt | Zpl.Ast.Le | Zpl.Ast.Gt | Zpl.Ast.Ge | Zpl.Ast.Eq
      | Zpl.Ast.Ne | Zpl.Ast.And | Zpl.Ast.Or ->
          invalid_arg "comparison in array expression")
  | Zpl.Prog.AUn (Zpl.Ast.Neg, a) ->
      let fa = compile ctx a in
      fun p -> -.fa p
  | Zpl.Prog.AUn (Zpl.Ast.Not, _) -> invalid_arg "'not' in array expression"
  | Zpl.Prog.ACall (f, [ a ]) ->
      let fa = compile ctx a in
      fun p -> Values.apply1 f (fa p)
  | Zpl.Prog.ACall (f, [ a; b ]) ->
      let fa = compile ctx a and fb = compile ctx b in
      fun p -> Values.apply2 f (fa p) (fb p)
  | Zpl.Prog.ACall (f, _) -> invalid_arg ("bad arity for intrinsic " ^ f)

(** Whether the rhs reads the lhs through a nonzero shift — the case where
    in-place evaluation would observe freshly written cells, so the
    assignment must evaluate into a buffer first (array semantics). *)
let needs_buffer (a : Zpl.Prog.assign_a) =
  let rec go = function
    | Zpl.Prog.AConst _ | Zpl.Prog.AScalar _ | Zpl.Prog.AIndex _ -> false
    | Zpl.Prog.ARef (aid, off) ->
        aid = a.lhs && Array.exists (fun d -> d <> 0) off
    | Zpl.Prog.ABin (_, x, y) -> go x || go y
    | Zpl.Prog.AUn (_, x) -> go x
    | Zpl.Prog.ACall (_, args) -> List.exists go args
  in
  go a.rhs

(** Run a pre-compiled per-cell function over [region], writing through
    [write]. [buffered] forces evaluation into a temporary first (array
    semantics when the lhs is read through a shift). Returns the number of
    cells updated. *)
let run_region ~(write : int array -> float -> unit) ~(region : Zpl.Region.t)
    ~buffered (f : int array -> float) : int =
  if Zpl.Region.is_empty region then 0
  else begin
    if buffered then begin
      let buf = Array.make (Zpl.Region.size region) 0.0 in
      let k = ref 0 in
      Zpl.Region.iter region (fun p ->
          buf.(!k) <- f p;
          incr k);
      k := 0;
      Zpl.Region.iter region (fun p ->
          write p buf.(!k);
          incr k)
    end
    else Zpl.Region.iter region (fun p -> write p (f p));
    Zpl.Region.size region
  end

(** Execute an array assignment over [region] (already intersected with
    ownership by the caller). [write] stores into the lhs array. Returns
    the number of cells updated. *)
let exec_assign (ctx : ctx) ~(write : int array -> float -> unit)
    ~(region : Zpl.Region.t) (a : Zpl.Prog.assign_a) : int =
  if Zpl.Region.is_empty region then 0
  else
    run_region ~write ~region ~buffered:(needs_buffer a) (compile ctx a.rhs)

(** Fold a pre-compiled per-cell function over [region] with reduction
    operator [op]. Returns the partial (identity on empty regions) and the
    cell count. *)
let run_reduce ~(region : Zpl.Region.t) (op : Zpl.Ast.redop)
    (f : int array -> float) : float * int =
  if Zpl.Region.is_empty region then (Reduce.identity op, 0)
  else begin
    let acc = ref (Reduce.identity op) in
    Zpl.Region.iter region (fun p -> acc := Reduce.apply op !acc (f p));
    (!acc, Zpl.Region.size region)
  end

(** Evaluate the local partial reduction of [r] over [region]. Returns the
    partial value (identity when the region is empty) and the cell count. *)
let exec_reduce (ctx : ctx) ~(region : Zpl.Region.t) (r : Zpl.Prog.reduce_s) :
    float * int =
  run_reduce ~region r.r_op (compile ctx r.r_rhs)

(* ------------------------------------------------------------------ *)
(* Runtime environment: the store-binding contract                     *)
(*                                                                     *)
(* A compiled plan may capture array ids, flat shifts, operator        *)
(* dispatch and coefficient structure. It must NOT capture stores,     *)
(* scalar values, or any mutable scratch: those arrive at execution    *)
(* time inside an [env]. The compile pass allocates workspace slots    *)
(* (row buffers, chain workspaces, integer point scratch) from a [ws]  *)
(* builder; [ws_spec] freezes the slot counts into an [envspec], and   *)
(* [make_env] mints one mutable workspace per executor from it. Two    *)
(* engines sharing one compiled plan never share workspace.            *)
(* ------------------------------------------------------------------ *)

let empty_buf : buf = A1.create Bigarray.float64 Bigarray.c_layout 0

(** Workspace slot allocator threaded through one compile pass. *)
type ws = {
  mutable wbufs : int;  (** row-buffer slots handed out *)
  mutable wchains : int list;  (** chain slot lengths, reversed *)
  mutable wnchains : int;
  mutable wipt : int;  (** 1 + max rank needing integer point scratch *)
}

let make_ws () : ws = { wbufs = 0; wchains = []; wnchains = 0; wipt = 0 }

let ws_buf (ws : ws) : int =
  let id = ws.wbufs in
  ws.wbufs <- id + 1;
  id

let ws_chain (ws : ws) (n : int) : int =
  let id = ws.wnchains in
  ws.wnchains <- id + 1;
  ws.wchains <- n :: ws.wchains;
  id

let ws_ipt (ws : ws) (rank : int) : unit =
  if rank + 1 > ws.wipt then ws.wipt <- rank + 1

(** Frozen workspace requirements of a compiled plan set. *)
type envspec = { es_bufs : int; es_chains : int array; es_ipt : int }

let ws_spec (ws : ws) : envspec =
  { es_bufs = ws.wbufs;
    es_chains = Array.of_list (List.rev ws.wchains);
    es_ipt = ws.wipt }

let envspec_buffers (s : envspec) = s.es_bufs

(** Per-chain-kernel workspace: resolved term buffers, per-row base
    indices and coefficient values, refilled on every row. *)
type chain_ws = {
  cw_datas : buf array;
  cw_bases : int array;
  cw_cvals : float array;
}

(** The runtime environment every [exec_*] entry takes: the executor's
    stores (indexed by array id), its scalar reader, and the mutable
    workspace the plan's slot ids index into. *)
type env = {
  e_stores : Store.t array;
  e_scalar : int -> float;
  e_bufs : buf ref array;  (** row buffers, grown on demand *)
  e_chains : chain_ws array;
  e_ipt : int array array;  (** integer point scratch, indexed by rank *)
  e_row : int array array;
      (** row-cursor start points, indexed by rank: the row loops walk
          regions with {!Zpl.Region.next_row} instead of building an
          {!Zpl.Region.iter_rows} closure per execution *)
}

let make_env ~(stores : Store.t array) ~(scalar : int -> float)
    (spec : envspec) : env =
  { e_stores = stores;
    e_scalar = scalar;
    e_bufs = Array.init spec.es_bufs (fun _ -> ref empty_buf);
    e_chains =
      Array.map
        (fun n ->
          { cw_datas = Array.make n empty_buf;
            cw_bases = Array.make n 0;
            cw_cvals = Array.make n 1.0 })
        spec.es_chains;
    e_ipt = Array.init spec.es_ipt (fun r -> Array.make r 0);
    e_row = Array.init 4 (fun r -> Array.make r 0) }

(** Store-agnostic per-point compiler: the same value, operation by
    operation, as {!compile} over a ctx reading the env's stores — but
    stores, scalars and shift scratch are resolved through the [env]
    argument at call time, so the closure can be cached and shared. *)
let rec compile_env (ws : ws) (e : Zpl.Prog.aexpr) :
    env -> int array -> float =
  match e with
  | Zpl.Prog.AConst c -> fun _ _ -> c
  | Zpl.Prog.AScalar id -> fun env _ -> env.e_scalar id
  | Zpl.Prog.AIndex d -> fun _ p -> float_of_int p.(d)
  | Zpl.Prog.ARef (aid, off) ->
      if Array.for_all (fun d -> d = 0) off then fun env p ->
        Store.get_unsafe env.e_stores.(aid) p
      else begin
        let n = Array.length off in
        ws_ipt ws n;
        fun env p ->
          let scratch = env.e_ipt.(n) in
          for k = 0 to n - 1 do
            scratch.(k) <- p.(k) + off.(k)
          done;
          Store.get_unsafe env.e_stores.(aid) scratch
      end
  | Zpl.Prog.ABin (op, a, b) -> (
      let fa = compile_env ws a and fb = compile_env ws b in
      match op with
      | Zpl.Ast.Add -> fun env p -> fa env p +. fb env p
      | Zpl.Ast.Sub -> fun env p -> fa env p -. fb env p
      | Zpl.Ast.Mul -> fun env p -> fa env p *. fb env p
      | Zpl.Ast.Div -> fun env p -> fa env p /. fb env p
      | Zpl.Ast.Pow -> fun env p -> Float.pow (fa env p) (fb env p)
      | Zpl.Ast.Lt | Zpl.Ast.Le | Zpl.Ast.Gt | Zpl.Ast.Ge | Zpl.Ast.Eq
      | Zpl.Ast.Ne | Zpl.Ast.And | Zpl.Ast.Or ->
          invalid_arg "comparison in array expression")
  | Zpl.Prog.AUn (Zpl.Ast.Neg, a) ->
      let fa = compile_env ws a in
      fun env p -> -.fa env p
  | Zpl.Prog.AUn (Zpl.Ast.Not, _) -> invalid_arg "'not' in array expression"
  | Zpl.Prog.ACall (f, [ a ]) ->
      let fa = compile_env ws a in
      fun env p -> Values.apply1 f (fa env p)
  | Zpl.Prog.ACall (f, [ a; b ]) ->
      let fa = compile_env ws a and fb = compile_env ws b in
      fun env p -> Values.apply2 f (fa env p) (fb env p)
  | Zpl.Prog.ACall (f, _) -> invalid_arg ("bad arity for intrinsic " ^ f)

(* ------------------------------------------------------------------ *)
(* Row-compiled fast path                                              *)
(*                                                                     *)
(* Array statements spend their lives in the innermost (stride-1)      *)
(* dimension. The row compiler turns an array expression into a        *)
(* [rowsrc] that produces one whole row at a time: each full-rank      *)
(* stencil operand becomes an (array id, flat shift) pair whose        *)
(* per-row base index is computed once, and the per-cell work is a     *)
(* tight [for] loop over [base + k] on the store's flat float64        *)
(* Bigarray — no per-point [int array] allocation, no closure dispatch *)
(* per cell, no boxing. Binary nodes over plain refs compile to        *)
(* single-pass loops, and +/- chains of refs (the 4-point stencil      *)
(* averages of TOMCATV, with an optional scalar factor) collapse to    *)
(* one loop with n reads and one write per cell. Expressions the row   *)
(* compiler cannot handle fall back to the per-point path above.       *)
(*                                                                     *)
(* Shifts are flattened against the compile-time stores' strides; the  *)
(* runtime env must bind stores with the same geometry (the engine     *)
(* compiles against [Store.make_shape] blueprints of the exact layout  *)
(* it mints real stores from).                                         *)
(* ------------------------------------------------------------------ *)

type rowctx = {
  rstore : int -> Store.t;
      (** array id -> storage of the right geometry (shape-only is fine:
          only rank, strides and extents are consulted at compile time) *)
  rws : ws;  (** workspace slot allocator for this plan set *)
}

(** How to produce the values of an expression along one row of the
    iteration region. The row is identified by its start point [p0]
    (innermost coordinate at its [lo]) and its length. *)
type rowsrc =
  | RConst of float  (** the same value in every cell *)
  | RRow of (env -> int array -> float)
      (** row-invariant: one eval per row *)
  | RRef of int * int
      (** full-rank shifted ref: array id and flat shift; flat cell
          [index p0 + shift + k] of the env's store *)
  | RIndexLast  (** the innermost coordinate itself: [p0.(last) + k] *)
  | RFill of (env -> int array -> int -> buf -> int -> unit)
      (** general: fill [dst.(d0 .. d0+len-1)] with the row's values *)
  | RTemp of int
      (** a CSE row temporary of a fused group, by env buffer slot: the
          current row's values at [0 .. len-1], filled before any member
          statement runs (see {!plan_fused} / {!exec_fused}) *)

exception Row_fallback

(** Flat base index of the row starting at [p0] read through flat shift
    [dshift]; checks the whole row stays inside the store's allocation
    (the dynamic counterpart of {!check_refs} for the row path). *)
let ref_base (s : Store.t) (dshift : int) (p0 : int array) (len : int) : int =
  let base = Store.index s p0 + dshift in
  if base < 0 || base + len > Store.length s then
    Fmt.invalid_arg "row kernel: shifted read of %s runs outside %s"
      (Store.info s).a_name
      (Zpl.Region.to_string (Store.alloc s));
  base

let ensure : buf ref -> int -> buf = Store.grow_buf

(* Hand-rolled row copy/fill: [A1.sub] allocates a custom block per call
   and [A1.fill]/[A1.blit] dispatch into C — at our row lengths that
   costs more than the copy itself, so the hot paths never use them. *)

let buf_fill (dst : buf) d0 len v =
  for k = d0 to d0 + len - 1 do
    A1.unsafe_set dst k v
  done

let buf_blit (src : buf) s0 (dst : buf) d0 len =
  for k = 0 to len - 1 do
    A1.unsafe_set dst (d0 + k) (A1.unsafe_get src (s0 + k))
  done

(** Materialize a row source into [dst.(d0 .. d0+len-1)]. *)
let fill (src : rowsrc) (env : env) (p0 : int array) (len : int) (dst : buf)
    (d0 : int) : unit =
  match src with
  | RConst v -> buf_fill dst d0 len v
  | RRow f -> buf_fill dst d0 len (f env p0)
  | RRef (aid, dshift) ->
      let s = env.e_stores.(aid) in
      let base = ref_base s dshift p0 len in
      buf_blit (Store.read_only s) base dst d0 len
  | RIndexLast ->
      let x0 = p0.(Array.length p0 - 1) in
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k) (float_of_int (x0 + k))
      done
  | RFill g -> g env p0 len dst d0
  | RTemp slot -> buf_blit !(env.e_bufs.(slot)) 0 dst d0 len

(** A row reduced to either a per-row constant or a contiguous slice. *)
type slice = SConst of float | SVec of buf * int

let slice_of (src : rowsrc) (env : env) (scratch : buf ref) p0 len : slice =
  match src with
  | RConst v -> SConst v
  | RRow f -> SConst (f env p0)
  | RRef (aid, dshift) ->
      let s = env.e_stores.(aid) in
      SVec (Store.read_only s, ref_base s dshift p0 len)
  | RTemp slot -> SVec (!(env.e_bufs.(slot)), 0)
  | RIndexLast | RFill _ ->
      let b = ensure scratch len in
      fill src env p0 len b 0;
      SVec (b, 0)

(* Monomorphic combine loops: one [match] per row, zero dispatch per cell.
   Index ranges are validated by the callers ([ref_base] for slices, the
   region-subset check in {!run_region_rows} for destinations). *)

(** [dst.(k) <- dst.(k) op v] over the row. *)
let map_vs (op : Zpl.Ast.binop) (dst : buf) d0 len v =
  match op with
  | Zpl.Ast.Add ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (A1.unsafe_get dst k +. v)
      done
  | Zpl.Ast.Sub ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (A1.unsafe_get dst k -. v)
      done
  | Zpl.Ast.Mul ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (A1.unsafe_get dst k *. v)
      done
  | Zpl.Ast.Div ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (A1.unsafe_get dst k /. v)
      done
  | Zpl.Ast.Pow ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (Float.pow (A1.unsafe_get dst k) v)
      done
  | _ -> raise Row_fallback

(** [dst.(k) <- v op dst.(k)] over the row. *)
let map_sv (op : Zpl.Ast.binop) v (dst : buf) d0 len =
  match op with
  | Zpl.Ast.Add ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (v +. A1.unsafe_get dst k)
      done
  | Zpl.Ast.Sub ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (v -. A1.unsafe_get dst k)
      done
  | Zpl.Ast.Mul ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (v *. A1.unsafe_get dst k)
      done
  | Zpl.Ast.Div ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (v /. A1.unsafe_get dst k)
      done
  | Zpl.Ast.Pow ->
      for k = d0 to d0 + len - 1 do
        A1.unsafe_set dst k (Float.pow v (A1.unsafe_get dst k))
      done
  | _ -> raise Row_fallback

(** [dst.(k) <- dst.(k) op src.(s0 + k - d0)] over the row. *)
let map_vv (op : Zpl.Ast.binop) (dst : buf) d0 (src : buf) s0 len =
  match op with
  | Zpl.Ast.Add ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get dst (d0 + k) +. A1.unsafe_get src (s0 + k))
      done
  | Zpl.Ast.Sub ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get dst (d0 + k) -. A1.unsafe_get src (s0 + k))
      done
  | Zpl.Ast.Mul ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get dst (d0 + k) *. A1.unsafe_get src (s0 + k))
      done
  | Zpl.Ast.Div ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get dst (d0 + k) /. A1.unsafe_get src (s0 + k))
      done
  | Zpl.Ast.Pow ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (Float.pow
             (A1.unsafe_get dst (d0 + k))
             (A1.unsafe_get src (s0 + k)))
      done
  | _ -> raise Row_fallback

(** [dst.(k) <- src.(s0 + k - d0) op dst.(k)] over the row — the reversed
    accumulate, used when the {e left} operand is a plain ref and the
    right one already lives in [dst]. *)
let map_rv (op : Zpl.Ast.binop) (src : buf) s0 (dst : buf) d0 len =
  match op with
  | Zpl.Ast.Add ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get src (s0 + k) +. A1.unsafe_get dst (d0 + k))
      done
  | Zpl.Ast.Sub ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get src (s0 + k) -. A1.unsafe_get dst (d0 + k))
      done
  | Zpl.Ast.Mul ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get src (s0 + k) *. A1.unsafe_get dst (d0 + k))
      done
  | Zpl.Ast.Div ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (A1.unsafe_get src (s0 + k) /. A1.unsafe_get dst (d0 + k))
      done
  | Zpl.Ast.Pow ->
      for k = 0 to len - 1 do
        A1.unsafe_set dst (d0 + k)
          (Float.pow
             (A1.unsafe_get src (s0 + k))
             (A1.unsafe_get dst (d0 + k)))
      done
  | _ -> raise Row_fallback

let apply_bin (op : Zpl.Ast.binop) x y =
  match op with
  | Zpl.Ast.Add -> x +. y
  | Zpl.Ast.Sub -> x -. y
  | Zpl.Ast.Mul -> x *. y
  | Zpl.Ast.Div -> x /. y
  | Zpl.Ast.Pow -> Float.pow x y
  | _ -> raise Row_fallback

let row_value : rowsrc -> env -> int array -> float = function
  | RConst v -> fun _ _ -> v
  | RRow f -> f
  | _ -> assert false

(* --- single-pass binary kernels over plain refs --- *)

(** [dst.(d0+k) <- a.(ia+k) op b.(ib+k)] in one pass, no intermediate
    row. Same per-cell operation as fill-then-combine, one memory
    traversal instead of two. *)
let fill_vv2 (op : Zpl.Ast.binop) ((aa, da) : int * int)
    ((ab, db) : int * int) : rowsrc =
  let body : buf -> int -> buf -> int -> buf -> int -> int -> unit =
    match op with
    | Zpl.Ast.Add ->
        fun a ia b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              (A1.unsafe_get a (ia + k) +. A1.unsafe_get b (ib + k))
          done
    | Zpl.Ast.Sub ->
        fun a ia b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              (A1.unsafe_get a (ia + k) -. A1.unsafe_get b (ib + k))
          done
    | Zpl.Ast.Mul ->
        fun a ia b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              (A1.unsafe_get a (ia + k) *. A1.unsafe_get b (ib + k))
          done
    | Zpl.Ast.Div ->
        fun a ia b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              (A1.unsafe_get a (ia + k) /. A1.unsafe_get b (ib + k))
          done
    | Zpl.Ast.Pow ->
        fun a ia b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              (Float.pow (A1.unsafe_get a (ia + k)) (A1.unsafe_get b (ib + k)))
          done
    | _ -> raise Row_fallback
  in
  RFill
    (fun env p0 len dst d0 ->
      let sa = env.e_stores.(aa) and sb = env.e_stores.(ab) in
      let ia = ref_base sa da p0 len and ib = ref_base sb db p0 len in
      body (Store.read_only sa) ia (Store.read_only sb) ib dst d0 len)

(** [dst.(d0+k) <- a.(ia+k) op v] in one pass. *)
let fill_vs2 (op : Zpl.Ast.binop) ((aa, da) : int * int)
    (fv : env -> int array -> float) : rowsrc =
  let body : buf -> int -> float -> buf -> int -> int -> unit =
    match op with
    | Zpl.Ast.Add ->
        fun a ia v dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (A1.unsafe_get a (ia + k) +. v)
          done
    | Zpl.Ast.Sub ->
        fun a ia v dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (A1.unsafe_get a (ia + k) -. v)
          done
    | Zpl.Ast.Mul ->
        fun a ia v dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (A1.unsafe_get a (ia + k) *. v)
          done
    | Zpl.Ast.Div ->
        fun a ia v dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (A1.unsafe_get a (ia + k) /. v)
          done
    | Zpl.Ast.Pow ->
        fun a ia v dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (Float.pow (A1.unsafe_get a (ia + k)) v)
          done
    | _ -> raise Row_fallback
  in
  RFill
    (fun env p0 len dst d0 ->
      let sa = env.e_stores.(aa) in
      let ia = ref_base sa da p0 len in
      body (Store.read_only sa) ia (fv env p0) dst d0 len)

(** [dst.(d0+k) <- v op b.(ib+k)] in one pass. *)
let fill_sv2 (op : Zpl.Ast.binop) (fv : env -> int array -> float)
    ((ab, db) : int * int) : rowsrc =
  let body : float -> buf -> int -> buf -> int -> int -> unit =
    match op with
    | Zpl.Ast.Add ->
        fun v b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (v +. A1.unsafe_get b (ib + k))
          done
    | Zpl.Ast.Sub ->
        fun v b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (v -. A1.unsafe_get b (ib + k))
          done
    | Zpl.Ast.Mul ->
        fun v b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (v *. A1.unsafe_get b (ib + k))
          done
    | Zpl.Ast.Div ->
        fun v b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (v /. A1.unsafe_get b (ib + k))
          done
    | Zpl.Ast.Pow ->
        fun v b ib dst d0 len ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k) (Float.pow v (A1.unsafe_get b (ib + k)))
          done
    | _ -> raise Row_fallback
  in
  RFill
    (fun env p0 len dst d0 ->
      let sb = env.e_stores.(ab) in
      let ib = ref_base sb db p0 len in
      body (fv env p0) (Store.read_only sb) ib dst d0 len)

(** [dst.(d0+k) <- (a*b) op (c*d)] in one pass — the shape of the
    metric-coefficient statements ([AA := 0.25*(XY*XY + YY*YY)] and
    friends), which would otherwise cost two product passes, a scratch
    row and a combine. *)
let fill_prodsum2 (op : [ `Add | `Sub ]) (aa, da) (ab, db) (ac, dc) (ad, dd) :
    rowsrc =
  RFill
    (fun env p0 len dst d0 ->
      let sa = env.e_stores.(aa)
      and sb = env.e_stores.(ab)
      and sc = env.e_stores.(ac)
      and sd = env.e_stores.(ad) in
      let ia = ref_base sa da p0 len
      and ib = ref_base sb db p0 len
      and ic = ref_base sc dc p0 len
      and id = ref_base sd dd p0 len in
      let a = Store.read_only sa
      and b = Store.read_only sb
      and c = Store.read_only sc
      and d = Store.read_only sd in
      match op with
      | `Add ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((A1.unsafe_get a (ia + k) *. A1.unsafe_get b (ib + k))
              +. (A1.unsafe_get c (ic + k) *. A1.unsafe_get d (id + k)))
          done
      | `Sub ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((A1.unsafe_get a (ia + k) *. A1.unsafe_get b (ib + k))
              -. (A1.unsafe_get c (ic + k) *. A1.unsafe_get d (id + k)))
          done)

(** [dst.(d0+k) <- a op (c*d)] in one pass — the tridiagonal-solver
    numerator shape, [RX + AA * DX@north]. *)
let fill_refprod (op : [ `Add | `Sub ]) (aa, da) (ac, dc) (ad, dd) : rowsrc =
  RFill
    (fun env p0 len dst d0 ->
      let sa = env.e_stores.(aa)
      and sc = env.e_stores.(ac)
      and sd = env.e_stores.(ad) in
      let ia = ref_base sa da p0 len
      and ic = ref_base sc dc p0 len
      and id = ref_base sd dd p0 len in
      let a = Store.read_only sa
      and c = Store.read_only sc
      and d = Store.read_only sd in
      match op with
      | `Add ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              (A1.unsafe_get a (ia + k)
              +. (A1.unsafe_get c (ic + k) *. A1.unsafe_get d (id + k)))
          done
      | `Sub ->
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              (A1.unsafe_get a (ia + k)
              -. (A1.unsafe_get c (ic + k) *. A1.unsafe_get d (id + k)))
          done)

(* --- single-pass +/- chains of plain refs --- *)

(** How an optional outer scalar wraps a chain: applied last per cell,
    with the scalar on the recorded side — the same left-associated
    order the per-point evaluator uses. *)
type scale_kind =
  | KNone
  | KLeft of Zpl.Ast.binop * (env -> int array -> float)  (** [s op chain] *)
  | KRight of Zpl.Ast.binop * (env -> int array -> float)
      (** [chain op s] *)

(** One chain term: a contiguous row of floats — a full-rank ref at its
    flat shift, or a CSE row temporary by env buffer slot — with an
    optional row-invariant multiplicative coefficient on its left,
    [c * A@d] / [c * temp]. *)
type cterm = {
  t_src : [ `Slice of int * int | `Temp of int ];
  t_coeff : (env -> int array -> float) option;
}

(** A left-associated +/- chain of (optionally scaled) full-rank refs,
    [((c0*t0 ± c1*t1) ± c2*t2) ± ...], evaluated in one loop: n reads,
    n multiplies and one write per cell, where the multi-pass build-up
    would touch memory 2(n-1)+1 times. [sub.(i)] records whether term
    [i+1] is subtracted.

    Coefficient-less terms run with coefficient 1.0: [1.0 *. x] is
    bit-identical to [x] for every representable value (exact for all
    numerics including signed zeros and infinities; quiet NaNs pass
    through multiplication unchanged), so results still match the
    per-point evaluator bitwise.

    The loop shape is picked here, at row-compile time — the common
    arities get fully monomorphic bodies, because a per-cell sign test
    or term loop costs ~3x on the stencil chains this exists for. The
    outer scalar factor is applied as a second in-cache pass over the
    row; per-cell value and order of operations are exactly those of
    the per-point evaluator.

    The resolved data buffers, bases and coefficient values live in an
    env-owned {!chain_ws} (one per chain slot, allocated by the compile
    pass), refilled on every row — so the compiled chain itself holds no
    mutable state and can be shared across concurrent executors. *)
let fill_chain (ws : ws) (terms : cterm array) (sub : bool array)
    (kind : scale_kind) : rowsrc =
  let n = Array.length terms in
  let slot = ws_chain ws n in
  let generic (cw : chain_ws) (dst : buf) d0 len =
    let datas = cw.cw_datas and bases = cw.cw_bases and cvals = cw.cw_cvals in
    for k = 0 to len - 1 do
      let v =
        ref
          (Array.unsafe_get cvals 0
          *. A1.unsafe_get (Array.unsafe_get datas 0)
               (Array.unsafe_get bases 0 + k))
      in
      for t = 1 to n - 1 do
        let x =
          Array.unsafe_get cvals t
          *. A1.unsafe_get (Array.unsafe_get datas t)
               (Array.unsafe_get bases t + k)
        in
        v := (if Array.unsafe_get sub (t - 1) then !v -. x else !v +. x)
      done;
      A1.unsafe_set dst (d0 + k) !v
    done
  in
  let all_add = Array.for_all not sub in
  let core : chain_ws -> buf -> int -> int -> unit =
    match n with
    | 2 ->
        if sub.(0) then fun cw dst d0 len ->
          let a = cw.cw_datas.(0) and b = cw.cw_datas.(1) in
          let ia = cw.cw_bases.(0) and ib = cw.cw_bases.(1) in
          let ca = cw.cw_cvals.(0) and cb = cw.cw_cvals.(1) in
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((ca *. A1.unsafe_get a (ia + k))
              -. (cb *. A1.unsafe_get b (ib + k)))
          done
        else fun cw dst d0 len ->
          let a = cw.cw_datas.(0) and b = cw.cw_datas.(1) in
          let ia = cw.cw_bases.(0) and ib = cw.cw_bases.(1) in
          let ca = cw.cw_cvals.(0) and cb = cw.cw_cvals.(1) in
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((ca *. A1.unsafe_get a (ia + k))
              +. (cb *. A1.unsafe_get b (ib + k)))
          done
    | 3 ->
        let s1 = sub.(0) and s2 = sub.(1) in
        fun cw dst d0 len ->
          let a = cw.cw_datas.(0)
          and b = cw.cw_datas.(1)
          and c = cw.cw_datas.(2) in
          let ia = cw.cw_bases.(0)
          and ib = cw.cw_bases.(1)
          and ic = cw.cw_bases.(2) in
          let ca = cw.cw_cvals.(0)
          and cb = cw.cw_cvals.(1)
          and cc = cw.cw_cvals.(2) in
          if (not s1) && not s2 then
            for k = 0 to len - 1 do
              A1.unsafe_set dst (d0 + k)
                ((ca *. A1.unsafe_get a (ia + k))
                +. (cb *. A1.unsafe_get b (ib + k))
                +. (cc *. A1.unsafe_get c (ic + k)))
            done
          else if (not s1) && s2 then
            for k = 0 to len - 1 do
              A1.unsafe_set dst (d0 + k)
                ((ca *. A1.unsafe_get a (ia + k))
                +. (cb *. A1.unsafe_get b (ib + k))
                -. (cc *. A1.unsafe_get c (ic + k)))
            done
          else if s1 && not s2 then
            for k = 0 to len - 1 do
              A1.unsafe_set dst (d0 + k)
                ((ca *. A1.unsafe_get a (ia + k))
                -. (cb *. A1.unsafe_get b (ib + k))
                +. (cc *. A1.unsafe_get c (ic + k)))
            done
          else
            for k = 0 to len - 1 do
              A1.unsafe_set dst (d0 + k)
                ((ca *. A1.unsafe_get a (ia + k))
                -. (cb *. A1.unsafe_get b (ib + k))
                -. (cc *. A1.unsafe_get c (ic + k)))
            done
    | 4 when all_add ->
        fun cw dst d0 len ->
          let a = cw.cw_datas.(0)
          and b = cw.cw_datas.(1)
          and c = cw.cw_datas.(2)
          and d = cw.cw_datas.(3) in
          let ia = cw.cw_bases.(0)
          and ib = cw.cw_bases.(1)
          and ic = cw.cw_bases.(2)
          and id = cw.cw_bases.(3) in
          let ca = cw.cw_cvals.(0)
          and cb = cw.cw_cvals.(1)
          and cc = cw.cw_cvals.(2)
          and cd = cw.cw_cvals.(3) in
          for k = 0 to len - 1 do
            A1.unsafe_set dst (d0 + k)
              ((ca *. A1.unsafe_get a (ia + k))
              +. (cb *. A1.unsafe_get b (ib + k))
              +. (cc *. A1.unsafe_get c (ic + k))
              +. (cd *. A1.unsafe_get d (id + k)))
          done
    | 4 ->
        (* mixed signs (the corner stencils, [X@se - X@ne - X@sw + X@nw]):
           straight-line body with three loop-invariant, predictable
           branches — still far from the generic inner term loop *)
        let s1 = sub.(0) and s2 = sub.(1) and s3 = sub.(2) in
        fun cw dst d0 len ->
          let a = cw.cw_datas.(0)
          and b = cw.cw_datas.(1)
          and c = cw.cw_datas.(2)
          and d = cw.cw_datas.(3) in
          let ia = cw.cw_bases.(0)
          and ib = cw.cw_bases.(1)
          and ic = cw.cw_bases.(2)
          and id = cw.cw_bases.(3) in
          let ca = cw.cw_cvals.(0)
          and cb = cw.cw_cvals.(1)
          and cc = cw.cw_cvals.(2)
          and cd = cw.cw_cvals.(3) in
          for k = 0 to len - 1 do
            let t0 = ca *. A1.unsafe_get a (ia + k)
            and t1 = cb *. A1.unsafe_get b (ib + k)
            and t2 = cc *. A1.unsafe_get c (ic + k)
            and t3 = cd *. A1.unsafe_get d (id + k) in
            let v = if s1 then t0 -. t1 else t0 +. t1 in
            let v = if s2 then v -. t2 else v +. t2 in
            let v = if s3 then v -. t3 else v +. t3 in
            A1.unsafe_set dst (d0 + k) v
          done
    | _ -> generic
  in
  RFill
    (fun env p0 len dst d0 ->
      let cw = env.e_chains.(slot) in
      for t = 0 to n - 1 do
        let { t_src; t_coeff } = terms.(t) in
        (match t_src with
        | `Slice (aid, shift) ->
            let s = env.e_stores.(aid) in
            cw.cw_datas.(t) <- Store.read_only s;
            cw.cw_bases.(t) <- ref_base s shift p0 len
        | `Temp b ->
            cw.cw_datas.(t) <- !(env.e_bufs.(b));
            cw.cw_bases.(t) <- 0);
        cw.cw_cvals.(t) <-
          (match t_coeff with None -> 1.0 | Some f -> f env p0)
      done;
      core cw dst d0 len;
      match kind with
      | KNone -> ()
      | KLeft (op, f) -> map_sv op (f env p0) dst d0 len
      | KRight (op, f) -> map_vs op dst d0 len (f env p0))

(** [compile_row rc ~rank e] row-compiles [e] for iteration regions of
    rank [rank]; [None] means the caller must use the per-point path.

    [cse] is an environment of already-hoisted subterms: any subterm of
    [e] syntactically equal to a bound term compiles to its [RTemp] row
    instead of being recomputed. The bindings are consulted before every
    other compilation strategy — the product fast paths refuse to inline
    a bound term, and the chain compiler reads it as a leaf slice — so a
    bound occurrence is never evaluated twice. Reading a temp is bitwise-identical to
    evaluating the term in place because {!plan_fused} only binds terms
    whose operand arrays no fused statement writes (row-invariant during
    the group), and the temp row is itself produced by this compiler's
    order-preserving strategies. *)
let compile_row ?(cse : (Zpl.Prog.aexpr * rowsrc) list = []) (rc : rowctx)
    ~(rank : int) (e : Zpl.Prog.aexpr) : rowsrc option =
  let lookup (e : Zpl.Prog.aexpr) =
    if cse == [] then None
    else List.find_opt (fun (t, _) -> Zpl.Prog.equal_aexpr t e) cse
  in
  let is_bound (e : Zpl.Prog.aexpr) = lookup e <> None in
  (* a full-rank ref whose shift collapses to one flat offset against
     the compile-time store's strides; the runtime env binds stores of
     the same geometry *)
  let as_ref (e : Zpl.Prog.aexpr) : (int * int) option =
    match e with
    | Zpl.Prog.ARef (aid, off) ->
        let n = Array.length off in
        let s = rc.rstore aid in
        if
          Store.rank s = n && n = rank
          && (n = 0 || Store.stride s (n - 1) = 1)
        then begin
          let dshift = ref 0 in
          Array.iteri (fun d o -> dshift := !dshift + (o * Store.stride s d)) off;
          Some (aid, !dshift)
        end
        else None
    | _ -> None
  in
  (* single-pass product shapes: [(a*b) ± (c*d)] and [a ± (b*c)] *)
  let special (e : Zpl.Prog.aexpr) : rowsrc option =
    let ref2 e =
      if is_bound e then None
      else
        match e with
        | Zpl.Prog.ABin (Zpl.Ast.Mul, x, y) -> (
            match (as_ref x, as_ref y) with
            | Some rx, Some ry -> Some (rx, ry)
            | _ -> None)
        | _ -> None
    in
    match e with
    | Zpl.Prog.ABin (((Zpl.Ast.Add | Zpl.Ast.Sub) as op), a, b) -> (
        let op = if op = Zpl.Ast.Sub then `Sub else `Add in
        match ref2 b with
        | None -> None
        | Some (rc, rd) -> (
            match ref2 a with
            | Some (ra, rb) -> Some (fill_prodsum2 op ra rb rc rd)
            | None -> (
                match as_ref a with
                | Some ra -> Some (fill_refprod op ra rc rd)
                | None -> None)))
    | _ -> None
  in
  let rec go (e : Zpl.Prog.aexpr) : rowsrc =
    match lookup e with Some (_, src) -> src | None -> go_unbound e
  and go_unbound (e : Zpl.Prog.aexpr) : rowsrc =
    match e with
    | Zpl.Prog.AConst c -> RConst c
    | Zpl.Prog.AScalar id -> RRow (fun env _ -> env.e_scalar id)
    | Zpl.Prog.AIndex d ->
        if d = rank - 1 then RIndexLast
        else if d >= 0 && d < rank - 1 then
          RRow (fun _ p0 -> float_of_int p0.(d))
        else raise Row_fallback
    | Zpl.Prog.ARef (aid, off) -> (
        match as_ref e with
        | Some (aid, dshift) -> RRef (aid, dshift)
        | None ->
            let n = Array.length off in
            let s = rc.rstore aid in
            if Store.rank s <> n then raise Row_fallback
            else if n < rank then begin
              (* rank-deficient ref: constant along the innermost dimension *)
              ws_ipt rc.rws n;
              RRow
                (fun env p0 ->
                  let scratch = env.e_ipt.(n) in
                  for k = 0 to n - 1 do
                    scratch.(k) <- p0.(k) + off.(k)
                  done;
                  Store.get_unsafe env.e_stores.(aid) scratch)
            end
            else raise Row_fallback)
    | Zpl.Prog.ABin (op, a, b) -> (
        (match op with
        | Zpl.Ast.Add | Zpl.Ast.Sub | Zpl.Ast.Mul | Zpl.Ast.Div | Zpl.Ast.Pow
          ->
            ()
        | _ -> raise Row_fallback);
        match chain e with
        | Some src -> src
        | None ->
        match special e with
        | Some src -> src
        | None ->
        (* a structural square, [(U@east + U) * (U@east + U)]: evaluate
           the operand once and square in place — both factors read the
           same value, so one evaluation is exact *)
        match
          if op = Zpl.Ast.Mul && Stdlib.compare a b = 0 then Some (go a)
          else None
        with
        | Some (RConst x) -> RConst (x *. x)
        | Some (RRow f) ->
            RRow
              (fun env p0 ->
                let v = f env p0 in
                v *. v)
        | Some (RRef (aa, da)) -> fill_vv2 Zpl.Ast.Mul (aa, da) (aa, da)
        | Some ra ->
            RFill
              (fun env p0 len dst d0 ->
                fill ra env p0 len dst d0;
                for k = d0 to d0 + len - 1 do
                  let v = A1.unsafe_get dst k in
                  A1.unsafe_set dst k (v *. v)
                done)
        | None -> (
            let ra = go a and rb = go b in
            match (ra, rb) with
            | RConst x, RConst y -> RConst (apply_bin op x y)
            | (RConst _ | RRow _), (RConst _ | RRow _) ->
                let fa = row_value ra and fb = row_value rb in
                RRow (fun env p0 -> apply_bin op (fa env p0) (fb env p0))
            | RRef (aa, da), RRef (ab, db) -> fill_vv2 op (aa, da) (ab, db)
            | RRef (aa, da), (RConst _ | RRow _) ->
                fill_vs2 op (aa, da) (row_value rb)
            | (RConst _ | RRow _), RRef (ab, db) ->
                fill_sv2 op (row_value ra) (ab, db)
            | RRef (aa, da), _ ->
                (* evaluate the composite right side into dst, then fold
                   in the left ref slice reversed — no scratch row *)
                RFill
                  (fun env p0 len dst d0 ->
                    fill rb env p0 len dst d0;
                    let s = env.e_stores.(aa) in
                    let ia = ref_base s da p0 len in
                    map_rv op (Store.read_only s) ia dst d0 len)
            | _, (RConst _ | RRow _) ->
                let fb = row_value rb in
                RFill
                  (fun env p0 len dst d0 ->
                    fill ra env p0 len dst d0;
                    map_vs op dst d0 len (fb env p0))
            | (RConst _ | RRow _), _ ->
                let fa = row_value ra in
                RFill
                  (fun env p0 len dst d0 ->
                    fill rb env p0 len dst d0;
                    map_sv op (fa env p0) dst d0 len)
            | _, RRef (ab, db) ->
                RFill
                  (fun env p0 len dst d0 ->
                    fill ra env p0 len dst d0;
                    let s = env.e_stores.(ab) in
                    let ib = ref_base s db p0 len in
                    map_vv op dst d0 (Store.read_only s) ib len)
            | _, _ ->
                let slot = ws_buf rc.rws in
                RFill
                  (fun env p0 len dst d0 ->
                    fill ra env p0 len dst d0;
                    match slice_of rb env env.e_bufs.(slot) p0 len with
                    | SConst v -> map_vs op dst d0 len v
                    | SVec (src, s0) -> map_vv op dst d0 src s0 len)))
    | Zpl.Prog.AUn (Zpl.Ast.Neg, a) -> (
        match go a with
        | RConst v -> RConst (-.v)
        | RRow f -> RRow (fun env p0 -> -.f env p0)
        | ra ->
            RFill
              (fun env p0 len dst d0 ->
                fill ra env p0 len dst d0;
                for k = d0 to d0 + len - 1 do
                  A1.unsafe_set dst k (-.A1.unsafe_get dst k)
                done))
    | Zpl.Prog.AUn (Zpl.Ast.Not, _) -> raise Row_fallback
    | Zpl.Prog.ACall (f, [ a ]) -> (
        let g =
          try Values.resolve1 f with Invalid_argument _ -> raise Row_fallback
        in
        match go a with
        | RConst v -> RConst (g v)
        | RRow fa -> RRow (fun env p0 -> g (fa env p0))
        | ra ->
            let apply =
              (* keep the hottest intrinsics call-free in the loop *)
              match f with
              | "abs" ->
                  fun (dst : buf) d0 len ->
                    for k = d0 to d0 + len - 1 do
                      A1.unsafe_set dst k (Float.abs (A1.unsafe_get dst k))
                    done
              | "sqrt" ->
                  fun dst d0 len ->
                    for k = d0 to d0 + len - 1 do
                      A1.unsafe_set dst k (sqrt (A1.unsafe_get dst k))
                    done
              | _ ->
                  fun dst d0 len ->
                    for k = d0 to d0 + len - 1 do
                      A1.unsafe_set dst k (g (A1.unsafe_get dst k))
                    done
            in
            RFill
              (fun env p0 len dst d0 ->
                fill ra env p0 len dst d0;
                apply dst d0 len))
    | Zpl.Prog.ACall (f, [ a; b ]) -> (
        let g =
          try Values.resolve2 f with Invalid_argument _ -> raise Row_fallback
        in
        let ra = go a and rb = go b in
        match (ra, rb) with
        | RConst x, RConst y -> RConst (g x y)
        | (RConst _ | RRow _), (RConst _ | RRow _) ->
            let fa = row_value ra and fb = row_value rb in
            RRow (fun env p0 -> g (fa env p0) (fb env p0))
        | _ ->
            let slot = ws_buf rc.rws in
            RFill
              (fun env p0 len dst d0 ->
                fill ra env p0 len dst d0;
                match slice_of rb env env.e_bufs.(slot) p0 len with
                | SConst v ->
                    for k = d0 to d0 + len - 1 do
                      A1.unsafe_set dst k (g (A1.unsafe_get dst k) v)
                    done
                | SVec (src, s0) ->
                    for k = 0 to len - 1 do
                      A1.unsafe_set dst (d0 + k)
                        (g
                           (A1.unsafe_get dst (d0 + k))
                           (A1.unsafe_get src (s0 + k)))
                    done))
    | Zpl.Prog.ACall (_, _) -> raise Row_fallback
  (* single-pass chain at this node, optionally under a scalar factor *)
  and chain (e : Zpl.Prog.aexpr) : rowsrc option =
    let try_scalar e =
      match go e with
      | RConst v -> Some (fun (_ : env) (_ : int array) -> v)
      | RRow f -> Some f
      | _ -> None
      | exception Row_fallback -> None
    in
    (* one chain term: a plain full-rank ref, a bound (CSE'd) subterm
       read from its temp row, or either under a row-invariant
       coefficient on the left, [c * _]. A coefficient on the right is
       left to the general path: swapping multiplicand order is not
       bitwise-safe when both operands are NaN. Treating a temp as a
       chain leaf is what keeps hoisting profitable — the member
       statement stays a single-pass loop instead of degrading to
       operator-by-operator composition around the temp read. *)
    let as_slice (e : Zpl.Prog.aexpr) :
        [ `Slice of int * int | `Temp of int ] option =
      match lookup e with
      | Some (_, RTemp slot) -> Some (`Temp slot)
      | Some _ -> None
      | None -> (
          match as_ref e with
          | Some (aid, sh) -> Some (`Slice (aid, sh))
          | None -> None)
    in
    let as_term (e : Zpl.Prog.aexpr) : cterm option =
      match as_slice e with
      | Some src -> Some { t_src = src; t_coeff = None }
      | None -> (
          match e with
          | Zpl.Prog.ABin (Zpl.Ast.Mul, c, r) when not (is_bound e) -> (
              match as_slice r with
              | Some src -> (
                  match try_scalar c with
                  | Some f -> Some { t_src = src; t_coeff = Some f }
                  | None -> None)
              | None -> None)
          | _ -> None)
    in
    (* [collect e acc]: flatten a left-associated +/- spine whose
       trailing operands (and base) are all chain terms *)
    let rec collect (e : Zpl.Prog.aexpr) acc =
      match e with
      | Zpl.Prog.ABin (((Zpl.Ast.Add | Zpl.Ast.Sub) as op), a, b)
        when not (is_bound e) -> (
          match as_term b with
          | Some t -> collect a ((op = Zpl.Ast.Sub, t) :: acc)
          | None -> None)
      | e -> (
          match as_term e with
          | Some base when acc <> [] -> Some (base, acc)
          | _ -> None)
    in
    let build kind (base, rest) =
      let terms = Array.of_list (base :: List.map snd rest) in
      let sub = Array.of_list (List.map fst rest) in
      fill_chain rc.rws terms sub kind
    in
    match e with
    | Zpl.Prog.ABin (op, a, b) -> (
        match collect e [] with
        | Some c -> Some (build KNone c)
        | None -> (
            match (try_scalar a, collect b []) with
            | Some f, Some c -> Some (build (KLeft (op, f)) c)
            | _ -> (
                match (collect a [], try_scalar b) with
                | Some c, Some f -> Some (build (KRight (op, f)) c)
                | _ -> None)))
    | _ -> None
  in
  match go e with src -> Some src | exception Row_fallback -> None

(** How the row path may write the lhs. *)
type write_mode =
  | WDirect
      (** rhs never reads the lhs: rows are written straight into storage *)
  | WRowBuffer
      (** rhs reads the lhs at zero shift only: each row evaluates into a
          scratch row first, then blits (per-point order reads the old
          value of exactly the cell being written) *)
  | WFullBuffer
      (** rhs reads the lhs through a nonzero shift: the whole region
          evaluates into a buffer first (array semantics) *)

let write_mode (a : Zpl.Prog.assign_a) : write_mode =
  if needs_buffer a then WFullBuffer
  else if List.mem a.lhs (Zpl.Prog.arrays_read a.rhs) then WRowBuffer
  else WDirect

(** Innermost extent of a non-empty region: the length of every row. *)
let row_len (region : Zpl.Region.t) =
  Zpl.Region.range_size (Zpl.Region.dim region (Zpl.Region.rank region - 1))

(** The env's row-cursor point for [region]'s rank, set to its first
    row. *)
let row_cursor (env : env) (region : Zpl.Region.t) : int array =
  let p0 = env.e_row.(Zpl.Region.rank region) in
  Zpl.Region.first_row region p0;
  p0

(** Run a row-compiled source over [region], writing the rows of [lhs].
    [slot] indexes the env row buffer the buffered modes stage through
    (ignored by [WDirect]). Returns the number of cells updated. *)
let run_region_rows (env : env) ~(lhs : Store.t) ~(region : Zpl.Region.t)
    ~(mode : write_mode) ~(slot : int) (src : rowsrc) : int =
  if Zpl.Region.is_empty region then 0
  else begin
    if not (Zpl.Region.subset region (Store.alloc lhs)) then
      Fmt.invalid_arg "row kernel: write region %s outside allocated %s of %s"
        (Zpl.Region.to_string region)
        (Zpl.Region.to_string (Store.alloc lhs))
        (Store.info lhs).a_name;
    let data = Store.unsafe_data lhs in
    let nrows = Zpl.Region.rows region and len = row_len region in
    let p0 = row_cursor env region in
    (match mode with
    | WDirect ->
        for _ = 1 to nrows do
          fill src env p0 len data (Store.index lhs p0);
          Zpl.Region.next_row region p0
        done
    | WRowBuffer ->
        let scratch = env.e_bufs.(slot) in
        for _ = 1 to nrows do
          let b = ensure scratch len in
          fill src env p0 len b 0;
          buf_blit b 0 data (Store.index lhs p0) len;
          Zpl.Region.next_row region p0
        done
    | WFullBuffer ->
        let buf = ensure env.e_bufs.(slot) (Zpl.Region.size region) in
        for r = 0 to nrows - 1 do
          fill src env p0 len buf (r * len);
          Zpl.Region.next_row region p0
        done;
        Zpl.Region.first_row region p0;
        for r = 0 to nrows - 1 do
          buf_blit buf (r * len) data (Store.index lhs p0) len;
          Zpl.Region.next_row region p0
        done);
    Zpl.Region.size region
  end

(** Fold a row-compiled source over [region] in row-major order — the
    same per-cell operation sequence as {!run_reduce}, so partials are
    bit-identical to the per-point path. *)
let fold_rows (env : env) ~(slot : int) (op : Zpl.Ast.redop) (src : rowsrc)
    (region : Zpl.Region.t) : float * int =
  if Zpl.Region.is_empty region then (Reduce.identity op, 0)
  else begin
    let scratch = env.e_bufs.(slot) in
    let acc = ref (Reduce.identity op) in
    let len = row_len region in
    let p0 = row_cursor env region in
    for _ = 1 to Zpl.Region.rows region do
      (match slice_of src env scratch p0 len with
      | SConst v ->
          let a = ref !acc in
          (match op with
          | Zpl.Ast.RSum -> for _ = 1 to len do a := !a +. v done
          | Zpl.Ast.RProd -> for _ = 1 to len do a := !a *. v done
          | Zpl.Ast.RMax -> for _ = 1 to len do a := Float.max !a v done
          | Zpl.Ast.RMin -> for _ = 1 to len do a := Float.min !a v done);
          acc := !a
      | SVec (data, s0) ->
          let a = ref !acc in
          (match op with
          | Zpl.Ast.RSum ->
              for k = s0 to s0 + len - 1 do
                a := !a +. A1.unsafe_get data k
              done
          | Zpl.Ast.RProd ->
              for k = s0 to s0 + len - 1 do
                a := !a *. A1.unsafe_get data k
              done
          | Zpl.Ast.RMax ->
              for k = s0 to s0 + len - 1 do
                a := Float.max !a (A1.unsafe_get data k)
              done
          | Zpl.Ast.RMin ->
              for k = s0 to s0 + len - 1 do
                a := Float.min !a (A1.unsafe_get data k)
              done);
          acc := !a);
      Zpl.Region.next_row region p0
    done;
    (!acc, Zpl.Region.size region)
  end

(* ------------------------------------------------------------------ *)
(* Execution plans: row path when possible, per-point fallback else     *)
(* ------------------------------------------------------------------ *)

type plan =
  | PRow of write_mode * int * rowsrc
      (** mode, staging-buffer slot (-1 when [WDirect] needs none), src *)
  | PPoint of bool * (env -> int array -> float)
      (** buffered flag, per-cell fn *)

(** Compile an assignment into an execution plan. [row:false] forces the
    per-point fallback (used by differential tests and the benchmark
    harness). *)
let plan_assign ?(row = true) (rc : rowctx) (a : Zpl.Prog.assign_a) : plan =
  let rank = Array.length a.region in
  match if row then compile_row rc ~rank a.rhs else None with
  | Some src ->
      let mode = write_mode a in
      let slot = match mode with WDirect -> -1 | _ -> ws_buf rc.rws in
      PRow (mode, slot, src)
  | None -> PPoint (needs_buffer a, compile_env rc.rws a.rhs)

let plan_is_row = function PRow _ -> true | PPoint _ -> false

(** Execute a plan over [region] (already clipped to ownership and lying
    inside [lhs]'s allocation). Returns the number of cells updated. *)
let exec_plan (plan : plan) ~(env : env) ~(lhs : Store.t)
    ~(region : Zpl.Region.t) : int =
  match plan with
  | PRow (mode, slot, src) -> run_region_rows env ~lhs ~region ~mode ~slot src
  | PPoint (buffered, f) ->
      run_region
        ~write:(fun p v -> Store.set_unsafe lhs p v)
        ~region ~buffered
        (fun p -> f env p)

type rplan =
  | RowRed of int * rowsrc  (** scratch slot for non-slice sources *)
  | PointRed of (env -> int array -> float)

let plan_reduce ?(row = true) (rc : rowctx) (r : Zpl.Prog.reduce_s) : rplan =
  let rank = Array.length r.r_region in
  match if row then compile_row rc ~rank r.r_rhs else None with
  | Some src -> RowRed (ws_buf rc.rws, src)
  | None -> PointRed (compile_env rc.rws r.r_rhs)

(** Local partial of a reduction plan over [region]: (partial, cells). *)
let exec_rplan (plan : rplan) ~(env : env) ~(region : Zpl.Region.t)
    (op : Zpl.Ast.redop) : float * int =
  match plan with
  | RowRed (slot, src) -> fold_rows env ~slot op src region
  | PointRed f -> run_reduce ~region op (fun p -> f env p)

(* ------------------------------------------------------------------ *)
(* Statement fusion                                                    *)
(*                                                                     *)
(* Adjacent array statements over the same region can share one bounds *)
(* computation and one row traversal: the fused loop visits each row   *)
(* once and evaluates every statement's rhs for it while the row's     *)
(* indices (and often its operand cache lines) are hot. Fusing         *)
(* interleaves rows of different statements, so it is only legal when  *)
(* that interleaving is unobservable — see {!can_join}.                *)
(* ------------------------------------------------------------------ *)

(** Whether statement [s] may join a fused group already containing
    [group] (statically, before row compilation). The conditions:
    - [s] must not need whole-region buffering ([WFullBuffer] evaluates
      everything before writing anything, which cannot interleave);
    - same iteration-region expression (syntactic equality) as the
      group, so one bounds computation serves every statement;
    - identical declared regions for all lhs arrays, so each processor
      clips every statement to the same owned rectangle;
    - distinct left-hand sides;
    - no cross-statement flow: for fused statements [i <> j], [lhs_i]
      must not be read by [rhs_j]. Row interleaving would otherwise
      observe a partially updated array ([i < j]) or miss updates that
      per-statement order had not applied yet ([i > j]). *)
let can_join ~(arrays : int -> Zpl.Prog.array_info)
    (group : Zpl.Prog.assign_a list) (s : Zpl.Prog.assign_a) : bool =
  (not (needs_buffer s))
  && (match group with
     | [] -> true
     | g0 :: _ ->
         Zpl.Prog.equal_dregion s.region g0.region
         && Zpl.Region.equal (arrays s.lhs).a_region (arrays g0.lhs).a_region)
  && List.for_all
       (fun (g : Zpl.Prog.assign_a) ->
         g.lhs <> s.lhs
         && (not (List.mem g.lhs (Zpl.Prog.arrays_read s.rhs)))
         && not (List.mem s.lhs (Zpl.Prog.arrays_read g.rhs)))
       group

(* ------------------------------------------------------------------ *)
(* Cross-statement common-subexpression elimination                    *)
(*                                                                     *)
(* Adjacent fused statements often recompute the same shifted-read     *)
(* subterm — TOMCATV's solver sweeps take the same neighbor sums in    *)
(* consecutive statements. Within one fused group such a subterm can   *)
(* be hoisted into a row temporary computed once per row, provided the *)
(* hoist is bitwise-invisible:                                         *)
(*   - the term must read at least two array cells (one scaled read is *)
(*     free inside the chain kernels, so hoisting it only adds temp    *)
(*     traffic) and none of the arrays any member statement writes —   *)
(*     its value is then identical no matter where in the group's      *)
(*     interleaved execution it is evaluated;                          *)
(*   - the temp row is produced by [compile_row]'s order-preserving    *)
(*     strategies, so each cell holds exactly the float the in-place   *)
(*     evaluation would have produced (same left-to-right order);      *)
(*   - occurrences are replaced only on syntactic equality, never on   *)
(*     algebraic identities.                                           *)
(* ------------------------------------------------------------------ *)

let rec aexpr_size (e : Zpl.Prog.aexpr) : int =
  match e with
  | Zpl.Prog.AConst _ | Zpl.Prog.AScalar _ | Zpl.Prog.AIndex _
  | Zpl.Prog.ARef _ ->
      1
  | Zpl.Prog.ABin (_, a, b) -> 1 + aexpr_size a + aexpr_size b
  | Zpl.Prog.AUn (_, a) -> 1 + aexpr_size a
  | Zpl.Prog.ACall (_, args) ->
      List.fold_left (fun n a -> n + aexpr_size a) 1 args

(** Number of array-read leaves ([ARef] occurrences, not distinct
    arrays) in [e] — the vector work a hoist saves per duplicate. *)
let rec aexpr_refs (e : Zpl.Prog.aexpr) : int =
  match e with
  | Zpl.Prog.ARef _ -> 1
  | Zpl.Prog.AConst _ | Zpl.Prog.AScalar _ | Zpl.Prog.AIndex _ -> 0
  | Zpl.Prog.ABin (_, a, b) -> aexpr_refs a + aexpr_refs b
  | Zpl.Prog.AUn (_, a) -> aexpr_refs a
  | Zpl.Prog.ACall (_, args) ->
      List.fold_left (fun n a -> n + aexpr_refs a) 0 args

(** Whether [e] may be hoisted out of a group whose statements write the
    arrays in [written]: compound float arithmetic reading at least two
    array cells and none of the written arrays. The two-read floor is a
    profitability rule, not a legality one — a single scaled read like
    [2.0 * X] costs the chain kernels nothing (coefficients ride along
    in the same loop), so hoisting it saves no memory traffic and adds a
    temp row of it. *)
let cse_eligible ~(written : int list) (e : Zpl.Prog.aexpr) : bool =
  (match e with
  | Zpl.Prog.ABin
      ( ( Zpl.Ast.Add | Zpl.Ast.Sub | Zpl.Ast.Mul | Zpl.Ast.Div
        | Zpl.Ast.Pow ),
        _,
        _ )
  | Zpl.Prog.AUn (Zpl.Ast.Neg, _)
  | Zpl.Prog.ACall _ ->
      true
  | _ -> false)
  && aexpr_refs e >= 2
  &&
  match Zpl.Prog.arrays_read e with
  | [] -> false
  | reads -> not (List.exists (fun a -> List.mem a written) reads)

(** Pick the subterms worth hoisting from a fused group's right-hand
    sides: eligible terms occurring at least twice, largest first, where
    each term must still occur twice once already-accepted (larger)
    terms shadow their insides — an occurrence buried in an accepted
    definition is computed once per row, not once per use. The result
    is ordered smallest-first so definitions can read earlier temps. *)
let cse_select ~(written : int list) (rhss : Zpl.Prog.aexpr list) :
    Zpl.Prog.aexpr list =
  let eq = Zpl.Prog.equal_aexpr in
  let counts : (Zpl.Prog.aexpr * int ref) list ref = ref [] in
  let note e =
    if cse_eligible ~written e then
      match List.find_opt (fun (t, _) -> eq t e) !counts with
      | Some (_, n) -> incr n
      | None -> counts := (e, ref 1) :: !counts
  in
  let rec scan e =
    note e;
    match e with
    | Zpl.Prog.ABin (Zpl.Ast.Mul, a, b) when Stdlib.compare a b = 0 ->
        (* structural square: the row compiler evaluates the operand
           once and squares in place, so its subterms occur once here —
           counting both sides would hoist terms whose "duplicate" was
           already free *)
        scan a
    | Zpl.Prog.ABin (_, a, b) ->
        scan a;
        scan b
    | Zpl.Prog.AUn (_, a) -> scan a
    | Zpl.Prog.ACall (_, args) -> List.iter scan args
    | _ -> ()
  in
  List.iter scan rhss;
  let candidates =
    List.filter (fun (_, n) -> !n >= 2) !counts
    |> List.map fst
    |> List.stable_sort (fun a b ->
           Stdlib.compare (aexpr_size b) (aexpr_size a))
  in
  (* [occurs accepted t]: evaluations of [t] per row once the accepted
     terms are hoisted — occurrences inside an accepted definition count
     via the definition (computed once), not via its uses *)
  let occurs accepted t =
    let rec in_e e =
      if eq e t then 1
      else if List.exists (eq e) accepted then 0
      else under e
    and under e =
      match e with
      | Zpl.Prog.ABin (Zpl.Ast.Mul, a, b) when Stdlib.compare a b = 0 ->
          in_e a (* square operand evaluated once, as in [scan] *)
      | Zpl.Prog.ABin (_, a, b) -> in_e a + in_e b
      | Zpl.Prog.AUn (_, a) -> in_e a
      | Zpl.Prog.ACall (_, args) ->
          List.fold_left (fun n a -> n + in_e a) 0 args
      | _ -> 0
    in
    List.fold_left (fun n e -> n + in_e e) 0 rhss
    + List.fold_left (fun n d -> n + under d) 0 accepted
  in
  let accepted =
    List.fold_left
      (fun acc t -> if occurs acc t >= 2 then t :: acc else acc)
      [] candidates
  in
  List.stable_sort
    (fun a b -> Stdlib.compare (aexpr_size a) (aexpr_size b))
    accepted

type fstmt = { f_lhs : int; f_mode : write_mode; f_src : rowsrc }
(** One fused member: lhs array id (resolved through the env at
    execution), write mode and row source. *)

type ftemp = { ft_slot : int; ft_src : rowsrc }
(** One CSE row temporary: [ft_src] evaluated into env buffer slot
    [ft_slot] (cells [0 .. len-1]) before any member statement of the
    row runs. *)

type fplan = {
  f_temps : ftemp array;
  f_stmts : fstmt array;
  f_scratch : int;
      (** env buffer slot shared by [WRowBuffer] members; -1 when every
          member writes direct *)
}

let fused_temp_count (fp : fplan) = Array.length fp.f_temps

(** Row-compile a legal group (per {!can_join}) of at least two
    statements into a fused plan; [None] if any statement falls back to
    the per-point path, in which case the caller executes the group
    statement by statement. [cse:false] disables subterm hoisting (the
    [--no-cse] escape hatch); a hoist candidate that itself fails row
    compilation is skipped, never a reason to abandon the plan. *)
let plan_fused ?(cse = true) (rc : rowctx) (stmts : Zpl.Prog.assign_a array)
    : fplan option =
  let n = Array.length stmts in
  if n < 2 then None
  else begin
    let rank = Array.length stmts.(0).Zpl.Prog.region in
    let env = ref [] and temps = ref [] in
    if cse then begin
      let written =
        Array.to_list
          (Array.map (fun (s : Zpl.Prog.assign_a) -> s.lhs) stmts)
      in
      let rhss =
        Array.to_list
          (Array.map (fun (s : Zpl.Prog.assign_a) -> s.rhs) stmts)
      in
      List.iter
        (fun t ->
          match compile_row ~cse:!env rc ~rank t with
          | None -> ()
          | Some src ->
              let slot = ws_buf rc.rws in
              env := (t, RTemp slot) :: !env;
              temps := { ft_slot = slot; ft_src = src } :: !temps)
        (cse_select ~written rhss)
    end;
    let rec build i acc =
      if i = n then begin
        let stmts = Array.of_list (List.rev acc) in
        let scratch =
          if Array.exists (fun fs -> fs.f_mode = WRowBuffer) stmts then
            ws_buf rc.rws
          else -1
        in
        Some
          { f_temps = Array.of_list (List.rev !temps);
            f_stmts = stmts;
            f_scratch = scratch }
      end
      else
        match compile_row ~cse:!env rc ~rank stmts.(i).Zpl.Prog.rhs with
        | None -> None
        | Some src ->
            let mode = write_mode stmts.(i) in
            if mode = WFullBuffer then None
            else
              build (i + 1)
                ({ f_lhs = stmts.(i).Zpl.Prog.lhs; f_mode = mode;
                   f_src = src }
                :: acc)
    in
    build 0 []
  end

(** Execute a fused plan: one traversal of [region], all statements per
    row, in statement order. Returns the total number of cells updated
    (region size times the number of statements). *)
let exec_fused (fp : fplan) ~(env : env) ~(region : Zpl.Region.t) : int =
  if Zpl.Region.is_empty region then 0
  else begin
    let stmts = fp.f_stmts in
    let n = Array.length stmts in
    for i = 0 to n - 1 do
      let lhs = env.e_stores.(stmts.(i).f_lhs) in
      if not (Zpl.Region.subset region (Store.alloc lhs)) then
        Fmt.invalid_arg
          "fused kernel: write region %s outside allocated %s of %s"
          (Zpl.Region.to_string region)
          (Zpl.Region.to_string (Store.alloc lhs))
          (Store.info lhs).a_name
    done;
    let temps = fp.f_temps in
    let nt = Array.length temps in
    let stores = env.e_stores in
    let len = row_len region in
    let p0 = row_cursor env region in
    for _ = 1 to Zpl.Region.rows region do
      (* temp definitions first, in order: later temps may read
         earlier ones through their [RTemp] slots *)
      for t = 0 to nt - 1 do
        let ft = Array.unsafe_get temps t in
        let b = ensure env.e_bufs.(ft.ft_slot) len in
        fill ft.ft_src env p0 len b 0
      done;
      (* per-statement dispatch inline: the match is on an immediate
         tag and branch-predicts perfectly, and building hoisted
         closures here would allocate per execution *)
      for i = 0 to n - 1 do
        let fs = Array.unsafe_get stmts i in
        let lhs = Array.unsafe_get stores fs.f_lhs in
        let data = Store.unsafe_data lhs in
        match fs.f_mode with
        | WDirect -> fill fs.f_src env p0 len data (Store.index lhs p0)
        | WRowBuffer ->
            let b = ensure env.e_bufs.(fp.f_scratch) len in
            fill fs.f_src env p0 len b 0;
            buf_blit b 0 data (Store.index lhs p0) len
        | WFullBuffer -> assert false
      done;
      Zpl.Region.next_row region p0
    done;
    Zpl.Region.size region * n
  end

(** Runtime validation that every shifted read of [e] over [region] stays
    inside the referenced array's allocated storage — the dynamic
    counterpart of the checker's static shift-bounds test, needed for
    loop-variant regions. [alloc_of] maps an array id to its allocated
    region on this executor. *)
let check_refs ~(region : Zpl.Region.t) ~(alloc_of : int -> Zpl.Region.t)
    (e : Zpl.Prog.aexpr) =
  if not (Zpl.Region.is_empty region) then begin
    let rec go = function
      | Zpl.Prog.AConst _ | Zpl.Prog.AScalar _ | Zpl.Prog.AIndex _ -> ()
      | Zpl.Prog.ARef (aid, off) ->
          let target = Zpl.Region.shift region off in
          if not (Zpl.Region.subset target (alloc_of aid)) then
            Fmt.failwith
              "shifted read of array %d over %s reaches %s, outside allocated %s"
              aid
              (Zpl.Region.to_string region)
              (Zpl.Region.to_string target)
              (Zpl.Region.to_string (alloc_of aid))
      | Zpl.Prog.ABin (_, a, b) ->
          go a;
          go b
      | Zpl.Prog.AUn (_, a) -> go a
      | Zpl.Prog.ACall (_, args) -> List.iter go args
    in
    go e
  end

(** The distinct (array, shift) reads of an expression, extracted once
    at plan time so the per-execution bounds check — still needed on
    every execution for loop-variant regions — walks a short array
    instead of the whole AST. *)
type refs = (int * int array) array

let refs_of (e : Zpl.Prog.aexpr) : refs =
  let acc = ref [] in
  let rec go = function
    | Zpl.Prog.AConst _ | Zpl.Prog.AScalar _ | Zpl.Prog.AIndex _ -> ()
    | Zpl.Prog.ARef (aid, off) ->
        if not (List.exists (fun (a, o) -> a = aid && o = off) !acc) then
          acc := (aid, off) :: !acc
    | Zpl.Prog.ABin (_, a, b) ->
        go a;
        go b
    | Zpl.Prog.AUn (_, a) -> go a
    | Zpl.Prog.ACall (_, args) -> List.iter go args
  in
  go e;
  Array.of_list !acc

(** Allocation-free fast path of {!check_refs} over pre-extracted reads,
    against the allocations of the executor's stores. *)
let check_ref_bounds ~(region : Zpl.Region.t) ~(stores : Store.t array)
    (rs : refs) =
  if Array.length rs > 0 && not (Zpl.Region.is_empty region) then begin
    let rank = Zpl.Region.rank region in
    for i = 0 to Array.length rs - 1 do
      let aid, off = rs.(i) in
      if Array.length off <> rank then
        invalid_arg "Region.shift: rank mismatch";
      let alloc = Store.alloc stores.(aid) in
      let ok = ref (Zpl.Region.rank alloc = rank) in
      for d = 0 to rank - 1 do
        if !ok then begin
          let rd = Zpl.Region.dim region d
          and ad = Zpl.Region.dim alloc d in
          if
            rd.Zpl.Region.lo + off.(d) < ad.Zpl.Region.lo
            || rd.Zpl.Region.hi + off.(d) > ad.Zpl.Region.hi
          then ok := false
        end
      done;
      if not !ok then
        Fmt.failwith
          "shifted read of array %d over %s reaches %s, outside allocated %s"
          aid
          (Zpl.Region.to_string region)
          (Zpl.Region.to_string (Zpl.Region.shift region off))
          (Zpl.Region.to_string alloc)
    done
  end
