(** Replicated scalar values and scalar-expression evaluation. Every
    processor evaluates scalar statements identically, so control flow is
    SPMD-consistent by construction. *)

type value = VFloat of float | VInt of int | VBool of bool
[@@deriving show, eq]

let[@inline] as_float = function
  | VFloat f -> f
  | VInt i -> float_of_int i
  | VBool _ -> invalid_arg "boolean used as number"

let as_int = function
  | VInt i -> i
  | VFloat f when Float.is_integer f -> int_of_float f
  | VFloat _ -> invalid_arg "non-integral float used as int"
  | VBool _ -> invalid_arg "boolean used as int"

let[@inline] as_bool = function
  | VBool b -> b
  | VInt _ | VFloat _ -> invalid_arg "number used as boolean"

let default_of = function
  | Zpl.Ast.TFloat -> VFloat 0.0
  | Zpl.Ast.TInt -> VInt 0
  | Zpl.Ast.TBool -> VBool false

(** [resolve1 name] resolves a unary intrinsic to its function once, so
    hot loops pay no per-call string match. *)
let resolve1 name : float -> float =
  match name with
  | "abs" -> Float.abs
  | "sqrt" -> sqrt
  | "exp" -> exp
  | "ln" | "log" -> log
  | "sin" -> sin
  | "cos" -> cos
  | "tan" -> tan
  | "floor" -> Float.floor
  | "sign" -> fun x -> if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0
  | _ -> invalid_arg ("unknown unary intrinsic " ^ name)

let apply1 name (x : float) : float = (resolve1 name) x

(** Binary counterpart of {!resolve1}. *)
let resolve2 name : float -> float -> float =
  match name with
  | "min" -> Float.min
  | "max" -> Float.max
  | _ -> invalid_arg ("unknown binary intrinsic " ^ name)

let apply2 name (x : float) (y : float) : float = (resolve2 name) x y

(** A mutable environment for one (simulated or sequential) processor. *)
type env = value array

let make_env (p : Zpl.Prog.t) : env =
  Array.map (fun (s : Zpl.Prog.scalar_info) -> default_of s.s_ty) p.scalars

(* Top-level and closure-free: the simulator evaluates a scalar statement
   or branch condition on every execution, so nothing here may build a
   closure per call — only the result value is allocated. *)
let binop (op : Zpl.Ast.binop) (va : value) (vb : value) : value =
  match (op, va, vb) with
  | Zpl.Ast.Add, VInt x, VInt y -> VInt (x + y)
  | Zpl.Ast.Sub, VInt x, VInt y -> VInt (x - y)
  | Zpl.Ast.Mul, VInt x, VInt y -> VInt (x * y)
  | Zpl.Ast.Add, _, _ -> VFloat (as_float va +. as_float vb)
  | Zpl.Ast.Sub, _, _ -> VFloat (as_float va -. as_float vb)
  | Zpl.Ast.Mul, _, _ -> VFloat (as_float va *. as_float vb)
  | Zpl.Ast.Div, _, _ -> VFloat (as_float va /. as_float vb)
  | Zpl.Ast.Pow, _, _ -> VFloat (Float.pow (as_float va) (as_float vb))
  | Zpl.Ast.Lt, _, _ -> VBool (as_float va < as_float vb)
  | Zpl.Ast.Le, _, _ -> VBool (as_float va <= as_float vb)
  | Zpl.Ast.Gt, _, _ -> VBool (as_float va > as_float vb)
  | Zpl.Ast.Ge, _, _ -> VBool (as_float va >= as_float vb)
  | Zpl.Ast.Eq, _, _ -> VBool (as_float va = as_float vb)
  | Zpl.Ast.Ne, _, _ -> VBool (as_float va <> as_float vb)
  | Zpl.Ast.And, _, _ -> VBool (as_bool va && as_bool vb)
  | Zpl.Ast.Or, _, _ -> VBool (as_bool va || as_bool vb)

let rec eval_env (env : env) (e : Zpl.Prog.sexpr) : value =
  match e with
  | Zpl.Prog.SFloat f -> VFloat f
  | Zpl.Prog.SInt i -> VInt i
  | Zpl.Prog.SBool b -> VBool b
  | Zpl.Prog.SVar id -> env.(id)
  | Zpl.Prog.SUn (Zpl.Ast.Neg, a) -> (
      match eval_env env a with
      | VInt i -> VInt (-i)
      | VFloat f -> VFloat (-.f)
      | VBool _ -> invalid_arg "cannot negate a boolean")
  | Zpl.Prog.SUn (Zpl.Ast.Not, a) -> VBool (not (as_bool (eval_env env a)))
  | Zpl.Prog.SBin (op, a, b) ->
      let va = eval_env env a and vb = eval_env env b in
      binop op va vb
  | Zpl.Prog.SCall (f, [ a ]) -> VFloat (apply1 f (as_float (eval_env env a)))
  | Zpl.Prog.SCall (f, [ a; b ]) ->
      VFloat (apply2 f (as_float (eval_env env a)) (as_float (eval_env env b)))
  | Zpl.Prog.SCall (f, _) -> invalid_arg ("bad arity for intrinsic " ^ f)

let eval_bool (env : env) e = as_bool (eval_env env e)

let eval_int_bound (env : env) (b : Zpl.Prog.bound) =
  match b.bvar with
  | None -> b.base
  | Some v -> b.base + as_int env.(v)

let eval_dregion (env : env) (dr : Zpl.Prog.dregion) : Zpl.Region.t =
  Zpl.Prog.eval_dregion (fun v -> as_int env.(v)) dr

(** Shared empty result of {!clip_dregion}; never mutated. *)
let no_cells : Zpl.Region.t = [| Zpl.Region.range 0 (-1) |]

let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

let clip_dregion (env : env) (dr : Zpl.Prog.dregion) ~(within : Zpl.Region.t)
    : Zpl.Region.t =
  let n = Array.length dr and w = Array.length within in
  if n < 2 || n > 3 || w < 2 || w > n then
    invalid_arg "Values.clip_dregion: only rank 2 and 3 regions are supported";
  (* every bound is evaluated, in dimension order, before any decision,
     so a bad scalar raises exactly as [eval_dregion] would *)
  let l0, h0 = dr.(0) and l1, h1 = dr.(1) in
  let lo0 = eval_int_bound env l0 in
  let hi0 = eval_int_bound env h0 in
  let lo1 = eval_int_bound env l1 in
  let hi1 = eval_int_bound env h1 in
  let lo2 = if n = 3 then eval_int_bound env (fst dr.(2)) else 0 in
  let hi2 = if n = 3 then eval_int_bound env (snd dr.(2)) else 0 in
  let c0 = within.(0) and c1 = within.(1) in
  let lo0 = imax lo0 c0.Zpl.Region.lo and hi0 = imin hi0 c0.Zpl.Region.hi in
  let lo1 = imax lo1 c1.Zpl.Region.lo and hi1 = imin hi1 c1.Zpl.Region.hi in
  let lo2 = if w = 3 then imax lo2 within.(2).Zpl.Region.lo else lo2 in
  let hi2 = if w = 3 then imin hi2 within.(2).Zpl.Region.hi else hi2 in
  if hi0 < lo0 || hi1 < lo1 || hi2 < lo2 then no_cells
  else if n = 2 then [| Zpl.Region.range lo0 hi0; Zpl.Region.range lo1 hi1 |]
  else
    [| Zpl.Region.range lo0 hi0;
       Zpl.Region.range lo1 hi1;
       Zpl.Region.range lo2 hi2 |]
