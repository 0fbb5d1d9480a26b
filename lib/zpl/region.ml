(** Dense rectangular index regions of rank 1..3.

    A region is an array of inclusive [lo, hi] ranges, one per dimension.
    Regions are the unit of iteration for whole-array statements and the
    declared extent of parallel arrays. *)

type range = { lo : int; hi : int } [@@deriving show, eq, ord]

type t = range array [@@deriving show, eq, ord]

let range lo hi = { lo; hi }

let make bounds = Array.of_list (List.map (fun (lo, hi) -> { lo; hi }) bounds)

let rank (r : t) = Array.length r

let range_size { lo; hi } = if hi < lo then 0 else hi - lo + 1

let size (r : t) = Array.fold_left (fun acc rg -> acc * range_size rg) 1 r

(* Explicit loops, not [Array.exists]/[Array.for_all2]: those build a
   closure per call, and the simulator tests emptiness and containment
   on every kernel execution. *)
let rec empty_from (r : t) d =
  d < Array.length r && (r.(d).hi < r.(d).lo || empty_from r (d + 1))

let is_empty (r : t) = empty_from r 0

let dim (r : t) i = r.(i)

(** Intersection; raises [Invalid_argument] on rank mismatch. *)
let inter (a : t) (b : t) : t =
  if rank a <> rank b then invalid_arg "Region.inter: rank mismatch";
  Array.map2 (fun x y -> { lo = max x.lo y.lo; hi = min x.hi y.hi }) a b

(** Smallest region containing both arguments. *)
let hull (a : t) (b : t) : t =
  if rank a <> rank b then invalid_arg "Region.hull: rank mismatch";
  if is_empty a then b
  else if is_empty b then a
  else Array.map2 (fun x y -> { lo = min x.lo y.lo; hi = max x.hi y.hi }) a b

(** Translate a region by an offset vector. *)
let shift (r : t) (off : int array) : t =
  if rank r <> Array.length off then invalid_arg "Region.shift: rank mismatch";
  Array.mapi (fun i rg -> { lo = rg.lo + off.(i); hi = rg.hi + off.(i) }) r

let contains_point (r : t) (p : int array) =
  rank r = Array.length p
  && Array.for_all (fun i -> r.(i).lo <= p.(i) && p.(i) <= r.(i).hi)
       (Array.init (rank r) Fun.id)

(** [subset a b] is true when every point of [a] lies in [b]. *)
let rec within_from (a : t) (b : t) d =
  d >= Array.length a
  || (a.(d).lo >= b.(d).lo && a.(d).hi <= b.(d).hi && within_from a b (d + 1))

let subset (a : t) (b : t) = is_empty a || (rank a = rank b && within_from a b 0)

(** Iterate all points in row-major order. The callback receives a scratch
    buffer that is reused between calls; copy it if you keep it. The
    rank-1/2/3 paths are hoisted into nested [for] loops with bounds read
    once, so low-rank regions pay no generic odometer recursion. *)
let iter (r : t) (f : int array -> unit) =
  if not (is_empty r) then
    match Array.length r with
    | 1 ->
        let p = [| 0 |] in
        for i = r.(0).lo to r.(0).hi do
          p.(0) <- i;
          f p
        done
    | 2 ->
        let lo1 = r.(1).lo and hi1 = r.(1).hi in
        let p = [| 0; 0 |] in
        for i = r.(0).lo to r.(0).hi do
          p.(0) <- i;
          for j = lo1 to hi1 do
            p.(1) <- j;
            f p
          done
        done
    | 3 ->
        let lo1 = r.(1).lo and hi1 = r.(1).hi in
        let lo2 = r.(2).lo and hi2 = r.(2).hi in
        let p = [| 0; 0; 0 |] in
        for i = r.(0).lo to r.(0).hi do
          p.(0) <- i;
          for j = lo1 to hi1 do
            p.(1) <- j;
            for k = lo2 to hi2 do
              p.(2) <- k;
              f p
            done
          done
        done
    | n ->
        (* generic odometer for hypothetical higher ranks *)
        let p = Array.map (fun rg -> rg.lo) r in
        let rec step d =
          if d < 0 then ()
          else if p.(d) < r.(d).hi then begin
            p.(d) <- p.(d) + 1;
            for k = d + 1 to n - 1 do
              p.(k) <- r.(k).lo
            done;
            f p;
            step (n - 1)
          end
          else step (d - 1)
        in
        f p;
        step (n - 1)

(** Row cursor, for hot loops that must not build a closure per
    traversal: [rows r] rows of [range_size r.(rank - 1)] cells each;
    [first_row r p] writes the first row's start point into [p] (length
    [rank r]) and [next_row r p] advances it to the next row's start in
    row-major order. *)
let rows (r : t) =
  if is_empty r then 0
  else begin
    let n = ref 1 in
    for d = 0 to Array.length r - 2 do
      n := !n * range_size r.(d)
    done;
    !n
  end

let first_row (r : t) (p : int array) =
  for d = 0 to Array.length r - 1 do
    p.(d) <- r.(d).lo
  done

let next_row (r : t) (p : int array) =
  let d = ref (Array.length r - 2) in
  while !d >= 0 do
    let k = !d in
    if p.(k) < r.(k).hi then begin
      p.(k) <- p.(k) + 1;
      d := -1
    end
    else begin
      p.(k) <- r.(k).lo;
      d := k - 1
    end
  done

(** Iterate the region row by row: the callback receives the row's start
    point (innermost coordinate at its [lo]) and the row length. The point
    buffer is reused between calls; copy it if retained. A rank-1 region
    is a single row. *)
let iter_rows (r : t) (f : int array -> int -> unit) =
  let n = rows r in
  if n > 0 then begin
    let p = Array.make (Array.length r) 0 in
    let len = range_size r.(Array.length r - 1) in
    first_row r p;
    for _ = 1 to n do
      f p len;
      next_row r p
    done
  end

let fold (r : t) (f : 'a -> int array -> 'a) (init : 'a) =
  let acc = ref init in
  iter r (fun p -> acc := f !acc p);
  !acc

let to_string (r : t) =
  r
  |> Array.to_list
  |> List.map (fun { lo; hi } -> Printf.sprintf "%d..%d" lo hi)
  |> String.concat ", "
  |> Printf.sprintf "[%s]"
