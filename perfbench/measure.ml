(** Small statistics for the benchmark's reports. *)

let median (xs : float list) =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let geomean (xs : float list) =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sign a b = Int.compare (Float.compare a b) 0

(** Rank agreement with the paper. [rows] holds, for one benchmark,
    each experiment row's paper time ([None] where the paper has none)
    and simulated time. Over every pair of rows that both have a paper
    time, counts the pairs the simulation orders the same way as the
    paper (a tie agrees only with a tie): [(agreeing, pairs)]. *)
let rank_agree (rows : (float option * float) list) : int * int =
  let timed =
    Array.of_list
      (List.filter_map (fun (p, s) -> Option.map (fun p -> (p, s)) p) rows)
  in
  let agree = ref 0 and pairs = ref 0 in
  Array.iteri
    (fun i (pi, si) ->
      for j = i + 1 to Array.length timed - 1 do
        let pj, sj = timed.(j) in
        incr pairs;
        if sign pi pj = sign si sj then incr agree
      done)
    timed;
  (!agree, !pairs)
