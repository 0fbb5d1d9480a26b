(** Halo (fringe) exchange arithmetic: which rectangles a processor sends
    to and receives from its neighbors to satisfy a shifted reference.

    A transfer for array [A] with mesh offset [(d0, d1)] fills, on each
    processor, the ghost cells [shift(owned, d) \ owned]. These cells lie
    in the partition boxes of up to three neighbors (e.g. a diagonal shift
    needs a row slab, a column slab and a corner). Symmetrically the
    processor sends the pieces its [-d]-side neighbors need. *)

type piece = {
  partner : int;  (** the other processor *)
  rect : Zpl.Region.t;  (** 2-D rectangle in global coordinates *)
}

let sign v = compare v 0

(** The part of the declared region of [info] owned by [p] under [l]. *)
let owned_of (l : Layout.t) (info : Zpl.Prog.array_info) p : Zpl.Region.t =
  let b = Layout.box l p in
  let decl = info.a_region in
  let two = Zpl.Region.inter [| decl.(0); decl.(1) |] b in
  if info.a_rank = 2 then two else [| two.(0); two.(1); decl.(2) |]

let two_d (r : Zpl.Region.t) : Zpl.Region.t = [| r.(0); r.(1) |]

(** Neighbor mesh-coordinate deltas that can own ghost cells for offset
    [(d0, d1)]: row-side, column-side, diagonal — whichever components are
    nonzero. *)
let neighbor_deltas (d0, d1) =
  let sr = sign d0 and sc = sign d1 in
  List.filter
    (fun (a, b) -> (a, b) <> (0, 0))
    [ (sr, 0); (0, sc); (sr, sc) ]
  |> List.sort_uniq compare

(** Rectangles [p] must receive for array [info] shifted by [off]:
    [inter(shift(owned, off), partner's owned box)] per candidate
    neighbor. Empty when [p] owns nothing of the array. *)
let recv_pieces (l : Layout.t) (info : Zpl.Prog.array_info) ~p ~off : piece list =
  let own = two_d (owned_of l info p) in
  if Zpl.Region.is_empty own then []
  else
    let needed = Zpl.Region.shift own [| fst off; snd off |] in
    let r, c = Layout.coords l p in
    neighbor_deltas off
    |> List.filter_map (fun (dr, dc) ->
           match Layout.proc_at l ~row:(r + dr) ~col:(c + dc) with
           | None -> None
           | Some q ->
               let rect = Zpl.Region.inter needed (two_d (owned_of l info q)) in
               if Zpl.Region.is_empty rect then None else Some { partner = q; rect })

(** Rectangles [p] must send for array [info] shifted by [off]: the pieces
    each [-off]-side neighbor needs from [p]'s owned box. *)
let send_pieces (l : Layout.t) (info : Zpl.Prog.array_info) ~p ~off : piece list =
  let own = two_d (owned_of l info p) in
  if Zpl.Region.is_empty own then []
  else
    let r, c = Layout.coords l p in
    neighbor_deltas off
    |> List.filter_map (fun (dr, dc) ->
           match Layout.proc_at l ~row:(r - dr) ~col:(c - dc) with
           | None -> None
           | Some q ->
               let qown = two_d (owned_of l info q) in
               if Zpl.Region.is_empty qown then None
               else
                 let qneeded = Zpl.Region.shift qown [| fst off; snd off |] in
                 let rect = Zpl.Region.inter qneeded own in
                 if Zpl.Region.is_empty rect then None
                 else Some { partner = q; rect })

(** Cells a piece moves, accounting for the local (undistributed) third
    dimension of rank-3 arrays. *)
let piece_cells (info : Zpl.Prog.array_info) (pc : piece) =
  let plane = Zpl.Region.size pc.rect in
  if info.a_rank = 2 then plane
  else plane * Zpl.Region.range_size (Zpl.Region.dim info.a_region 2)

(** Extend a 2-D piece rectangle to the array's full rank, for the wire
    plans' blits. *)
let full_rect (info : Zpl.Prog.array_info) (pc : piece) : Zpl.Region.t =
  if info.a_rank = 2 then pc.rect
  else [| pc.rect.(0); pc.rect.(1); Zpl.Region.dim info.a_region 2 |]

(** One partner's share of a transfer on one processor: the member
    rectangles in canonical order. *)
type partner_pieces = {
  pp_partner : int;
  pp_rects : (int * Zpl.Region.t) list;
      (** (array id, full-rank rect), in member-array order *)
  pp_cells : int;  (** total cells over all member rects *)
}

(** Group the send or receive pieces of a (possibly combined) transfer by
    partner. The rect order within a partner — member arrays in [arrays]
    order, at most one rect per (array, partner) pair since distinct
    neighbor deltas reach distinct processors — is the {e canonical
    message layout}: the sender packs and the receiver unpacks staging
    buffers in exactly this order, so both sides of a message agree on
    every member piece's offset by construction. The engine computes
    only the [`Recv] sides and derives the [`Send] ones with
    {!send_sides}. *)
let partner_sides (l : Layout.t) (prog : Zpl.Prog.t) ~(arrays : int list)
    ~(off : int * int) ~p ~(dir : [ `Send | `Recv ]) : partner_pieces list =
  let triples =
    List.concat_map
      (fun aid ->
        let info = prog.Zpl.Prog.arrays.(aid) in
        let pieces =
          match dir with
          | `Recv -> recv_pieces l info ~p ~off
          | `Send -> send_pieces l info ~p ~off
        in
        List.map
          (fun pc -> (pc.partner, aid, full_rect info pc, piece_cells info pc))
          pieces)
      arrays
  in
  let partners =
    List.sort_uniq compare (List.map (fun (q, _, _, _) -> q) triples)
  in
  List.map
    (fun q ->
      let mine = List.filter (fun (q', _, _, _) -> q' = q) triples in
      { pp_partner = q;
        pp_rects = List.map (fun (_, aid, rect, _) -> (aid, rect)) mine;
        pp_cells = List.fold_left (fun n (_, _, _, c) -> n + c) 0 mine })
    partners

(** Every processor's send sides, derived from all receive sides
    ([recvs.(q)] is [partner_sides ~dir:`Recv ~p:q]) instead of
    recomputed. A send piece is the exact dual of its receiver's piece
    ({!send_pieces} recomputes the receiver's geometry to find it), so
    the side [p] sends to [q] is [q]'s receive side from [p] with the
    partner swapped: same rects in the same member order, same cells.
    Walking the receivers in ascending rank order lists each sender's
    sides in ascending partner order — equal to
    [partner_sides ~dir:`Send ~p], order included. *)
let send_sides (recvs : partner_pieces list array) : partner_pieces list array =
  let sends = Array.make (Array.length recvs) [] in
  Array.iteri
    (fun q sides ->
      List.iter
        (fun pp ->
          let p = pp.pp_partner in
          sends.(p) <- { pp with pp_partner = q } :: sends.(p))
        sides)
    recvs;
  Array.map List.rev sends
