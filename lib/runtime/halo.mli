(** Halo (fringe) exchange arithmetic: which rectangles a processor sends
    to and receives from its neighbors to satisfy a shifted reference. A
    transfer for array [A] with mesh offset [(d0, d1)] fills, on each
    processor, the ghost cells [shift(owned, d) \ owned], which lie in the
    partition boxes of up to three neighbors (row slab, column slab,
    corner). *)

type piece = {
  partner : int;  (** the other processor *)
  rect : Zpl.Region.t;  (** 2-D rectangle in global coordinates *)
}

val sign : int -> int

(** The part of [info]'s declared region owned by a processor (full rank;
    dimension 2 of rank-3 arrays is kept whole). *)
val owned_of : Layout.t -> Zpl.Prog.array_info -> int -> Zpl.Region.t

(** First two dimensions of a region. *)
val two_d : Zpl.Region.t -> Zpl.Region.t

(** Candidate neighbor mesh deltas for an offset: row-side, column-side,
    diagonal — whichever components are nonzero. *)
val neighbor_deltas : int * int -> (int * int) list

(** Rectangles processor [p] must receive for [info] shifted by [off];
    empty at mesh edges and when [p] owns nothing of the array. *)
val recv_pieces :
  Layout.t -> Zpl.Prog.array_info -> p:int -> off:int * int -> piece list

(** Rectangles processor [p] must send — the exact duals of its
    [-off]-side neighbors' receive pieces. *)
val send_pieces :
  Layout.t -> Zpl.Prog.array_info -> p:int -> off:int * int -> piece list

(** Cells a piece moves, including the local third dimension of rank-3
    arrays. *)
val piece_cells : Zpl.Prog.array_info -> piece -> int

(** Extend a piece's 2-D rectangle to the array's full rank, for the
    wire plans' blits. *)
val full_rect : Zpl.Prog.array_info -> piece -> Zpl.Region.t

(** One partner's share of a transfer on one processor. *)
type partner_pieces = {
  pp_partner : int;
  pp_rects : (int * Zpl.Region.t) list;
      (** (array id, full-rank rect), in member-array order *)
  pp_cells : int;  (** total cells over all member rects *)
}

(** Group the send or receive pieces of a (possibly combined) transfer by
    partner. The rect order within a partner is the canonical message
    layout: sender and receiver pack/unpack staging buffers in this order,
    so both sides agree on every member piece's offset by construction.
    The engine computes only the [`Recv] sides and derives the [`Send]
    ones with {!send_sides}. *)
val partner_sides :
  Layout.t ->
  Zpl.Prog.t ->
  arrays:int list ->
  off:int * int ->
  p:int ->
  dir:[ `Send | `Recv ] ->
  partner_pieces list

(** [send_sides recvs], where [recvs.(q)] is
    [partner_sides ~dir:`Recv ~p:q] for every processor [q], derives
    every processor's send sides without recomputing any geometry: the
    side [p] sends to [q] is [q]'s receive side from [p] with the
    partner swapped. Each list is in ascending partner order, so
    [(send_sides recvs).(p)] equals [partner_sides ~dir:`Send ~p]. *)
val send_sides : partner_pieces list array -> partner_pieces list array
