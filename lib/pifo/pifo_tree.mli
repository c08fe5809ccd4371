(** Hierarchical SFQ as a tree of PIFOs (Sivaraman et al. §3 tree
    model).

    The float {!Sfq_core.Hsfq} walks each internal class's child list
    to find the minimum start tag; here every internal class {e is} a
    PIFO — an int-keyed heap of its active child edges ordered by
    (fixed-point start tag, activation sequence). A dequeue is one
    scheduling transaction per level, exactly the PIFO-tree model: pop
    the root PIFO's minimum edge, recurse into that child, and push
    the edge back with its next start tag if its subtree is still
    non-empty.

    Tag mechanics per child edge are {!Sfq_core.Hsfq}'s, in
    {!Tag} fixed point: on activation
    [S = max (v_parent, F_prev)]; on emission the head packet's length
    fixes [F = S + l/w] and [v_parent <- S]; a still-backlogged child
    re-enters at [S' = F]. A class whose subtree empties leaves its
    parent's [v] frozen at the emission's start tag; only the root —
    where the real server genuinely polls an empty queue — bumps [v]
    to the largest serviced finish tag when idle. On dyadic workloads
    the tags are exact and the dequeue order matches the float
    hierarchy packet-for-packet (the equivalence harness checks this).

    Leaves hold any inner {!Sfq_base.Sched.t} — in the HSFQ
    composition, {!Pifo_sched} instances running the
    {!Programs.sfq} rank program. *)

open Sfq_base

type t
type class_

val create : ?frac_bits:int -> unit -> t
val root : t -> class_

val add_class : t -> parent:class_ -> weight:float -> class_
(** New internal class (a PIFO over its children).
    @raise Invalid_argument if [parent] is a leaf or [weight <= 0]. *)

val add_leaf : t -> parent:class_ -> weight:float -> Sched.t -> class_
(** New leaf class with the given inner discipline. *)

val set_classifier : t -> (Packet.t -> class_) -> unit
(** Route packets to leaves. Required before the first [enqueue]. *)

val classifier_by_flow : (Packet.flow * class_) list -> Packet.t -> class_
(** Convenience classifier: flow-id table.
    @raise Not_found for an unlisted flow. *)

val enqueue : t -> now:float -> Packet.t -> unit
val dequeue : t -> now:float -> Packet.t option
val peek : t -> Packet.t option
val size : t -> int
val backlog : t -> Packet.flow -> int
val sched : t -> Sched.t

val class_vtime : t -> class_ -> float
(** Decoded virtual time of an internal class (0 for leaves). *)

val class_id : t -> class_ -> int
(** Stable small-int identity: 0 for the root, then creation order.
    @raise Invalid_argument for a class of another hierarchy. *)
