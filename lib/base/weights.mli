(** Flow weight assignments.

    The paper interprets the weight [r_f] of flow [f] as its reserved
    rate in bits/s once throughput and delay guarantees enter the
    picture (§2.2); before that it is just a share. Schedulers take a
    [Weights.t] at creation and look weights up per packet, so weights
    may also be changed between packets (used by the link-sharing
    examples). *)

type t

val uniform : float -> t
(** Every flow has the given weight. @raise Invalid_argument if not
    positive. *)

val of_list : ?default:float -> (Packet.flow * float) list -> t
(** Explicit per-flow weights; unlisted flows get [default] (default
    1.0), and a later binding of a flow overrides an earlier one. Ids
    in [\[0, Flow_table.dense_limit)] are looked up in an array sized
    by the largest listed one, so {!get} allocates nothing; a hashtable
    is built only for listed ids outside that range.
    @raise Invalid_argument on a non-positive weight. *)

val of_fun : (Packet.flow -> float) -> t
(** Fully dynamic assignment. The function must return positive
    values. *)

val get : t -> Packet.flow -> float
val set : t -> Packet.flow -> float -> t
(** Functional update (shadows [of_fun]-backed assignments too). *)

val total : t -> Packet.flow list -> float
(** Sum of weights over the given flows. *)
