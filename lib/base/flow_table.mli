(** Per-flow mutable state, keyed by {!Packet.flow}.

    Creates missing entries from a [default] function — every scheduler
    keeps per-flow tags/queues and must treat a never-seen flow as
    freshly initialized, per the paper's convention [F(p_f^0) = 0].

    Flow ids are dense small non-negative ints in practice, so lookups
    for ids in [0, 2^20) are a direct array index (O(1), no hashing);
    other ids transparently fall back to a hashtable. [iter]/[fold]
    visit dense flows in ascending order, then fallback flows in
    unspecified order — as before, only [flows] guarantees an order. *)

type 'a t

val dense_limit : int
(** [2^20]: ids in [\[0, dense_limit)] are array-indexed. *)

val create : default:(Packet.flow -> 'a) -> 'a t
val find : 'a t -> Packet.flow -> 'a
(** Creates (and remembers) the default entry when absent. *)

val find_opt : 'a t -> Packet.flow -> 'a option
(** Does not create the entry. *)

val set : 'a t -> Packet.flow -> 'a -> unit
val remove : 'a t -> Packet.flow -> unit
val mem : 'a t -> Packet.flow -> bool
val iter : 'a t -> f:(Packet.flow -> 'a -> unit) -> unit
val fold : 'a t -> init:'b -> f:(Packet.flow -> 'a -> 'b -> 'b) -> 'b
val flows : 'a t -> Packet.flow list
(** Flows with a (created) entry, ascending. *)

val length : 'a t -> int
val clear : 'a t -> unit

val dense_capacity : 'a t -> int
(** Allocated dense-array slots — grows with the largest id ever seen,
    never shrinks. Exposed so churn tests can assert that id recycling
    ({!Flow_registry}) keeps it bounded by peak concurrency. *)
