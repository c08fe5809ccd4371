(** Tag-ordered packet store with per-flow FIFOs: the paper's O(log F)
    structure (§2.2, Table 1).

    Every discipline in this library assigns tags that are
    {e non-decreasing within a flow} (eqs. 4–5 and their SCFQ / Virtual
    Clock / EDD analogues), so the globally smallest queued tag is
    always carried by the {e head} packet of some flow. Exploiting
    that, this container keeps one FIFO ring per flow and enters only
    each flow's head in a {!Sfq_util.Fheap}; a dequeue pops the heap
    and promotes the flow's successor into the popped head's place,
    one sift down ({!Sfq_util.Fheap.replace_root}), or removes the
    head if the flow drained. Heap operations therefore cost
    O(log F) in the number of {e backlogged flows} — flat in the number
    of queued packets — while pushes into a backlogged flow are O(1)
    ring appends. Pop order is exactly ascending [(key, tie, uid)]
    over all queued entries, bit-for-bit what a single global heap
    over every packet would produce (uids are assigned in push order).

    Precondition: keys pushed to the {e same flow} must be
    non-decreasing, and [tie] must be constant per flow while the flow
    is backlogged; violating either reorders that flow relative to the
    global-heap semantics. Keys and ties must not be NaN. *)

open Sfq_base

type 'a t

type 'a popped = {
  key : float;  (** ordering tag the entry was pushed with *)
  aux : float;  (** caller's auxiliary float (e.g. SFQ's finish tag) *)
  uid : int;  (** push-order number, unique across the whole store *)
  flow : Packet.flow;
  value : 'a;
}

val create : ?capacity:int -> unit -> 'a t
(** [capacity] pre-sizes the flow-head heap (one slot per backlogged
    flow, not per packet). *)

val push : 'a t -> flow:Packet.flow -> key:float -> ?aux:float -> tie:float -> 'a -> unit
(** Append to [flow]'s FIFO. [tie] refines ordering among equal keys of
    different flows (ascending, then push order); [aux] (default 0.)
    is stored and returned untouched. *)

val pop : 'a t -> 'a popped option
(** Remove and return the entry with the smallest [(key, tie, uid)]. *)

val peek : 'a t -> 'a popped option
(** Like {!pop} without removing. *)

val size : 'a t -> int
(** Total queued entries across all flows. *)

val is_empty : 'a t -> bool

val backlog : 'a t -> Packet.flow -> int
(** Queued entries of one flow. *)

val active_flows : 'a t -> int
(** Number of backlogged flows (= current heap size). *)

val evict_front : 'a t -> Packet.flow -> 'a popped option
(** Remove [flow]'s oldest queued entry (its head), promoting the
    successor into the heap; [None] if the flow has nothing queued.
    O(F) heap scan — eviction is a buffer-overflow path, not the
    per-packet hot path. *)

val evict_back : 'a t -> Packet.flow -> 'a popped option
(** Remove [flow]'s newest queued entry (its tail). O(1) unless the
    flow empties (then its heap entry is removed, O(F)). *)

val flush_flow : 'a t -> Packet.flow -> 'a popped list
(** Remove every queued entry of [flow], oldest first, and take its
    ring away, grown or not (see {!ring_capacity}): the flow then
    behaves as fresh (backlog 0, FIFO, the pop order of a new store).
    Returns [[]] for an unknown or empty flow. *)

val ring_capacity : 'a t -> Packet.flow -> int
(** Allocated ring slots for [flow] (0 when it holds no ring). The pop
    or eviction that empties a flow's queue takes its 8-slot ring away,
    so an idle flow holds no ring — only its caller-side state, such as
    SFQ's finish tag (eq. 4). The ring goes to a spare pool, cleared,
    and the next flow that needs a ring takes it from there, so a churn
    of short-lived flows allocates no rings. A ring that grew past its
    initial 8 slots stays with its flow when the queue empties, so a
    deep backlog that drains now and then is not regrown each time;
    {!flush_flow} takes it away and releases its arrays, so a burst's
    peak capacity is not pinned past the flow's life. Exposed so churn
    tests can assert all of this. *)
