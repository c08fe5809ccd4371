(** Int-keyed sibling of {!Flow_heap} for the int-rank PIFO runtime.

    Same structure — one FIFO ring per flow, heads-only min-heap, O(log
    F) pops flat in queued packets, one sift per pop of a flow that
    stays backlogged — but every ordering field is an int
    (a {!Sfq_pifo.Tag} scaled virtual time, an order-preserving int
    encoding of the tie value, and the push-order uid), and the hot
    dequeue path is allocation-free: {!pop_exn} returns the payload
    directly and deposits the removed entry's ordering fields in
    scratch slots readable via {!last_key} / {!last_aux} / {!last_uid}
    / {!last_flow}.

    Tie order is FIFO-stable exactly as in {!Flow_heap}: pop order is
    ascending [(key, tie, uid)] with uids assigned in push order, so
    entries equal on [(key, tie)] leave in arrival order. The
    differential suite relies on this matching the float heap's order.

    A "flow" here is the caller's key, any non-negative int that groups
    entries into one FIFO: {!Sfq_pifo.Pifo_sched} passes its link-local
    flow slots, and {!popped.flow} and {!last_flow} return that key. The ring table
    is a {!Sfq_base.Flow_table}, dense up to the largest key, so compact
    keys keep it compact. An idle flow holds no ring unless its ring
    grew past 8 slots (see {!ring_capacity}).

    Precondition: keys pushed to the {e same flow} must be
    non-decreasing, and [tie] must be constant per flow while the flow
    is backlogged. *)

open Sfq_base

type 'a t

type 'a popped = {
  key : int;  (** ordering tag the entry was pushed with *)
  aux : int;  (** caller's auxiliary int (e.g. SFQ's finish tag) *)
  uid : int;  (** push-order number, unique across the whole store *)
  flow : Packet.flow;
  value : 'a;
}

val create : ?capacity:int -> unit -> 'a t
(** [capacity] pre-sizes the flow-head heap (one slot per backlogged
    flow, not per packet). *)

val push : 'a t -> flow:Packet.flow -> key:int -> aux:int -> tie:int -> 'a -> unit
(** Append to [flow]'s FIFO. [tie] refines ordering among equal keys of
    different flows (ascending, then push order); [aux] is stored and
    returned untouched ([aux] is required rather than optional because
    an optional int argument boxes at every call site). Allocation-free
    once the flow's ring and the heap have reached peak capacity. *)

val pop_exn : 'a t -> 'a
(** Remove the entry with the smallest [(key, tie, uid)] and return its
    payload without allocating. Its ordering fields are left in the
    scratch slots ({!last_key}, {!last_aux}, {!last_uid}, {!last_flow})
    until the next pop. @raise Invalid_argument on an empty store. *)

val last_key : 'a t -> int
(** Key of the entry removed by the most recent {!pop_exn}. *)

val last_aux : 'a t -> int
(** Aux of the entry removed by the most recent {!pop_exn}. *)

val last_uid : 'a t -> int
(** Uid of the entry removed by the most recent {!pop_exn}. *)

val last_flow : 'a t -> Packet.flow
(** Flow of the entry removed by the most recent {!pop_exn}. *)

val pop : 'a t -> 'a popped option
(** Allocating convenience wrapper over {!pop_exn}. *)

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
    O(log F) when [flow] is the next to serve (its entry is the heap
    root), else an O(F) heap scan — eviction is a buffer-overflow path,
    not the per-packet hot path. *)

val evict_back : 'a t -> Packet.flow -> 'a popped option
(** Remove [flow]'s newest queued entry (its tail). O(1) unless the
    flow empties (then its heap entry is removed: O(log F) at the
    root, else O(F)). *)

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
