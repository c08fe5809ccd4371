(** Flow-id allocation with recycling: the dynamic-lifecycle front end.

    Every per-flow structure in this library ({!Flow_table} dense
    arrays, {!Sfq_sched.Flow_heap} rings) is indexed by flow id and
    sized by the largest id ever seen, so a million-flow churn run with
    monotonically increasing ids would grow without bound even though
    only a handful of flows are live at once. The registry issues ids
    from a LIFO free list of closed ids, falling back to a fresh id
    only when none is free: {!high_water} — and with it every dense
    per-flow array — is bounded by the {e peak concurrent} flow count,
    not the total number of flows ever opened.

    The free list is a LIFO stack of ints: the next id issued is always
    the most recently closed one. That order decides which id every
    recycled flow gets, so a run's digests depend on it. Opening and
    closing allocate nothing once the stack has grown to the
    high-water mark.

    Scheduler-state hygiene is the other half of the contract: callers
    must invoke {!Sched.t.close_flow} on the scheduler when closing the
    id here, so the recycled id re-enters with [F(p^0) = 0] and eq. 4
    admits it at [S = max(v(t), 0) = v(t)] — the paper's §2 argument
    for why flows can join and leave without a global reset. *)

type t

val create : unit -> t

val open_flow : t -> Packet.flow
(** The most recently closed id if any, else a fresh one. *)

val close_flow : t -> Packet.flow -> unit
(** Return the id to the free list.
    @raise Invalid_argument if the id is not currently open. *)

val is_open : t -> Packet.flow -> bool

val live : t -> int
(** Currently open flows. *)

val peak_live : t -> int
(** Maximum of {!live} over the registry's lifetime. *)

val opened : t -> int
(** Total [open_flow] calls ever. *)

val high_water : t -> int
(** Smallest never-issued id = size bound for dense per-flow state.
    Equals {!peak_live} when every close recycles (the bounded-memory
    invariant the churn-stress CI job asserts). *)
