(** SP-PIFO-style approximate-rank scheduler over SFQ start tags.

    Maps fixed-point SFQ ranks onto [banks] strict-priority FIFO banks
    with the SP-PIFO push-up/push-down bound adaptation (Alcoz et al.,
    NSDI'20): admission scans from the lowest-priority bank for the
    first bound <= rank and raises that bound to the rank; when even
    the top bank's bound exceeds the rank, the packet enters the top
    bank and all bounds drop by the overshoot. Service pops the first
    non-empty bank, FIFO within a bank.

    This is an {e approximation}: rank inversions occur, including
    within a flow, so this discipline carries no Thm-1 guarantee and is
    audited by the relaxed fairness oracle
    ({!Sfq_oracle.Monitor.fairness_measured}), which reports its
    measured unfairness against the exact-SFQ bound as a budget instead
    of a pass/fail verdict. With [banks = 1] it degenerates to plain
    FIFO; more banks buy a finer rank approximation at O(banks)
    admission cost.

    Tag bookkeeping (eq. 4, cached scale/rate, saturation) matches
    {!Programs.sfq} on {!Pifo_sched}, as do the zero-allocation steady
    path and the evict/close semantics of DESIGN.md §10. Flow ids must
    be non-negative; per-flow state is sized by the largest flow id
    seen. *)

open Sfq_base

type t

val create : ?banks:int -> ?frac_bits:int -> Weights.t -> t
(** [banks] defaults to 8. @raise Invalid_argument if [banks < 1]. *)

val enqueue : t -> now:float -> Packet.t -> unit
(** @raise Invalid_argument on a negative flow id. *)

val dequeue : t -> now:float -> Packet.t option

val dequeue_exn : t -> Packet.t
(** Non-allocating strict-priority pop. @raise Invalid_argument on an
    empty queue (pair with {!is_empty}). *)

val peek : t -> Packet.t option
val size : t -> int
val is_empty : t -> bool
val backlog : t -> Packet.flow -> int

val vtag : t -> int
val vtime : t -> float
val codec : t -> Tag.t

val banks : t -> int
val bounds : t -> int array
(** Snapshot of the current admission bounds, ascending by priority
    index (index 0 = highest priority). For tests and introspection. *)

val pushups : t -> int
(** Admissions that raised a bank bound. *)

val pushdowns : t -> int
(** Unavoidable inversions that triggered the collective bound drop. *)

val saturated : t -> bool
val headroom : t -> float

val evict : t -> Sched.victim -> Packet.flow -> Packet.t option
val close_flow : t -> Packet.flow -> Packet.t list

val sched : t -> Sched.t
(** The discipline view, named ["sp-pifo"]. *)
