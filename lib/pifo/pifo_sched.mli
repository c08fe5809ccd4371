(** The shared PIFO runtime: one push-in-first-out queue serving any
    {!Rank_program}.

    The runtime owns everything that is {e not} discipline logic —
    which, per Alcoz & Vass et al. ("Everything Matters in Programmable
    Packet Scheduling"), is where scheduler correctness actually
    lives: admission (rank clamping at the {!Tag} saturation rail —
    ranks saturate, never wrap), FIFO-stable tie resolution (the
    {!Sfq_sched.Iflow_heap} [(key, tie, uid)] contract, with per-flow
    tie values cached at activation), the evict/close lifecycle
    (DESIGN.md §10), and the optional two-stage shaper for
    {!Rank_program.shaped} disciplines.

    Flow slots: a flow gets a small link-local slot
    ({!Sfq_util.Slot_map}) on its first enqueue and gives it up in
    {!close_flow}, or earlier, once it has nothing queued and its
    program state is stale ({!Rank_program.t.stale}); a freed slot is
    the next one handed out. The tie cache, the shaped backlog counts,
    the [Iflow_heap] rings and the program's own per-flow arrays
    (through the [~slot] argument of {!Rank_program.t.rank} and
    {!Rank_program.t.on_close}) are all indexed by slot. So one
    instance's memory is sized by the flows that can still affect a
    rank — on a network link, the flows it carries that are queued or
    still charged ahead of the clock — not by every flow it ever
    carried, nor by the largest flow id anywhere. {!backlog}, {!evict}
    and {!close_flow} only look a flow's slot up; they never assign
    one. Slots change no order: service is by [(rank, tie, uid)], and
    the tie value is still computed from the flow id.

    Stale slots come back in sweeps, run only where a table would
    otherwise grow: when a flow without a slot arrives while the
    {e sweep mark} (initially 16) flows hold one, every slot whose
    ring is empty and whose state is stale is given back — what
    {!close_flow} does, minus the flush; an empty ring that grew stays
    with its slot for the next flow given it. The mark then becomes
    twice the survivors, or the survivors plus half the slot range if
    that is more, so a sweep's scan of the slot range is paid for by
    the new slots handed out before it: amortized O(1) per new slot,
    and nothing on the per-packet path of a flow that holds a slot. A
    forgotten flow that returns is activated afresh — its weight and
    tie are read again, as after a close — so with static weights its
    ranks are unchanged. Shaped programs never sweep, and a program
    answering {!Rank_program.never_stale} only ever gives slots back
    in {!close_flow}.

    Layout per stage:
    - unshaped: a single {!Sfq_sched.Iflow_heap} (per-flow FIFO rings,
      heads-only int heap). [enqueue]/[dequeue_exn] allocate nothing in
      steady state — the rank call is closure dispatch with int
      arguments, per-packet outputs travel through the program's
      pre-allocated {!Rank_program.regs} cell.
    - shaped (WF²Q): packets wait in a shaper [Iflow_heap] keyed by
      eligibility rank and move to a service {!Sfq_util.Iheap} keyed by
      service rank once {!Rank_program.t.horizon} passes their
      eligibility — carrying their original arrival uid, so ties
      resolve exactly as in the hand-written two-stage scheduler. When
      nothing is eligible the earliest eligibility rank is served
      instead (work conservation).

    Eviction removes packets without rolling tags back (the flow keeps
    its virtual-time charge, eq. 4); closing flushes the flow, frees its
    slot, resets the runtime's tie cache for it and then calls the
    program's [on_close] with the freed slot ([-1] if the flow held
    none) and the flow id. *)

open Sfq_base

type t

val create :
  ?tie:Sfq_sched.Tag_queue.tie -> ?capacity:int -> Rank_program.t -> t
(** Build a runtime instance around a rank program. [tie] refines
    ordering among equal ranks of different flows (default
    [Arrival]); [capacity] pre-sizes the flow-head heap. Calls the
    program's [attach] hook with this instance's [size] thunk. *)

val enqueue : t -> now:float -> Packet.t -> unit
(** Rank and admit one packet.
    @raise Invalid_argument if [pkt.flow < 0]. *)

val dequeue : t -> now:float -> Packet.t option
(** Serve the smallest [(rank, tie, uid)] entry; [None] (after firing
    the program's [on_idle] busy-period hook) when empty. *)

val dequeue_exn : t -> Packet.t
(** Non-allocating dequeue for callers that already know the queue is
    non-empty (pair with {!is_empty}); shaped programs promote against
    the last observed clock. @raise Invalid_argument if empty. *)

val peek : t -> Packet.t option
val size : t -> int
val is_empty : t -> bool
val backlog : t -> Packet.flow -> int
(** 0 for a flow that holds no slot. *)

val evict : t -> Sched.victim -> Packet.flow -> Packet.t option
(** [None] for a flow that holds no slot. Keeps the flow's slot (and
    with it its tags) even when the eviction empties its queue, until a
    sweep finds them stale. *)

val close_flow : t -> now:float -> Packet.flow -> Packet.t list
(** Flush the flow's packets (oldest first), free its slot and call
    the program's [on_close]. *)

val slots : t -> int
(** Flows holding a slot now. *)

val reclaimed : t -> int
(** Slots sweeps have given back so far (closes not counted). *)

val vtime : t -> float
(** The program's decoded virtual time (0 for clockless programs). *)

val high_tag : t -> int
(** Largest (clamped) rank ever admitted. *)

val saturated : t -> bool
(** Has any admitted rank hit the {!Tag.max_tag} rail? *)

val program : t -> Rank_program.t

val sched : t -> Sched.t
(** The full {!Sched.t} surface under the program's name, so [Disc],
    the netsim server, sweeps, tracing and [Buffered] work unchanged. *)
