(** A scheduling discipline as a {e rank program}.

    Sivaraman et al., "Programmable Packet Scheduling at Line Rate"
    observe that most per-flow scheduling disciplines decompose into
    (a) a tiny per-packet {e rank computation} executed at enqueue and
    (b) one shared priority-queue runtime that serves packets in rank
    order. This module is the interface of part (a); {!Pifo_sched} is
    part (b). A discipline port is a value of {!t}: a record of
    closures over the program's hidden per-flow state, mirroring the
    repo's {!Sfq_base.Sched} convention so the runtime can call the
    hooks without functor plumbing and — critically for the per-packet
    path — without allocating.

    The hot contract: {!t.rank} returns the packet's int service rank
    (a {!Tag}-scaled virtual time in every shipped
    program, though the runtime only requires ranks to be
    order-meaningful ints). Additional per-packet outputs travel
    through the pre-allocated {!regs} cell rather than a result record,
    so a rank call is closure dispatch + int stores — no tuple, no
    boxing. The runtime clamps returned ranks into [[0, Tag.max_tag]]
    (saturate, never wrap; see the {!Tag} overflow
    discussion).

    Virtual-time bookkeeping happens in {!t.on_dequeue} (called with
    the served entry's ordering fields — SFQ sets [v] to the served
    start tag here) and {!t.on_idle} (called whenever the runtime is
    polled while empty — the busy-period rules of §2 of the paper).
    The flow lifecycle arrives through {!t.on_close}; eviction needs no
    hook because no shipped discipline rolls tags back on evict.
    {!t.stale} lets the runtime give an idle flow's slot back before
    the flow closes, once the program proves its state can change no
    later rank.

    Two-stage (shaped) disciplines such as WF²Q set {!t.shaped}: the
    rank call then also deposits an {e eligibility} rank in
    [regs.eligible], and the runtime holds the packet in a shaper stage
    until {!t.horizon} (e.g. the GPS virtual time) passes that rank. *)

open Sfq_base

type regs = {
  mutable aux : int;
      (** second per-packet output of {!t.rank}: stored next to the
          packet and handed back to {!t.on_dequeue} (SFQ's finish
          tag). *)
  mutable eligible : int;
      (** eligibility rank, read only when the program is {!t.shaped}
          (WF²Q's start tag). *)
}

type t = {
  name : string;  (** becomes [Sched.name] of the runtime instance *)
  regs : regs;  (** out-parameter cell written by [rank] *)
  shaped : bool;
      (** two-stage discipline: packets wait in a shaper until
          [horizon] reaches their [regs.eligible] rank *)
  rank : now:float -> slot:int -> Packet.t -> int;
      (** per-packet rank computation (enqueue time). [slot] is the
          packet's flow slot: a small int, unique among the flows the
          runtime holds, assigned on the flow's first enqueue and freed
          when it closes (see {!Pifo_sched}). Per-flow state kept in
          arrays indexed by slot ({!Flow_state}) is sized by the flows
          the link carries, not by the largest flow id. Returns the
          service rank; may write {!regs}. *)
  on_dequeue : key:int -> aux:int -> empty:bool -> unit;
      (** served-packet hook: [key] is the entry's service rank, [aux]
          the value [rank] left in [regs.aux] at enqueue, [empty]
          whether the queue drained with this removal. *)
  on_idle : unit -> unit;
      (** the runtime was polled ([dequeue]) while empty — busy period
          over. *)
  horizon : now:float -> int;
      (** shaped programs: the current eligibility horizon; entries
          with [regs.eligible <= horizon ~now] may be served. Consulted
          once per dequeue/peek, never for unshaped programs. *)
  attach : (unit -> int) -> unit;
      (** called once by {!Pifo_sched.create} with the runtime's
          [size] thunk, for programs whose clock needs to observe real
          queue occupancy (the GPS busy-period guard). *)
  on_close : now:float -> slot:int -> Packet.flow -> unit;
      (** forget the flow's per-flow state (finish tag, EAT floor,
          fluid backlog) after the runtime flushed its packets. [slot]
          is the slot the flow just gave up — the next flow to be given
          it must find it fresh — or [-1] when the flow held none
          (closed without a packet since its last close). State keyed
          by flow id (LSTF's rank floor, the GPS clocks) forgets the
          flow either way. *)
  vtime : unit -> float;
      (** decoded virtual time, for the oracle monitors; programs
          without a virtual clock return 0. *)
  stale : now:float -> slot:int -> bool;
      (** may the runtime forget this slot's flow now? The runtime asks
          only about a slot that holds a flow with nothing queued, and
          on a [true] it does what {!Pifo_sched.close_flow} does minus
          the flush: frees the slot and calls [on_close ~now ~slot].

          Proof obligation: return [true] only when calling [on_close]
          now would change nothing the program computes later — no
          rank, no {!regs} output, no [vtime] — for any continuation
          whose [now] does not decrease (the {!Sched} contract) and in
          which the flow's weight does not change. A flow the runtime
          forgets re-enters as a new one: fresh per-slot state, its
          weight and tie read again. So a program whose [on_close]
          forgets state keyed by flow id (LSTF's floor, the GPS
          clocks) must answer {!never_stale}.

          Eq. 4 is what makes SFQ-shaped programs stale: a packet's tag
          is [max (clock, F_prev)], so once a clock that never decreases
          has reached the flow's stored tag, [max (clock', F_prev)] and
          [max (clock', 0)] agree for every later [clock']. *)
}

val regs : unit -> regs
(** A fresh zeroed out-parameter cell. *)

val no_dequeue : key:int -> aux:int -> empty:bool -> unit
val no_idle : unit -> unit

val no_horizon : now:float -> int
(** Always 0; placeholder for unshaped programs. *)

val no_attach : (unit -> int) -> unit
val no_close : now:float -> slot:int -> Packet.flow -> unit
val no_vtime : unit -> float

val never_stale : now:float -> slot:int -> bool
(** Always [false]: the runtime frees the program's slots only in
    [close_flow]. *)
