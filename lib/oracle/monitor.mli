(** Online theorem oracles: the paper's guarantees as executable
    invariants.

    A monitor consumes the event stream of one scheduler run — every
    arrival, every (fixed-rate) service completion, every idle poll —
    and latches the {e first} violation of the property it encodes.
    {!wrap} turns any {!Sfq_base.Sched.t} into an observed scheduler
    that feeds a list of monitors, so the same workload driver
    exercises every discipline and every deliberately-broken mutant
    under the same set of oracles.

    Each monitor keeps one typed hook per event kind (arrival,
    departure, drop, idle), built once when the monitor is made.
    {!wrap} and {!drop_event} call the hooks directly and build no
    {!event}; the departure hook reads the start and finish times from
    a float array the wrapper owns, so no time is boxed either, and
    observing a scheduler allocates nothing per event. {!observe}
    dispatches an {!event} to the same hooks.

    Which theorem each monitor encodes:
    - {!work_conserving}: the work-conservation premise of §1/§2 — a
      non-empty scheduler must hand over a packet when the server asks;
    - {!flow_fifo}: packets of a flow depart in arrival order and
      none are fabricated, duplicated or dropped (the paper's model,
      §2.1);
    - {!tag_monotone}: the virtual time v(t) is non-decreasing within
      a busy period (lemmas behind eqs. 4–6);
    - {!fairness}: Theorem 1 —
      [|W_f(t1,t2)/r_f − W_m(t1,t2)/r_m| <= l_f^max/r_f + l_m^max/r_m]
      for every interval in which both flows are backlogged;
    - {!sfq_delay}: Theorem 4 at a constant-rate server (δ = 0) —
      [L_SFQ(p_f^j) <= EAT(p_f^j) + Σ_{n≠f} l_n^max/C + l_f^j/C];
    - {!scfq_delay}: eq. 56 —
      [L_SCFQ(p_f^j) <= EAT(p_f^j) + Σ_{n≠f} l_n^max/C + l_f^j/r_f];
    - {!sfq_throughput}: Theorem 2 with δ = 0 — a continuously
      backlogged flow receives at least
      [r_f(t2−t1) − r_f Σ_n l_n^max/C − l_f^max] bits.

    The delay and throughput bounds presuppose [Σ_n r_n <= C]; attach
    those monitors only to runs that satisfy it ({!Workload} never
    oversubscribes). Theorem 1 needs no such premise.

    Cost. Every monitor spends O(1) per event. Beyond a few floats
    boxed at calls into other modules, the theorem monitors allocate
    only the state they keep: {!fairness} and {!sfq_throughput} append
    one completion to a {!Sfq_analysis.Service_log} per departure (its
    busy intervals close on the departure or drop that empties a flow);
    {!sfq_delay} and {!scfq_delay} store each arrival's EAT in a
    per-flow float row indexed by seq. Their [lmax] and [rate]
    arguments are called per event, so pass O(1) functions
    ({!Workload.rate_table}, {!Workload.lmax_table}). The interval
    theorems do their work in {!finalize}, over arrays filled once
    from the log: O(pairs × k²) for {!fairness}, with k a pair's
    completions in one both-backlogged window, and O(k²) per busy
    interval of each flow for {!sfq_throughput}. *)

open Sfq_base

type drop_reason =
  | Rejected  (** refused admission by a buffer policy *)
  | Evicted  (** removed from the queue to make room *)
  | Closed  (** flushed by a flow closure *)

val drop_reason_name : drop_reason -> string

type event =
  | Arrival of { at : float; pkt : Packet.t }
  | Departure of { start : float; finish : float; pkt : Packet.t }
      (** Fixed-rate service: [finish = start + len/C]. *)
  | Drop of { at : float; pkt : Packet.t; reason : drop_reason }
      (** The packet left the system without service. *)
  | Idle of { at : float; backlog : int }
      (** A dequeue returned [None]; [backlog] probes the scheduler's
          own [size] at that instant. *)

type violation = { monitor : string; at : float; what : string }

type t

val name : t -> string

val observe : t -> event -> unit
(** Feed one event. After the first violation the monitor latches and
    ignores further events. *)

val finalize : t -> until:float -> unit
(** Run end-of-trace checks (the interval-quantified theorems measure
    over the whole run). Call exactly once, after the last event. *)

val result : t -> violation option
(** The first violation, if any. *)

val pp_violation : Format.formatter -> violation -> unit

val tap : (event -> unit) -> t
(** A monitor that never reports: it hands every event it sees to the
    callback, as an {!event} (allocated per call). Placed in a monitor
    list, it records the exact stream its neighbours see. *)

(** {1 Structural monitors} *)

val work_conserving : unit -> t

val flow_fifo : unit -> t
(** Per-flow FIFO service (§2.1): each departure must be its flow's
    oldest pending packet, and each {!Drop} must name a pending packet
    (at any position: drop-front, a rejected arrival, a flush). Its
    state is sized by the flows with packets pending, not by every flow
    ever seen: a flow holds a slot and a ring of pending seqs from its
    first pending arrival until its last pending packet leaves, and the
    freed slot and its ring serve the next flow. {!finalize} reports
    the lowest flow id that still has packets pending.
    @raise Invalid_argument on an {!Arrival} with a negative flow id. *)

val conservation : size:(unit -> int) -> unit -> t
(** The packet-conservation law: at every quiescent point (a
    {!Departure}, an {!Idle} poll, and {!finalize}),
    [arrived = departed + dropped + size ()] — no packet is created,
    duplicated, or silently lost, even under buffer drops and flow
    closures. [size] should probe the scheduler's own backlog count
    (e.g. the wrapped scheduler's [Sched.size]). *)

val tag_monotone : name:string -> ?allow_idle_reset:bool -> vtime:(unit -> float) -> unit -> t
(** Samples [vtime ()] after every event and requires it to be
    non-decreasing. [allow_idle_reset] (default [true]) permits an
    arbitrary jump at an {!Idle} event — SCFQ restarts v at 0 when a
    busy period ends; SFQ only ever raises it, so SFQ callers may pass
    [false] for the stricter check. *)

(** {1 Theorem monitors} *)

val fairness :
  ?name:string ->
  ?bound:(lmax_f:float -> r_f:float -> lmax_m:float -> r_m:float -> float) ->
  rate:(Packet.flow -> float) ->
  unit -> t
(** Theorem 1. At {!finalize}, computes {!Sfq_analysis.Fairness.exact_h}
    for every pair of flows seen and compares it against [bound]
    (default {!Sfq_core.Bounds.h_sfq}) instantiated with the largest
    packet length observed per flow. Per event it logs the arrival,
    departure or drop and raises the flow's largest length; it reports
    only at {!finalize}. *)

type fairness_budget = {
  pairs_checked : int;  (** flow pairs with both rates positive *)
  max_h : float;  (** measured H of the worst pair *)
  max_bound : float;  (** Theorem 1 bound for that pair *)
  max_excess : float;
      (** worst [H - bound] over all pairs — negative means the run
          stayed inside the exact-SFQ bound; [neg_infinity] when no
          pair was checked *)
  worst_pair : (Packet.flow * Packet.flow) option;
}

val empty_budget : fairness_budget

val fairness_measured :
  ?name:string ->
  ?bound:(lmax_f:float -> r_f:float -> lmax_m:float -> r_m:float -> float) ->
  rate:(Packet.flow -> float) ->
  unit ->
  t * (unit -> fairness_budget)
(** Relaxed Theorem 1: identical bookkeeping to {!fairness}, but never
    reports a violation — instead, {!finalize} computes the worst
    measured unfairness relative to [bound] (default
    {!Sfq_core.Bounds.h_sfq}) and makes it available through the
    returned thunk (valid after {!finalize}; {!empty_budget} before).
    This is the audit channel for approximate schedulers such as
    {!Sfq_pifo.Sp_pifo}, whose fairness loss is a measured budget
    rather than a guaranteed bound. *)

val sfq_delay :
  flows:Packet.flow list ->
  lmax:(Packet.flow -> float) ->
  rate:(Packet.flow -> float) ->
  capacity:float ->
  unit -> t
(** Theorem 4, δ = 0. EAT (eq. 37) is maintained from arrivals using
    the packet's own rate ([Packet.rate] override if present, the
    flow's reserved rate otherwise — generalized SFQ, §2.3). [lmax]
    gives each flow's maximum packet length (a static flow property in
    the theorem; use the workload-wide maximum). Each flow's
    [Σ_{n≠f} l_n^max] is computed once, when its EAT row is made; an
    arrival stores its EAT at its seq, a departure reads it (it stays),
    a drop clears it. *)

val scfq_delay :
  flows:Packet.flow list ->
  lmax:(Packet.flow -> float) ->
  rate:(Packet.flow -> float) ->
  capacity:float ->
  unit -> t
(** Eq. 56. SCFQ has no per-packet rates: EAT and the [l/r] term both
    use the flow's reserved rate. *)

val sfq_throughput :
  flows:Packet.flow list ->
  lmax:(Packet.flow -> float) ->
  rate:(Packet.flow -> float) ->
  capacity:float ->
  unit -> t
(** Theorem 2, δ = 0, checked at {!finalize} over every window
    [\[t1,t2\]] whose endpoints are service boundaries (or the
    interval's own endpoints) inside a maximal backlogged interval of
    the flow. Windows are tried with t1 outer and t2 inner, t1 over the
    interval's start, then the flow's service starts inside it, then
    its finishes; t2 over the interval's end, then the finishes. The
    first window below the bound is the violation reported. *)

(** {1 Attaching to a scheduler} *)

val drop_event : t list -> now:float -> reason:Buffered.reason -> Packet.t -> unit
(** Report a buffer drop to every monitor — the bridge from
    {!Sfq_base.Buffered.make}'s [on_drop] callback to the oracle layer
    ({!Buffered.Rejected} ↦ {!Rejected}, {!Buffered.Evicted} ↦
    {!Evicted}). *)

val wrap : Sched.t -> capacity:(unit -> float) -> monitors:t list -> Sched.t
(** An observed view of the scheduler: [enqueue] emits {!Arrival}
    (before the inner enqueue, so a buffer policy's synchronous drop
    is seen after the arrival it rejects), [dequeue] emits
    {!Departure} (with [finish = now + len/capacity ()]) or {!Idle};
    each event goes straight to the monitors' hooks, so the wrapper
    allocates nothing per event;
    [capacity] is a thunk so server-rate fluctuation (§2.3) is
    reflected. [evict] emits {!Drop} with reason {!Evicted} and
    [close_flow] one {!Drop} with reason {!Closed} per flushed packet.
    [peek]/[size]/[backlog] pass through unobserved. *)
