(** Adversarial workload generation for the theorem oracles.

    A workload is a complete description of one fixed-rate-server run:
    the link capacity, the per-flow reserved rates (never
    oversubscribed, so the paper's delay/throughput theorems apply),
    a time-ordered arrival trace mixing back-to-back bursts, sub-packet
    gaps and long idle periods, optional per-packet rate overrides
    (generalized SFQ, §2.3) and optional mid-run weight changes.

    The qcheck shrinker minimizes failing traces by dropping arrivals,
    clearing rate overrides and dropping reweight events — small
    counterexamples, not 80-packet walls of text. *)

type arrival = {
  at : float;  (** seconds; non-decreasing across the trace *)
  flow : int;
  len : int;  (** bits *)
  rate : float option;  (** per-packet rate override, bits/s *)
}

type reweight = { at : float; flow : int; rate : float }

type churn = { at : float; flow : int }
(** Close the flow at [at]: its queued packets are flushed and its
    scheduler state discarded, so later arrivals of the same id are a
    {e reopened} flow that must re-enter at [S >= v(t)] (eq. 4). *)

type rate_change = { at : float; capacity : float }
(** Server-rate fluctuation (§2.3): from [at] on, the link serves at
    [capacity] bits/s. The delay/throughput theorems assume a constant
    rate — attach only structural monitors to fluctuating runs. *)

type buffer = {
  per_flow : int option;
  aggregate : int option;
  policy : Sfq_base.Buffered.policy;
}
(** Finite-buffer budgets for {!Run.fixed_rate} to enforce via
    {!Sfq_base.Buffered}; [None] budgets are infinite. *)

type t = {
  capacity : float;  (** link rate, bits/s *)
  weights : (int * float) list;  (** reserved rates; [Σ r <= capacity] *)
  arrivals : arrival list;
  reweights : reweight list;
  churn : churn list;  (** time-ordered flow closures *)
  rate_changes : rate_change list;  (** time-ordered capacity changes *)
  buffer : buffer option;  (** [None]: the paper's infinite buffers *)
}

val flows : t -> int list
val rate_of : t -> int -> float
(** The flow's first binding in [weights]; 0 for unknown flows. Each
    call walks [weights] and allocates an option. *)

val lmax : t -> int -> float
(** Largest packet length (bits) the flow sends; 0 if it never sends.
    Each call folds over every arrival, boxing a float per step. *)

val rate_table : t -> int -> float
(** [rate_table t] is [rate_of t], tabulated: one pass over [weights]
    and the arrivals fills an array indexed by flow id up to the
    largest id in [t], and each call reads one slot (0 outside it).
    The monitor sets of {!Suite} build one per cell, since their
    monitors look rates up per event.
    @raise Invalid_argument if a weight or an arrival names a negative
    flow id. *)

val lmax_table : t -> int -> float
(** [lmax t], tabulated the same way as {!rate_table}: one pass over
    the arrivals, then one array read per call.
    @raise Invalid_argument as {!rate_table} does. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val gen :
  ?reweights:bool ->
  ?rate_overrides:bool ->
  ?churn:bool ->
  ?overload:bool ->
  ?rate_fluct:bool ->
  unit -> t QCheck.Gen.t
(** 1–5 flows with weights drawn from a 16:1 spread and scaled to a
    50–95% total utilization; 5–80 arrivals whose inter-arrival gaps
    mix bursts (gap 0), fractions of a max-packet service time, a few
    service times, and long idle gaps (5–20 service times, forcing
    busy-period boundaries). [rate_overrides] (default [true]) lets
    ~10% of packets carry a rate override at 30–100% of the flow's
    reserved rate — never above it, so [Σ r <= C] is preserved.
    [reweights] (default [false]) adds 0–2 mid-run weight changes.
    [churn] (default [false]) adds 1–4 flow closures; [overload]
    (default [false]) attaches a finite-buffer config (per-flow budget
    1/2/4 or infinite, aggregate 4/8/16, any policy) so bursts actually
    overflow; [rate_fluct] (default [false]) adds 0–2 server-rate
    changes at 50–125% of nominal. The stress draws happen after every
    pre-existing draw and consume no randomness when off, so frozen
    pools keep their exact traces. *)

val shrink : t QCheck.Shrink.t
(** Candidates drop arrivals, clear rate overrides, drop reweights,
    drop churn/rate changes, lift the buffer limits — never reorder or
    invent events. *)

val arbitrary :
  ?reweights:bool ->
  ?rate_overrides:bool ->
  ?churn:bool ->
  ?overload:bool ->
  ?rate_fluct:bool ->
  unit -> t QCheck.arbitrary
(** {!gen} + printer + shrinker, for [QCheck.Test.make]. *)

val deterministic_pool :
  ?reweights:bool ->
  ?rate_overrides:bool ->
  ?churn:bool ->
  ?overload:bool ->
  ?rate_fluct:bool ->
  seed:int -> n:int -> unit -> t list
(** [n] workloads from a private PRNG seeded with [seed] — the same
    list on every run, machine-independent; the acceptance sweeps use
    this so [dune runtest] is deterministic. *)
