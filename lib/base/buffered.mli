(** Finite buffers over any {!Sched.t}: budgets + a pluggable drop
    policy.

    The paper's theorems assume infinite buffers; a deployable server
    does not have them. This wrapper holds {e no packets of its own} —
    it gates [enqueue] with a per-flow and/or aggregate budget and,
    when a budget is hit, either rejects the arrival or calls back into
    the discipline's {!Sched.t.evict} to make room. Every lost packet
    is reported through [on_drop] exactly once, so the conservation law
    (enqueued = departed + dropped + backlogged) stays checkable from
    the outside.

    Policies:
    - [Drop_tail]: reject the arriving packet;
    - [Drop_front]: evict the oldest packet — of the arriving flow on a
      per-flow overflow, of the next-to-depart flow ([peek]) on an
      aggregate overflow — then admit the arrival;
    - [Longest_queue]: on aggregate overflow, evict the newest packet
      of the flow with the largest backlog (ties: first-seen flow); a
      per-flow overflow rejects the arrival (the arrival is that flow's
      own newest packet).

    If the discipline cannot evict ({!Sched.no_evict}), eviction
    policies degrade to rejecting the arrival — packets are never lost
    silently. Backlog/size probes read the inner scheduler directly, so
    the admission decision cannot drift from the state it guards. *)

type policy = Drop_tail | Drop_front | Longest_queue

val policy_name : policy -> string

type reason =
  | Rejected  (** the arriving packet itself was refused *)
  | Evicted  (** an already-queued packet was removed to make room *)

val reason_name : reason -> string

type config = {
  per_flow : int option;  (** max queued packets per flow *)
  aggregate : int option;  (** max queued packets in total *)
  policy : policy;
}

val config : ?per_flow:int -> ?aggregate:int -> ?policy:policy -> unit -> config
(** Omitted budgets are infinite; default policy is [Drop_tail].
    @raise Invalid_argument on a non-positive budget. *)

val pp_config : Format.formatter -> config -> unit

type t

val wrap :
  ?on_drop:(now:float -> reason:reason -> Packet.t -> unit) ->
  config ->
  Sched.t ->
  t
(** [on_drop] fires once per lost packet, with the packet actually
    lost (the victim under eviction policies, the arrival otherwise),
    before the triggering arrival is admitted. *)

val sched : t -> Sched.t
(** The buffered view: [enqueue] applies the policy; every other
    operation (including [evict]/[close_flow]) passes through to the
    inner scheduler. Packets flushed by [close_flow] are returned to
    the caller and NOT counted as drops here — the caller decides
    whether a closing flow's backlog is a loss. *)

val drops : t -> int
(** Packets lost to the policy (both reasons). *)

val admitted : t -> int
