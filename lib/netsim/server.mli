(** A packet server: one output link with a scheduling discipline and a
    (possibly fluctuating) service rate.

    The server is work-conserving and non-preemptive: whenever it is
    idle and a packet is queued it begins serving the discipline's
    choice, and the packet completes when the rate process has
    delivered [len] bits. An optional strict-priority queue sits above
    the discipline — the Fig. 1 experiment sends the MPEG video flow
    through it, which is exactly how the paper makes the output link
    "appear as a variable rate server" to the TCP flows scheduled
    below.

    Handlers observe the life cycle: [on_inject] fires at arrival (after
    a drop decision), [on_depart] at service completion with the
    service start time. Finite switch memory is modelled by a
    {!Sfq_base.Buffered} admission gate: pass a full [?buffer] config
    (per-flow and/or aggregate budgets, any drop policy) or the legacy
    [?flow_buffer_limit] shorthand (per-flow drop-tail, which the TCP
    experiments use); the default is unbounded. {!close_flow} ends a
    flow at the discipline, flushing its backlog.

    Passing [?metrics] registers the server in an
    {!Sfq_obs.Metrics.t}: per-hop counters
    [<name>.injected]/[.dropped]/[.departed] (total and per flow),
    the drop channel split by cause ([<name>.dropped.rejected] /
    [<name>.dropped.evicted] and [<name>.closed] for closure flushes),
    [<name>.bits] (work served), a per-flow [<name>.backlog] gauge
    (with high-water mark) and a per-flow [<name>.delay] residence-time
    histogram ([delay_range], default 0–10 s over 400 bins; values
    above saturate in the last bin — use a {!Trace} for exact order
    statistics). Arrivals and departures are matched per-flow FIFO —
    sound for every discipline here, provided a flow sticks to one
    path (scheduled or priority), as every experiment's flows do;
    under [Longest_queue] eviction the delay histogram is approximate
    (the stamp released is the oldest, the victim the newest). *)

open Sfq_base

type t

val create :
  Sim.t ->
  name:string ->
  rate:Rate_process.t ->
  sched:Sched.t ->
  ?flow_buffer_limit:int ->
  ?buffer:Buffered.config ->
  ?metrics:Sfq_obs.Metrics.t ->
  ?delay_range:float * float ->
  unit ->
  t
(** [flow_buffer_limit n] is shorthand for
    [~buffer:(Buffered.config ~per_flow:n ())]; passing both is an
    error. *)

val inject : t -> Packet.t -> unit
(** Enqueue at the discipline (through the buffer budgets, which may
    drop the arrival or evict a queued packet) and start service if
    idle. *)

val inject_priority : t -> Packet.t -> unit
(** Enqueue at the strict-priority FIFO (never dropped). *)

val on_inject : t -> (Packet.t -> unit) -> unit
(** Add an arrival handler (fires for accepted packets only). *)

val on_drop : t -> (Packet.t -> unit) -> unit
(** Fires once per packet lost to the buffer policy (either cause). *)

val on_drop_reason : t -> (reason:Buffered.reason -> Packet.t -> unit) -> unit
(** Like {!on_drop}, with the cause. *)

val on_close : t -> (flow:Packet.flow -> Packet.t list -> unit) -> unit
(** Fires at each {!close_flow} with the flushed backlog. *)

val on_depart : t -> (Packet.t -> start:float -> departed:float -> unit) -> unit
(** Add a completion handler. [start] is when service began. Fires for
    priority packets too. *)

val close_flow : t -> Packet.flow -> Packet.t list
(** End the flow at the discipline: flush its queued packets (returned;
    counted in {!closed}, not {!drops}) and discard its scheduler
    state, so a later flow reusing the id re-enters at [S >= v(t)]
    (eq. 4). The packet in service, if any, still completes. *)

val sched : t -> Sched.t
(** The discipline itself (not the buffered admission view). *)

val sim : t -> Sim.t
val name : t -> string
val busy : t -> bool
val drops : t -> int
val closed : t -> int
(** Packets flushed by {!close_flow} so far. *)

val departed : t -> int
val work_done : t -> float
(** Total bits served so far (priority + scheduled). *)
