(** Discrete-event simulation core.

    A simulation is a clock plus a priority queue of timestamped
    callbacks. Equal-time events fire in scheduling order, which makes
    every experiment deterministic given its RNG seed. This replaces
    the REAL simulator used by the paper's Figs. 1 and 2(b).

    The queue is a binary min-heap on (firing time, scheduling
    sequence) over unboxed parallel arrays, and each queued event names
    an entry of one callback table, so a sift writes no pointer. A
    {!timer} is a callback registered once and queued by {!arm} as
    often as needed (it may be pending several times); {!schedule}
    makes a one-shot entry, freed when it fires, so a fired closure is
    garbage. Every [schedule] and every [arm] takes the next sequence
    number.

    Firing an event allocates nothing and arming a timer writes no
    pointer: the clock is held unboxed, {!now} boxes it at most once
    per instant, and {!arm_after} stores the firing time it computes
    without boxing it. Recurring callbacks (a server's completion, a
    link's arrival, a periodic source) should be timers; a callback
    made per flow or per packet should use [schedule], since a timer's
    entry lives as long as its simulation. *)

type t

val create : unit -> t
val now : t -> float

val schedule : t -> at:float -> (unit -> unit) -> unit
(** @raise Invalid_argument if [at] is in the past. Scheduling at
    exactly [now t] is allowed (the event fires in this or the next
    [run] call). *)

val schedule_after : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~at:(now t +. delay)]. [delay] must be >= 0. *)

type timer
(** A callback registered in one simulation. *)

val timer : t -> (unit -> unit) -> timer
(** Register a callback for {!arm}. Queues nothing. *)

val no_timer : timer
(** Belongs to no simulation, so arming it raises. A field that needs
    a timer before its callback can exist starts as this. *)

val arm : t -> timer -> at:float -> unit
(** Queue the timer's callback at [at], as {!schedule} would queue a
    fresh callback. @raise Invalid_argument if [at] is in the past or
    the timer was registered in another simulation. *)

val arm_after : t -> timer -> delay:float -> unit
(** [arm t tm ~at:(now t +. delay)]. [delay] must be >= 0. *)

val run : t -> until:float -> unit
(** Fire every event with timestamp [<= until] in order, then set the
    clock to [until]. Callbacks may schedule further events, including
    at the current instant. *)

val run_all : t -> ?limit:int -> unit -> unit
(** Fire events until the queue drains, or until [limit] events have
    fired (default 100 million — a runaway guard, not a tuning knob). *)

val pending : t -> int
(** Events currently queued. *)

val events_fired : t -> int

val set_metrics : t -> Sfq_obs.Metrics.t -> prefix:string -> unit
(** Register the simulator in a metrics registry: a counter
    [<prefix>.events] incremented per fired event, gauges
    [<prefix>.pending] (queue depth, with its high-water mark) and
    [<prefix>.now] (clock), updated as events fire. One registry per
    simulation (setting replaces). *)
