(** Discrete-event simulation core.

    A simulation is a clock plus a priority queue of timestamped
    callbacks. Equal-time events fire in scheduling order, which makes
    every experiment deterministic given its RNG seed. This replaces
    the REAL simulator used by the paper's Figs. 1 and 2(b).

    Firing an event allocates nothing: the queue is read through
    {!Sfq_util.Fheap}'s non-allocating root accessors and the clock is
    held unboxed. {!now} boxes the clock at most once per instant. The
    heap orders int handles; the callbacks themselves sit in a
    {!Sfq_util.Slab}, written when scheduled and cleared when fired,
    so a sift moves no pointer and a fired callback is garbage. *)

type t

val create : unit -> t
val now : t -> float

val schedule : t -> at:float -> (unit -> unit) -> unit
(** @raise Invalid_argument if [at] is in the past. Scheduling at
    exactly [now t] is allowed (the event fires in this or the next
    [run] call). *)

val schedule_after : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~at:(now t +. delay)]. [delay] must be >= 0. *)

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
