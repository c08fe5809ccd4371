(** Fixed-size domain-pool executor with deterministic ordered reduction.

    A pool owns [domains - 1] worker domains (the submitting domain is
    the remaining worker: a pool of 1 runs everything inline, no spawn).
    {!map} fans an indexed task array out over the pool through a
    chunked atomic task queue and writes each result into its task's
    slot, so the returned array is ordered by task index — byte-identical
    output at every domain count and under every interleaving. Nothing
    about a task's inputs may depend on execution order either; derive
    per-task randomness with {!Seed.derive}, never from a shared stream.

    Concurrency contract: tasks run on arbitrary domains and must not
    share mutable state with each other or with the submitter (build
    scratch structures — schedulers, monitors, metrics registries,
    tracers — inside the task, domain-locally; merge by returning
    values). The pool itself synchronizes only at submission and at the
    final barrier; there are no locks inside the task loop beyond one
    atomic fetch-and-add per chunk.

    Error discipline: if tasks raise, every task still runs (no
    cancellation — partial sweeps would make the failure set depend on
    timing), and {!map} re-raises the raising task with the {e smallest
    index}, which is therefore as deterministic as the tasks
    themselves. *)

type t

val create : domains:int -> t
(** A pool that executes with [domains]-way parallelism ([domains - 1]
    spawned workers). [domains = 1] spawns nothing.
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int

val map : ?chunk:int -> t -> f:(int -> 'a -> 'b) -> 'a array -> 'b array
(** [map t ~f tasks] computes [[| f 0 tasks.(0); f 1 tasks.(1); … |]],
    distributing index ranges of size [chunk] (default 1; clamped to
    >= 1) over the pool. Returns [[||]] immediately for an empty array.
    More domains than tasks is fine — surplus workers find the queue
    drained and park at the barrier.

    @raise Invalid_argument when called from inside a pool task
    (including a task of {e another} pool): nested submission would
    deadlock a caller-participates executor, so it is rejected
    eagerly.
    @raise Invalid_argument if the pool has been shut down. *)

val shutdown : t -> unit
(** Join and release the worker domains. Idempotent. The pool rejects
    further {!map} calls. *)

val run : ?chunk:int -> domains:int -> f:(int -> 'a -> 'b) -> 'a array -> 'b array
(** One-shot [create] / [map] / [shutdown] (shutdown runs even when a
    task raises). [domains = 1] creates no pool: the tasks run in index
    order in the caller, so [run ~domains:1] may be called from inside
    a pool task, and the first task to raise (the smallest index) stops
    the loop and propagates.
    @raise Invalid_argument if [domains < 1]. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], the hardware-sized default
    for CLI [--domains 0] conventions. *)
