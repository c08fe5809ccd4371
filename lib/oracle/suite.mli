(** The standard acceptance sweep as data: every (discipline, workload)
    cell the oracle layer checks, phrased as {!Run.cell}s so one
    definition serves the serial test suite, the domain-parallel
    determinism suite, the parallel-speedup benchmark series and the
    [sfq-sweep] CLI.

    Monitor sets follow the applicability rules of DESIGN.md §7: the
    full SFQ set (Theorems 1/2/4 + structural) only on rate-pure SFQ
    runs, Theorem 4 alone under per-packet rate overrides, eq. 56 for
    SCFQ, structural invariants for every discipline. Workload pools are
    the frozen deterministic pools of [test_oracle] — fixed seeds, same
    traces on every machine. Each pool is generated on its first call
    and shared after that, from any domain; a cell constructor given
    an explicit [?pool] never generates one.

    Every constructor returns cells whose driver thunks build the
    scheduler {e and} its monitors at execution time, inside the task:
    nothing mutable escapes a cell, which is what makes the sweep safe
    to fan out over domains (see {!Run.sweep}). *)

val theorem_pool : unit -> Workload.t list
(** 120 workloads, seed 0x5f9, no rate overrides. *)

val override_pool : unit -> Workload.t list
(** 120 workloads, seed 0xacd, with per-packet rate overrides. *)

val reweight_pool : unit -> Workload.t list
(** 60 workloads, seed 0xbee, with mid-run weight changes. *)

val stress_pool : unit -> Workload.t list
(** 40 workloads, seed 0xd1e, with flow churn, finite-buffer overload
    and server-rate fluctuation all enabled. *)

(** {1 Monitor sets} (exposed for directed tests) *)

val structural : unit -> Monitor.t list

val stress_set : Sfq_base.Sched.t -> Monitor.t list
(** {!structural} plus the packet-conservation law probing the given
    scheduler's backlog — the only monitors sound under drops,
    closures and rate fluctuation. *)

val sfq_set :
  ?allow_idle_reset:bool -> Workload.t -> vtime:(unit -> float) -> Monitor.t list

val scfq_set : Workload.t -> vtime:(unit -> float) -> Monitor.t list

val sfq_override_set : Workload.t -> vtime:(unit -> float) -> Monitor.t list

(** {1 Cells} *)

val sfq_cells : ?pool:Workload.t list -> unit -> Run.cell list
(** SFQ under the full theorem set over [pool] (default
    {!theorem_pool}); labels ["sfq#i"]. *)

val scfq_cells : ?pool:Workload.t list -> unit -> Run.cell list
(** SCFQ under Theorem 1 (with H_SCFQ) + eq. 56; labels ["scfq#i"]. *)

val sfq_override_cells : ?pool:Workload.t list -> unit -> Run.cell list
(** SFQ under Theorem 4 only, over the override pool by default. *)

val structural_cells : ?pool:Workload.t list -> unit -> Run.cell list
(** All nine disciplines under the structural invariants, over the
    override pool by default; labels ["<disc>#i"]. *)

val reweight_cells : ?pool:Workload.t list -> unit -> Run.cell list
(** SFQ and SCFQ with dynamic weight tables under the structural
    invariants, over the reweight pool by default. *)

val stress_cells : ?pool:Workload.t list -> unit -> Run.cell list
(** All nine disciplines under {!stress_set} over the churn/overload
    {!stress_pool} by default; labels ["<disc>+stress#i"]. *)

val sp_pifo_cells : ?pool:Workload.t list -> unit -> Run.cell list
(** {!Sfq_pifo.Sp_pifo} over [pool] (default {!theorem_pool}) under
    work conservation + the conservation law + the {e relaxed}
    fairness oracle ({!Monitor.fairness_measured}, which records a
    budget and never fails). Labels ["sp-pifo#i"]. *)

val pifo_cells : ?pool:Workload.t list -> unit -> Run.cell list
(** Every {!Sfq_pifo.Programs} rank program through the
    {!Sfq_pifo.Pifo_sched} runtime, over the first 90 traces of [pool]
    (default {!theorem_pool}): pifo-sfq under the full SFQ theorem
    set, pifo-scfq under the SCFQ set, and the clock-/GPS-driven ports
    (pifo-vc, pifo-edd, pifo-fqs, pifo-wf2q) under the structural
    invariants, mirroring their float originals' sets. Labels
    ["pifo-<disc>#i"]. *)

val all_cells : unit -> Run.cell list
(** The whole acceptance sweep, in a fixed order: {!sfq_cells},
    {!scfq_cells}, {!sfq_override_cells}, {!structural_cells},
    {!reweight_cells}, {!stress_cells}, {!sp_pifo_cells},
    {!pifo_cells} — 2580 cells. *)

val mutant_cells : unit -> (Mutant.mode * Run.cell) list
(** One cell per seeded bug: the mutant scheduler under the full SFQ
    set (idle resets allowed) plus the conservation law on its crafted
    workload — except [Wrong_queue_drop], whose lossy run only admits
    {!stress_set}. The expected verdict is [Mutant.expected_monitor]. *)
