(** Network-scale scenario sweeps: topologies × disciplines × seeds,
    sharded over the domain pool with deterministic positional
    reduction (E27, DESIGN.md §13).

    A {e scenario cell} is one closed simulation: a {!Sfq_netsim.Topo}
    shape whose links all run one {!Disc} discipline, a churn-driven
    background flow population recycled through a
    {!Sfq_base.Flow_registry} (ids — and with them every dense per-flow
    array — bounded by the live window, not the total flow count), and
    a handful of {e reserved} CBR flows whose end-to-end delays are
    checked against the composed Thm 8/9 bound by
    {!Sfq_oracle.E2e_oracle}. Per-hop structural monitors (flow-FIFO,
    per-server conservation) ride along, plus network-wide conservation
    probes: at every checkpoint and after the final drain,
    [injected = delivered + dropped + closed + in-flight].

    Determinism contract (same as {!Sfq_oracle.Run.sweep}): a cell
    builds all of its mutable state inside {!run_scenario}, its RNG
    stream is a pure function of the cell's seed, and {!sweep} reduces
    positionally — so {!sweep_digest} is byte-identical at every domain
    count, which test_par and the netsim-scale CI job both enforce. *)

open Sfq_base
open Sfq_netsim
module Monitor = Sfq_oracle.Monitor

type scenario = {
  label : string;
  spec : Topo.spec;
  disc : Disc.spec;
  seed : int;
  flows : int;  (** background flows opened over the run *)
  window : int;  (** max concurrently-live background flows (churn) *)
  pkts_per_flow : int;
  len : int;  (** packet length, bits (also every flow's l^max) *)
  reserved : int;  (** CBR flows under the composed-delay oracle *)
  reserved_pkts : int option;  (** [None]: span the open phase *)
  churn : bool;  (** recycle ids once the window fills *)
  buffer : Buffered.config option;  (** per-link switch memory *)
  load : float;  (** offered background load on the core link *)
  access_rate : float;
  core_rate : float;
  prop_delay : float;
  monitors : bool;  (** attach per-hop monitors (off for scale runs) *)
  checkpoints : int;  (** mid-run network-conservation probes *)
  skip_hop : int option;
      (** mutant: forget hop [i mod nhops]'s β in the composed bound —
          the oracle must then report a violation *)
}

val scenario :
  ?flows:int ->
  ?window:int ->
  ?pkts_per_flow:int ->
  ?len:int ->
  ?reserved:int ->
  ?reserved_pkts:int ->
  ?churn:bool ->
  ?buffer:Buffered.config ->
  ?load:float ->
  ?access_rate:float ->
  ?core_rate:float ->
  ?prop_delay:float ->
  ?monitors:bool ->
  ?checkpoints:int ->
  ?skip_hop:int ->
  ?seed:int ->
  label:string ->
  spec:Topo.spec ->
  disc:Disc.spec ->
  unit ->
  scenario
(** Defaults: 48 flows, window 16, 2 pkts/flow of 8192 bits, 2 reserved
    flows, no churn, unbuffered, load 0.5 on a 2{^20} b/s core with
    equal access links, 2{^-10} s propagation, monitors on, 4
    checkpoints, seed [0x5eed]. Rates and lengths are dyadic so the
    int-tag rank programs tag exactly. Reserved rates sum to C/4 and
    background reservations to at most C/4 — the [Σ r_n <= C] premise
    of Thm 4 holds with 2x headroom for draining ids.
    @raise Invalid_argument on degenerate sizing. *)

val directed : ?disc:Disc.spec -> ?skip_hop:int -> spec:Topo.spec -> unit -> scenario
(** The satellite Thm 8/9 cell: one reserved CBR flow per entry, no
    background population, 8 packets each. With no competitors every
    per-hop β is exact, so the composed bound holds with zero slack on
    a line — and a [skip_hop] mutant is short by at least the dropped
    hop's service time, which the oracle must flag. *)

type outcome = {
  injected : int;
  delivered : int;
  dropped : int;
  closed : int;
  in_flight : int;  (** 0 after a full drain — checked, and digested *)
  finished_at : float;
  high_water : int;  (** registry id bound — the RSS story at 10⁶ flows *)
  peak_live : int;
  order_hash : int64;  (** FNV-1a over the delivery stream *)
  e2e_checked : int;
  e2e_lost : int;
  min_slack : float;
  violations : Monitor.violation list;
  events : int;  (** simulator events fired; not in {!outcome_digest} *)
}

val run_scenario : scenario -> outcome

val run_raw :
  ?mk_link:(int -> rate:float -> Sched.t) ->
  ?tap:(Packet.t -> at:float -> unit) ->
  scenario ->
  outcome
(** {!run_scenario} with the two replay hooks: [mk_link i ~rate]
    overrides the scenario's discipline on the i-th link created (the
    deterministic order {!Sfq_netsim.Topo.build} calls [mk_sched] —
    i.e. {!Sfq_netsim.Topo.servers} order), and [tap] observes every
    sink delivery before it is folded into [order_hash]. Monitors,
    oracles, churn and the conservation probes behave exactly as in
    {!run_scenario}. *)

val sweep : ?domains:int -> ?pool:Sfq_par.Pool.t -> scenario list -> outcome array
(** Fan the cells over the pool ({!Sfq_par.Pool.run}, or [pool] when
    given); results land positionally. [domains = 1] (default) runs
    serially with no spawn. *)

val outcome_digest : outcome -> string
(** Exact ([%h] floats, full hash) one-line rendering. *)

val sweep_digest : scenario list -> outcome array -> string
(** One [label | digest] line per cell, in cell order — the
    serial≡parallel witness. *)

val default_cells : ?root:int -> unit -> scenario list
(** The standard grid — {star4, line3, tree2x2, dumbbell3x2} × {sfq,
    scfq, pifo-sfq, drr} × 2 seed replicates, 32 cells — plus one
    churn-heavy overloaded star8 cell under pifo-sfq with finite
    Drop_front buffers. Cell seeds derive from [root] (default
    [0x7e57]) by a frozen per-discipline seed index, so a cell keeps
    its seed when a discipline leaves the grid. test_par and the
    golden corpus digest these labels. *)

val scale_star :
  ?flows:int ->
  ?window:int ->
  ?leaves:int ->
  ?reserved:int ->
  ?disc:Disc.spec ->
  ?seed:int ->
  unit ->
  scenario
(** The E27 scaling cell: a churned star, default 10⁶ flows through a
    4096-id window on 64 leaves under [disc] (default [Pifo_sfq], the
    discipline the benchmark runs), per-hop monitors off (the composed
    oracle and the conservation probes stay on), load 0.75. Memory is
    bounded by the window, not the flow count — the CI job runs the
    10⁵-flow variant under an RSS ceiling. *)

(** {1 Multi-hop schedule replay}

    The network half of {!Sfq_oracle.Replay}'s UPS harness (DESIGN.md
    §14). {!record_net} runs a scenario and records its delivery
    stream; {!replay_net} re-runs the same arrivals with every link
    scheduling by least slack — rank = recorded delivery time −
    {!Sfq_netsim.Topo.residuals} of the link — and compares the two
    delivery streams. Restrictions: no churn (id recycling breaks
    keying) and no finite buffers (drops have no delivery time); the
    E27 grid minus its churn cell satisfies both.

    Unlike the single hop, exact packet-for-packet order is not a
    theorem across hops (a later-deadline packet can reach a free
    server before its rival has crossed the upstream link — observed
    on exactly one E27 cell), so the network success criterion is the
    UPS paper's: no packet delivered later than its recorded time,
    with exact order reported as the stronger {!Exact} tier. *)

type net_schedule
(** A recorded delivery schedule: the sink stream plus per-packet
    delivery times, the per-link residual table and per-flow path
    lengths of the shape, and the originating scenario (replay re-runs
    its arrivals verbatim). *)

type under =
  | Under_lstf  (** per-link LSTF on the recorded deadlines *)
  | Under_mutant of Sfq_oracle.Replay.mutant
      (** LSTF with the named seeded defect at every link *)
  | Under_disc of Disc.spec
      (** negative control: re-run under a plain discipline (e.g. SFQ
          replaying a DRR recording must diverge somewhere on the
          grid) *)

type net_verdict =
  | Exact of int  (** packet-for-packet, with the delivery count *)
  | On_time of { delivered : int; swapped : Sfq_oracle.Replay.witness }
      (** every packet delivered at or before its recorded time (the
          UPS replay criterion) but the order permuted; [swapped] is
          the first order mismatch ([margin] in recorded-delivery-time
          currency) *)
  | Late of Sfq_oracle.Replay.witness
      (** replay failed: some packet beyond its recorded delivery
          time. The witness carries the worst offender — [expected] =
          [got] = the late packet, [at] its replay delivery time,
          [margin] its lateness, [hop] its path length. *)

val record_net : scenario -> net_schedule * outcome
(** Run the scenario ({!run_raw} with a recording tap) and keep its
    delivery schedule. The outcome is the ordinary E27 outcome of the
    recording run — digests stay comparable with {!run_scenario}.
    @raise Invalid_argument on churned or buffered scenarios. *)

val replay_net : net_schedule -> under -> net_verdict
(** Re-run the recorded scenario's arrivals under [under] and compare
    delivery streams (see {!net_verdict}). *)

val net_verdict_digest : net_verdict -> string
(** One deterministic token, [%h] floats — ["exact=N"],
    ["on-time=N swap@i ..."] or ["late@i packet=f.s ..."]. *)

val net_schedule_order : net_schedule -> Sfq_oracle.Replay.key array
val net_schedule_scenario : net_schedule -> scenario

val net_schedule_hash : net_schedule -> string
(** MD5 of the ["flow.seq"] delivery order — same currency as
    {!Sfq_oracle.Replay.schedule_hash}. *)
