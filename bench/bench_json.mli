(** Parser and schema checker for [BENCH_sched.json], the machine-readable
    bench trajectory emitted by [main.exe micro]. Split out of the
    [validate_bench_json] CLI so unit tests can exercise acceptance and
    rejection without spawning a process.

    The parser is a strict recursive-descent JSON reader — no JSON
    library is in the allowed dependency set. Strictness matters: a
    truncated file, a bare [nan] (illegal JSON, which
    [Printf "%f"]-style emitters can produce), or trailing garbage must
    all be rejected, because the bench harness's output is consumed by
    machines. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad of string

val parse : string -> json
(** Parse a complete JSON document.
    @raise Bad on any syntax error, including trailing garbage. *)

val field : string -> json -> json
(** [field name obj] extracts a member.
    @raise Bad if [obj] is not an object or lacks [name]. *)

val check_rows : series:string -> depth:bool -> json -> unit
(** Validate one scaling series: a non-empty array of rows, each with a
    string [discipline], a positive-integer [flows], positive-or-null
    [ns_per_packet]/[ns_p50]/[ns_p99], and (when [depth]) a
    positive-integer [depth].
    @raise Bad on the first offending row. *)

val disabled_overhead_limit_pct : float
(** The budget the disabled-tracer mode must stay under (5%): the
    observability layer's promise that leaving the wrapper installed in
    a production build costs nothing measurable. *)

val validate : string -> (unit, string) result
(** [validate contents] checks a whole document: well-formed JSON,
    [schema = "sfq-bench-sched/8"] (the previous /7 is rejected as
    stale — a /8 file carries the float originals and sp-pifo in its
    [pifo] series), a [meta] block with non-empty
    [git_sha]/[timestamp_utc]/[hostname] and a positive-integer
    [domains], the [flow_scaling] and [depth_scaling] series, a
    [pifo] series carrying each pifo-sfq/pifo-scfq/pifo-vc rank
    program beside its float original (sfq/scfq/virtual-clock) and
    sp-pifo — in which pifo-sfq must report exactly zero allocations
    per packet and every sp-pifo row must carry its positive
    measured-unfairness budget and fairness bound — a
    [tracing_overhead] series carrying all four modes
    (untraced/disabled/ring/jsonl) whose disabled row must respect
    {!disabled_overhead_limit_pct}, and a
    [parallel] series (the serial-vs-pool oracle-sweep timing) every
    row of which must carry [identical = true] — the witness that the
    parallel sweep reproduced the serial digest byte for byte — and a
    [netsim] series (E27 whole-network scale: churned-star rows for
    sfq and pifo-sfq, both required) whose [packets_per_sec] must be
    positive and whose [peak_rss_kb] (a
    positive integer, or null only where /proc is unavailable) must
    not exceed the row's own [rss_bound_kb] — the "memory is bounded
    by the churn window, not the flow count" gate — and a [replay]
    series (E28's schedule-replay scoreboard: one row per tier with
    integer [cells]/[ok] counts, all four tiers
    single/net/control/kills required) in which the single, net and
    kills tiers must be all-ok (LSTF replays every recording; both
    seeded mutants die) and the control tier must have at least one
    diverging cell — a vacuous negative control invalidates the file.
    Returns [Error msg] instead of raising. *)
