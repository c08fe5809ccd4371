(** Parser and schema checker for [BENCH_sched.json], the machine-readable
    bench trajectory emitted by [bench/main.exe]. Split out of the
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

val disabled_ratio_limit : float
(** 1.05: the disabled tracer's claim, under 5% over an untraced twin.
    The file fails when the disabled row's [ratio_p25] reaches it, that
    is, when the whole interquartile band of the per-round ratios lies
    past the claim. *)

val validate : string -> (unit, string) result
(** [validate contents] checks a whole document: well-formed JSON,
    [schema = "sfq-bench-sched/9"] (the previous /8 is rejected as
    stale), a [meta] block with non-empty
    [git_sha]/[timestamp_utc]/[hostname], and three non-empty series:
    - [flow_scaling] and [depth_scaling] (E14): a string [discipline],
      a positive-integer [flows] (and [depth]), and a positive
      [ns_per_packet] with its quartiles [ns_p25]/[ns_p75];
    - [tracing_overhead] (E22): one row per mode, disabled, ring and
      jsonl, each with positive-integer [flows]/[depth], a positive
      [untraced_ns_per_packet], the traced run's [ns_per_packet] band
      and the [ratio] band ([ratio_p25]/[ratio_p75]) of traced to
      untraced per round. The disabled row's [ratio_p25] must stay under
      {!disabled_ratio_limit}.
    Every band must be ordered, [p25 <= median <= p75].
    Returns [Error msg] instead of raising. *)
