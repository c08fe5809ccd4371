(* Tests for Bench_json, the strict parser + schema checker behind
   validate_bench_json.exe: it must accept the repo's checked-in
   BENCH_sched.json and a minimal valid document, and reject the
   failure shapes a broken emitter actually produces — truncation,
   bare NaN, missing fields, empty series, a wrong schema tag, a
   disabled-tracer overhead over budget, a replay-series regression. *)

let check_bool = Alcotest.(check bool)

let valid_doc =
  {|{
  "schema": "sfq-bench-sched/8",
  "quick": true,
  "unit": "ns per enqueue+dequeue",
  "meta": {"git_sha": "deadbeef", "timestamp_utc": "2026-08-06T00:00:00Z", "hostname": "box", "domains": 2},
  "flow_scaling": [
    {"discipline": "sfq", "flows": 4, "ns_per_packet": 217.6, "ns_p50": 217.6, "ns_p99": 230.1},
    {"discipline": "scfq", "flows": 64, "ns_per_packet": null, "ns_p50": null, "ns_p99": null}
  ],
  "depth_scaling": [
    {"discipline": "sfq", "flows": 8, "depth": 1024, "ns_per_packet": 3.2e2, "ns_p50": 318.0, "ns_p99": 330.0}
  ],
  "pifo": [
    {"discipline": "sfq", "flows": 512, "ns_per_packet": 210.0, "ns_p50": 210.0, "ns_p99": 220.0, "allocations_per_packet": 14.0},
    {"discipline": "pifo-sfq", "flows": 512, "ns_per_packet": 110.0, "ns_p50": 110.0, "ns_p99": 120.0, "allocations_per_packet": 0.000},
    {"discipline": "scfq", "flows": 512, "ns_per_packet": 190.0, "ns_p50": 190.0, "ns_p99": 200.0, "allocations_per_packet": 12.0},
    {"discipline": "pifo-scfq", "flows": 512, "ns_per_packet": 105.0, "ns_p50": 105.0, "ns_p99": 115.0, "allocations_per_packet": 0.000},
    {"discipline": "virtual-clock", "flows": 512, "ns_per_packet": 180.0, "ns_p50": 180.0, "ns_p99": 190.0, "allocations_per_packet": 12.0},
    {"discipline": "pifo-vc", "flows": 512, "ns_per_packet": 100.0, "ns_p50": 100.0, "ns_p99": 110.0, "allocations_per_packet": 0.000},
    {"discipline": "sp-pifo", "flows": 512, "ns_per_packet": 80.0, "ns_p50": 80.0, "ns_p99": 90.0, "allocations_per_packet": 0.000, "measured_unfairness": 2.5, "fairness_bound": 4.0, "unfairness_excess": -1.5, "pairs_checked": 28}
  ],
  "tracing_overhead": [
    {"mode": "untraced", "flows": 512, "depth": 64, "ns_per_packet": 300.0, "ns_p50": 300.0, "ns_p99": 310.0, "overhead_pct": null},
    {"mode": "disabled", "flows": 512, "depth": 64, "ns_per_packet": 303.0, "ns_p50": 303.0, "ns_p99": 311.0, "overhead_pct": 1.0},
    {"mode": "ring", "flows": 512, "depth": 64, "ns_per_packet": 330.0, "ns_p50": 330.0, "ns_p99": 340.0, "overhead_pct": 10.0},
    {"mode": "jsonl", "flows": 512, "depth": 64, "ns_per_packet": 900.0, "ns_p50": 900.0, "ns_p99": 950.0, "overhead_pct": 200.0}
  ],
  "parallel": [
    {"series": "oracle-sweep", "cells": 1320, "domains": 4, "serial_s": 2.1, "parallel_s": 0.8, "speedup": 2.62, "identical": true}
  ],
  "netsim": [
    {"discipline": "sfq", "flows": 100000, "hops": 2, "packets_per_sec": 350000.0, "peak_rss_kb": 110000, "rss_bound_kb": 1048576},
    {"discipline": "pifo-sfq", "flows": 100000, "hops": 2, "packets_per_sec": 380000.0, "peak_rss_kb": null, "rss_bound_kb": 1048576}
  ],
  "replay": [
    {"tier": "single", "cells": 32, "ok": 32},
    {"tier": "net", "cells": 20, "ok": 20},
    {"tier": "control", "cells": 4, "ok": 4},
    {"tier": "kills", "cells": 5, "ok": 5}
  ]
}|}

(* Build a document with one part overridden — rejection tests swap in
   exactly the broken fragment they target. *)
let meta_frag =
  {|{"git_sha": "deadbeef", "timestamp_utc": "2026-08-06T00:00:00Z", "hostname": "box", "domains": 2}|}

let flow_frag =
  {|[{"discipline": "sfq", "flows": 1, "ns_per_packet": 1.0, "ns_p50": 1.0, "ns_p99": 1.2}]|}

let depth_frag =
  {|[{"discipline": "sfq", "flows": 1, "depth": 2, "ns_per_packet": 1.0, "ns_p50": 1.0, "ns_p99": 1.2}]|}

let overhead_frag =
  {|[{"mode": "untraced", "flows": 512, "depth": 64, "ns_per_packet": 300.0, "ns_p50": 300.0, "ns_p99": 310.0, "overhead_pct": null},
     {"mode": "disabled", "flows": 512, "depth": 64, "ns_per_packet": 303.0, "ns_p50": 303.0, "ns_p99": 311.0, "overhead_pct": 1.0},
     {"mode": "ring", "flows": 512, "depth": 64, "ns_per_packet": 330.0, "ns_p50": 330.0, "ns_p99": 340.0, "overhead_pct": 10.0},
     {"mode": "jsonl", "flows": 512, "depth": 64, "ns_per_packet": 900.0, "ns_p50": 900.0, "ns_p99": 950.0, "overhead_pct": 200.0}]|}

let parallel_frag =
  {|[{"series": "oracle-sweep", "cells": 1320, "domains": 2, "serial_s": 2.0, "parallel_s": 1.9, "speedup": 1.05, "identical": true}]|}

(* The rows of a minimal pifo series that satisfies every gate: each
   rank program beside its float original, pifo-sfq at exactly zero
   allocations, sp-pifo with its fairness budget. *)
let pifo_rows =
  [
    ( "sfq",
      {|{"discipline": "sfq", "flows": 512, "ns_per_packet": 210.0, "ns_p50": 210.0, "ns_p99": 220.0, "allocations_per_packet": 14.0}|}
    );
    ( "pifo-sfq",
      {|{"discipline": "pifo-sfq", "flows": 512, "ns_per_packet": 110.0, "ns_p50": 110.0, "ns_p99": 120.0, "allocations_per_packet": 0.000}|}
    );
    ( "scfq",
      {|{"discipline": "scfq", "flows": 512, "ns_per_packet": 190.0, "ns_p50": 190.0, "ns_p99": 200.0, "allocations_per_packet": 12.0}|}
    );
    ( "pifo-scfq",
      {|{"discipline": "pifo-scfq", "flows": 512, "ns_per_packet": 105.0, "ns_p50": 105.0, "ns_p99": 115.0, "allocations_per_packet": 0.000}|}
    );
    ( "virtual-clock",
      {|{"discipline": "virtual-clock", "flows": 512, "ns_per_packet": 180.0, "ns_p50": 180.0, "ns_p99": 190.0, "allocations_per_packet": 12.0}|}
    );
    ( "pifo-vc",
      {|{"discipline": "pifo-vc", "flows": 512, "ns_per_packet": 100.0, "ns_p50": 100.0, "ns_p99": 110.0, "allocations_per_packet": 0.000}|}
    );
    ( "sp-pifo",
      {|{"discipline": "sp-pifo", "flows": 512, "ns_per_packet": 80.0, "ns_p50": 80.0, "ns_p99": 90.0, "allocations_per_packet": 0.000, "measured_unfairness": 2.5, "fairness_bound": 4.0, "unfairness_excess": -1.5, "pairs_checked": 28}|}
    );
  ]

let pifo_frag = "[" ^ String.concat ",\n" (List.map snd pifo_rows) ^ "]"

(* The pifo series with [disc]'s row replaced ([Some row]) or dropped
   ([None]). *)
let pifo_with row disc =
  let rows =
    List.filter_map
      (fun (d, default) -> if d = disc then row else Some default)
      pifo_rows
  in
  "[" ^ String.concat ",\n" rows ^ "]"

(* A minimal netsim series that satisfies the E27 gates: both
   oracle-bearing disciplines present, peak RSS under its own bound
   (null allowed — the explicit "/proc unavailable" marker). *)
let netsim_frag =
  {|[{"discipline": "sfq", "flows": 100000, "hops": 2, "packets_per_sec": 350000.0, "peak_rss_kb": null, "rss_bound_kb": 1048576},
     {"discipline": "pifo-sfq", "flows": 100000, "hops": 2, "packets_per_sec": 380000.0, "peak_rss_kb": 120000, "rss_bound_kb": 1048576}]|}

(* A minimal replay series that satisfies the E28 gates: all four
   tiers present, single/net/kills all-ok, at least one control cell
   diverging. *)
let replay_frag =
  {|[{"tier": "single", "cells": 32, "ok": 32},
     {"tier": "net", "cells": 20, "ok": 20},
     {"tier": "control", "cells": 4, "ok": 1},
     {"tier": "kills", "cells": 5, "ok": 5}]|}

let mk ?(schema = "sfq-bench-sched/8") ?(meta = meta_frag) ?(flow = flow_frag)
    ?(depth = depth_frag) ?(pifo = pifo_frag) ?(overhead = overhead_frag)
    ?(parallel = parallel_frag) ?(netsim = netsim_frag) ?(replay = replay_frag) () =
  Printf.sprintf
    {|{"schema": %S, "meta": %s, "flow_scaling": %s, "depth_scaling": %s, "pifo": %s, "tracing_overhead": %s, "parallel": %s, "netsim": %s, "replay": %s}|}
    schema meta flow depth pifo overhead parallel netsim replay

let expect_error name needle contents =
  match Bench_json.validate contents with
  | Ok () -> Alcotest.fail (name ^ ": expected rejection, got Ok")
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    check_bool
      (Printf.sprintf "%s: error %S mentions %S" name msg needle)
      true (contains msg needle)

let test_accepts_valid_sample () =
  (match Bench_json.validate valid_doc with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("valid sample rejected: " ^ msg));
  match Bench_json.validate (mk ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("minimal doc rejected: " ^ msg)

let test_accepts_checked_in_file () =
  (* cwd is test/ under `dune runtest` but the workspace root under
     `dune exec`; probe both. *)
  let path =
    if Sys.file_exists "../BENCH_sched.json" then "../BENCH_sched.json"
    else "BENCH_sched.json"
  in
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Bench_json.validate contents with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("BENCH_sched.json rejected: " ^ msg)

let test_rejects_truncated () =
  (* Cutting the document anywhere must fail: either a parse error or
     a missing series — never Ok. *)
  let n = String.length valid_doc in
  for len = 0 to n - 1 do
    match Bench_json.validate (String.sub valid_doc 0 len) with
    | Ok () -> Alcotest.fail (Printf.sprintf "truncation at %d accepted" len)
    | Error _ -> ()
  done

let test_rejects_nan () =
  (* A naive Printf emitter writes literal nan/inf; both are illegal
     JSON and must not parse. *)
  let subst from into =
    let b = Buffer.create (String.length valid_doc) in
    let i = ref 0 in
    let n = String.length valid_doc and nf = String.length from in
    while !i < n do
      if !i + nf <= n && String.sub valid_doc !i nf = from then begin
        Buffer.add_string b into;
        i := !i + nf
      end
      else begin
        Buffer.add_char b valid_doc.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  (* "nan" trips the n-of-"null" literal path; "inf" falls through to
     the number parser with an empty chunk. Either way: rejected. *)
  expect_error "nan" "expected u" (subst "217.6," "nan,");
  expect_error "inf" "bad number" (subst "217.6," "inf,");
  expect_error "negative ns" "positive or null" (subst "217.6," "-1.0,")

let test_rejects_missing_fields () =
  expect_error "no schema" "missing field \"schema\""
    {|{"flow_scaling": [], "depth_scaling": []}|};
  expect_error "wrong schema" "unexpected schema" (mk ~schema:"sfq-bench-sched/1" ());
  expect_error "stale schema/2" "unexpected schema" (mk ~schema:"sfq-bench-sched/2" ());
  expect_error "stale schema/3" "unexpected schema" (mk ~schema:"sfq-bench-sched/3" ());
  expect_error "stale schema/4" "unexpected schema" (mk ~schema:"sfq-bench-sched/4" ());
  expect_error "stale schema/5" "unexpected schema" (mk ~schema:"sfq-bench-sched/5" ());
  expect_error "stale schema/6" "unexpected schema" (mk ~schema:"sfq-bench-sched/6" ());
  expect_error "stale schema/7" "stale schema" (mk ~schema:"sfq-bench-sched/7" ());
  expect_error "meta without domains" "missing field \"domains\""
    (mk
       ~meta:{|{"git_sha": "deadbeef", "timestamp_utc": "2026-08-06T00:00:00Z", "hostname": "box"}|}
       ());
  expect_error "no meta" "missing field \"meta\""
    (Printf.sprintf
       {|{"schema": "sfq-bench-sched/8", "flow_scaling": %s, "depth_scaling": %s, "tracing_overhead": %s}|}
       flow_frag depth_frag overhead_frag);
  expect_error "empty git_sha" "git_sha"
    (mk
       ~meta:{|{"git_sha": "", "timestamp_utc": "2026-08-06T00:00:00Z", "hostname": "box"}|}
       ());
  expect_error "no depth_scaling" "missing field \"depth_scaling\""
    (Printf.sprintf
       {|{"schema": "sfq-bench-sched/8", "meta": %s, "flow_scaling": %s, "tracing_overhead": %s}|}
       meta_frag flow_frag overhead_frag);
  expect_error "row without flows" "missing field \"flows\""
    (mk ~flow:{|[{"discipline": "sfq", "ns_per_packet": 1.0, "ns_p50": 1.0, "ns_p99": 1.2}]|} ());
  expect_error "non-integer flows" "flows must be a positive integer"
    (mk
       ~flow:{|[{"discipline": "sfq", "flows": 1.5, "ns_per_packet": 1.0, "ns_p50": 1.0, "ns_p99": 1.2}]|}
       ());
  expect_error "row without p99" "missing field \"ns_p99\""
    (mk ~flow:{|[{"discipline": "sfq", "flows": 1, "ns_per_packet": 1.0, "ns_p50": 1.0}]|} ());
  expect_error "row without depth" "missing field \"depth\""
    (mk ~depth:flow_frag ());
  expect_error "zero depth" "depth must be a positive integer"
    (mk
       ~depth:{|[{"discipline": "sfq", "flows": 1, "depth": 0, "ns_per_packet": 1.0, "ns_p50": 1.0, "ns_p99": 1.2}]|}
       ())

let test_rejects_bad_overhead () =
  expect_error "overhead budget breach" "breaches the 5% budget"
    (mk
       ~overhead:
         {|[{"mode": "untraced", "flows": 512, "depth": 64, "ns_per_packet": 300.0, "ns_p50": 300.0, "ns_p99": 310.0, "overhead_pct": null},
            {"mode": "disabled", "flows": 512, "depth": 64, "ns_per_packet": 330.0, "ns_p50": 330.0, "ns_p99": 340.0, "overhead_pct": 10.0},
            {"mode": "ring", "flows": 512, "depth": 64, "ns_per_packet": 330.0, "ns_p50": 330.0, "ns_p99": 340.0, "overhead_pct": 10.0},
            {"mode": "jsonl", "flows": 512, "depth": 64, "ns_per_packet": 900.0, "ns_p50": 900.0, "ns_p99": 950.0, "overhead_pct": 200.0}]|}
       ());
  expect_error "missing disabled mode" "missing mode \"disabled\""
    (mk
       ~overhead:
         {|[{"mode": "untraced", "flows": 512, "depth": 64, "ns_per_packet": 300.0, "ns_p50": 300.0, "ns_p99": 310.0, "overhead_pct": null},
            {"mode": "ring", "flows": 512, "depth": 64, "ns_per_packet": 330.0, "ns_p50": 330.0, "ns_p99": 340.0, "overhead_pct": 10.0},
            {"mode": "jsonl", "flows": 512, "depth": 64, "ns_per_packet": 900.0, "ns_p50": 900.0, "ns_p99": 950.0, "overhead_pct": 200.0}]|}
       ());
  expect_error "unknown mode" "unknown mode"
    (mk
       ~overhead:
         {|[{"mode": "sometimes", "flows": 512, "depth": 64, "ns_per_packet": 300.0, "ns_p50": 300.0, "ns_p99": 310.0, "overhead_pct": null}]|}
       ());
  expect_error "untraced with a pct" "untraced overhead_pct must be null"
    (mk
       ~overhead:
         {|[{"mode": "untraced", "flows": 512, "depth": 64, "ns_per_packet": 300.0, "ns_p50": 300.0, "ns_p99": 310.0, "overhead_pct": 0.0},
            {"mode": "disabled", "flows": 512, "depth": 64, "ns_per_packet": 303.0, "ns_p50": 303.0, "ns_p99": 311.0, "overhead_pct": 1.0},
            {"mode": "ring", "flows": 512, "depth": 64, "ns_per_packet": 330.0, "ns_p50": 330.0, "ns_p99": 340.0, "overhead_pct": 10.0},
            {"mode": "jsonl", "flows": 512, "depth": 64, "ns_per_packet": 900.0, "ns_p50": 900.0, "ns_p99": 950.0, "overhead_pct": 200.0}]|}
       ());
  expect_error "empty overhead" "tracing_overhead is empty" (mk ~overhead:"[]" ())

let test_rejects_bad_parallel () =
  expect_error "missing parallel" "missing field \"parallel\""
    (Printf.sprintf
       {|{"schema": "sfq-bench-sched/8", "meta": %s, "flow_scaling": %s, "depth_scaling": %s, "pifo": %s, "tracing_overhead": %s}|}
       meta_frag flow_frag depth_frag pifo_frag overhead_frag);
  expect_error "empty parallel" "parallel is empty" (mk ~parallel:"[]" ());
  (* the determinism witness: a file recording a parallel sweep that
     diverged from the serial reference is itself invalid *)
  expect_error "diverged parallel run" "identical is false"
    (mk
       ~parallel:
         {|[{"series": "oracle-sweep", "cells": 10, "domains": 2, "serial_s": 2.0, "parallel_s": 1.9, "speedup": 1.05, "identical": false}]|}
       ());
  expect_error "zero serial_s" "serial_s must be positive"
    (mk
       ~parallel:
         {|[{"series": "oracle-sweep", "cells": 10, "domains": 2, "serial_s": 0.0, "parallel_s": 1.9, "speedup": 1.05, "identical": true}]|}
       ());
  expect_error "fractional domains" "domains must be a positive integer"
    (mk
       ~parallel:
         {|[{"series": "oracle-sweep", "cells": 10, "domains": 1.5, "serial_s": 2.0, "parallel_s": 1.9, "speedup": 1.05, "identical": true}]|}
       ())

let test_rejects_bad_pifo () =
  expect_error "missing pifo series" "missing field \"pifo\""
    (Printf.sprintf
       {|{"schema": "sfq-bench-sched/8", "meta": %s, "flow_scaling": %s, "depth_scaling": %s, "tracing_overhead": %s, "parallel": %s}|}
       meta_frag flow_frag depth_frag overhead_frag parallel_frag);
  expect_error "empty pifo" "pifo is empty" (mk ~pifo:"[]" ());
  (* rank programs may pay a dispatch premium, never an allocation *)
  expect_error "allocating pifo-sfq" "zero-allocation contract"
    (mk
       ~pifo:
         (pifo_with
            (Some
               {|{"discipline": "pifo-sfq", "flows": 512, "ns_per_packet": 110.0, "ns_p50": 110.0, "ns_p99": 120.0, "allocations_per_packet": 2.0}|})
            "pifo-sfq")
       ());
  (* sp-pifo without its fairness budget is an unpriced approximation *)
  expect_error "sp-pifo without budget" "measured_unfairness"
    (mk
       ~pifo:
         (pifo_with
            (Some
               {|{"discipline": "sp-pifo", "flows": 512, "ns_per_packet": 80.0, "ns_p50": 80.0, "ns_p99": 90.0, "allocations_per_packet": 0.000}|})
            "sp-pifo")
       ());
  expect_error "missing pifo-vc row" "missing discipline \"pifo-vc\""
    (mk ~pifo:(pifo_with None "pifo-vc") ());
  (* a rank program without its float original is no comparison *)
  expect_error "missing sfq row" "missing discipline \"sfq\""
    (mk ~pifo:(pifo_with None "sfq") ());
  expect_error "negative allocations" "non-negative"
    (mk
       ~pifo:
         (pifo_with
            (Some
               {|{"discipline": "pifo-scfq", "flows": 512, "ns_per_packet": 105.0, "ns_p50": 105.0, "ns_p99": 115.0, "allocations_per_packet": -0.5}|})
            "pifo-scfq")
       ())

let test_rejects_bad_netsim () =
  expect_error "missing netsim series" "missing field \"netsim\""
    (Printf.sprintf
       {|{"schema": "sfq-bench-sched/8", "meta": %s, "flow_scaling": %s, "depth_scaling": %s, "pifo": %s, "tracing_overhead": %s, "parallel": %s}|}
       meta_frag flow_frag depth_frag pifo_frag overhead_frag parallel_frag);
  expect_error "empty netsim" "netsim is empty" (mk ~netsim:"[]" ());
  (* a vanished discipline row would hide a scale regression *)
  expect_error "missing pifo-sfq row" "missing discipline \"pifo-sfq\""
    (mk
       ~netsim:
         {|[{"discipline": "sfq", "flows": 100000, "hops": 2, "packets_per_sec": 350000.0, "peak_rss_kb": 110000, "rss_bound_kb": 1048576}]|}
       ());
  (* the window-bounded-memory gate: peak RSS over the recorded bound *)
  expect_error "rss over bound" "exceeds the 1048576 kB bound"
    (mk
       ~netsim:
         {|[{"discipline": "sfq", "flows": 100000, "hops": 2, "packets_per_sec": 350000.0, "peak_rss_kb": 2097152, "rss_bound_kb": 1048576},
            {"discipline": "pifo-sfq", "flows": 100000, "hops": 2, "packets_per_sec": 380000.0, "peak_rss_kb": 120000, "rss_bound_kb": 1048576}]|}
       ());
  expect_error "zero pps" "packets_per_sec must be positive"
    (mk
       ~netsim:
         {|[{"discipline": "sfq", "flows": 100000, "hops": 2, "packets_per_sec": 0.0, "peak_rss_kb": 110000, "rss_bound_kb": 1048576},
            {"discipline": "pifo-sfq", "flows": 100000, "hops": 2, "packets_per_sec": 380000.0, "peak_rss_kb": 120000, "rss_bound_kb": 1048576}]|}
       ());
  expect_error "absent peak_rss_kb" "missing field \"peak_rss_kb\""
    (mk
       ~netsim:
         {|[{"discipline": "sfq", "flows": 100000, "hops": 2, "packets_per_sec": 350000.0, "rss_bound_kb": 1048576},
            {"discipline": "pifo-sfq", "flows": 100000, "hops": 2, "packets_per_sec": 380000.0, "peak_rss_kb": 120000, "rss_bound_kb": 1048576}]|}
       ())

let test_rejects_bad_replay () =
  expect_error "missing replay series" "missing field \"replay\""
    (Printf.sprintf
       {|{"schema": "sfq-bench-sched/8", "meta": %s, "flow_scaling": %s, "depth_scaling": %s, "pifo": %s, "tracing_overhead": %s, "parallel": %s, "netsim": %s}|}
       meta_frag flow_frag depth_frag pifo_frag overhead_frag parallel_frag netsim_frag);
  expect_error "empty replay" "replay is empty" (mk ~replay:"[]" ());
  (* a tier whose rows stop being all-ok is a replay regression *)
  expect_error "net regression" "replay regression"
    (mk
       ~replay:
         {|[{"tier": "single", "cells": 32, "ok": 32},
            {"tier": "net", "cells": 20, "ok": 19},
            {"tier": "control", "cells": 4, "ok": 1},
            {"tier": "kills", "cells": 5, "ok": 5}]|}
       ());
  (* a surviving mutant is the same failure shape *)
  expect_error "surviving mutant" "replay regression"
    (mk
       ~replay:
         {|[{"tier": "single", "cells": 32, "ok": 32},
            {"tier": "net", "cells": 20, "ok": 20},
            {"tier": "control", "cells": 4, "ok": 1},
            {"tier": "kills", "cells": 5, "ok": 4}]|}
       ());
  (* SFQ replaying everything means the control proves nothing *)
  expect_error "vacuous control" "vacuous"
    (mk
       ~replay:
         {|[{"tier": "single", "cells": 32, "ok": 32},
            {"tier": "net", "cells": 20, "ok": 20},
            {"tier": "control", "cells": 4, "ok": 0},
            {"tier": "kills", "cells": 5, "ok": 5}]|}
       ());
  expect_error "missing control tier" "missing tier \"control\""
    (mk
       ~replay:
         {|[{"tier": "single", "cells": 32, "ok": 32},
            {"tier": "net", "cells": 20, "ok": 20},
            {"tier": "kills", "cells": 5, "ok": 5}]|}
       ());
  expect_error "unknown tier" "unknown tier"
    (mk ~replay:{|[{"tier": "mystery", "cells": 1, "ok": 1}]|} ());
  expect_error "ok over cells" "ok exceeds cells"
    (mk
       ~replay:
         {|[{"tier": "single", "cells": 32, "ok": 33},
            {"tier": "net", "cells": 20, "ok": 20},
            {"tier": "control", "cells": 4, "ok": 1},
            {"tier": "kills", "cells": 5, "ok": 5}]|}
       ());
  expect_error "fractional ok" "non-negative integer"
    (mk
       ~replay:
         {|[{"tier": "single", "cells": 32, "ok": 31.5},
            {"tier": "net", "cells": 20, "ok": 20},
            {"tier": "control", "cells": 4, "ok": 1},
            {"tier": "kills", "cells": 5, "ok": 5}]|}
       ())

let test_rejects_empty_series () =
  expect_error "empty flow_scaling" "flow_scaling is empty" (mk ~flow:"[]" ())

let test_rejects_trailing_garbage () =
  expect_error "trailing" "trailing garbage" (valid_doc ^ " x")

let test_parser_primitives () =
  let open Bench_json in
  check_bool "escapes" true
    (parse {|"a\"b\\c\nd"|} = Str "a\"b\\c\nd");
  check_bool "nested" true
    (parse {|{"a": [1, true, null, "s"]}|}
    = Obj [ ("a", List [ Num 1.0; Bool true; Null; Str "s" ]) ]);
  check_bool "exponent" true (parse "3.2e2" = Num 320.0);
  check_bool "field" true (field "a" (Obj [ ("a", Null) ]) = Null);
  (match field "b" (Obj [ ("a", Null) ]) with
  | exception Bad _ -> ()
  | _ -> Alcotest.fail "missing field accepted")

let () =
  Alcotest.run "bench_json"
    [
      ( "accept",
        [
          Alcotest.test_case "valid sample" `Quick test_accepts_valid_sample;
          Alcotest.test_case "checked-in BENCH_sched.json" `Quick
            test_accepts_checked_in_file;
          Alcotest.test_case "parser primitives" `Quick test_parser_primitives;
        ] );
      ( "reject",
        [
          Alcotest.test_case "every truncation" `Quick test_rejects_truncated;
          Alcotest.test_case "nan / inf / negative" `Quick test_rejects_nan;
          Alcotest.test_case "missing fields" `Quick test_rejects_missing_fields;
          Alcotest.test_case "bad tracing overhead" `Quick test_rejects_bad_overhead;
          Alcotest.test_case "bad pifo series" `Quick test_rejects_bad_pifo;
          Alcotest.test_case "bad parallel series" `Quick test_rejects_bad_parallel;
          Alcotest.test_case "bad netsim series" `Quick test_rejects_bad_netsim;
          Alcotest.test_case "bad replay series" `Quick test_rejects_bad_replay;
          Alcotest.test_case "empty series" `Quick test_rejects_empty_series;
          Alcotest.test_case "trailing garbage" `Quick test_rejects_trailing_garbage;
        ] );
    ]
