(* Tests for Bench_json, the strict parser + schema checker behind
   validate_bench_json.exe: it must accept the repo's checked-in
   BENCH_sched.json and a minimal valid document, and reject the
   failure shapes a broken emitter actually produces — truncation,
   bare NaN, missing fields, empty series, a wrong schema tag, quartiles
   that contradict their median, a disabled-tracer band past its
   budget. *)

let check_bool = Alcotest.(check bool)

let valid_doc =
  {|{
  "schema": "sfq-bench-sched/9",
  "quick": true,
  "unit": "ns per enqueue+dequeue",
  "meta": {"git_sha": "deadbeef", "timestamp_utc": "2026-08-06T00:00:00Z", "hostname": "box"},
  "flow_scaling": [
    {"discipline": "sfq", "flows": 4, "ns_per_packet": 217.6, "ns_p25": 210.1, "ns_p75": 230.1},
    {"discipline": "scfq", "flows": 64, "ns_per_packet": 250.0, "ns_p25": 250.0, "ns_p75": 250.0}
  ],
  "depth_scaling": [
    {"discipline": "sfq", "flows": 8, "depth": 1024, "queued_packets": 8192, "ns_per_packet": 3.2e2, "ns_p25": 318.0, "ns_p75": 330.0}
  ],
  "tracing_overhead": [
    {"mode": "disabled", "flows": 512, "depth": 64, "untraced_ns_per_packet": 300.0, "ns_per_packet": 303.0, "ns_p25": 296.0, "ns_p75": 311.0, "ratio": 1.01, "ratio_p25": 0.96, "ratio_p75": 1.05},
    {"mode": "ring", "flows": 512, "depth": 64, "untraced_ns_per_packet": 300.0, "ns_per_packet": 360.0, "ns_p25": 350.0, "ns_p75": 370.0, "ratio": 1.2, "ratio_p25": 1.15, "ratio_p75": 1.25},
    {"mode": "jsonl", "flows": 512, "depth": 64, "untraced_ns_per_packet": 300.0, "ns_per_packet": 9000.0, "ns_p25": 8500.0, "ns_p75": 9500.0, "ratio": 30.0, "ratio_p25": 28.0, "ratio_p75": 32.0}
  ]
}|}

(* Build a document with one part overridden — rejection tests swap in
   exactly the broken fragment they target. *)
let meta_frag =
  {|{"git_sha": "deadbeef", "timestamp_utc": "2026-08-06T00:00:00Z", "hostname": "box"}|}

let flow_frag =
  {|[{"discipline": "sfq", "flows": 1, "ns_per_packet": 1.0, "ns_p25": 0.9, "ns_p75": 1.2}]|}

let depth_frag =
  {|[{"discipline": "sfq", "flows": 1, "depth": 2, "ns_per_packet": 1.0, "ns_p25": 0.9, "ns_p75": 1.2}]|}

(* One tracing_overhead row; [ratio] is (p25, median, p75). *)
let overhead_row ?(mode = "disabled") ?(ratio = (0.96, 1.01, 1.05)) () =
  let p25, median, p75 = ratio in
  Printf.sprintf
    {|{"mode": %S, "flows": 512, "depth": 64, "untraced_ns_per_packet": 300.0, "ns_per_packet": 303.0, "ns_p25": 296.0, "ns_p75": 311.0, "ratio": %g, "ratio_p25": %g, "ratio_p75": %g}|}
    mode median p25 p75

let overhead_of rows = "[" ^ String.concat ",\n" rows ^ "]"

let overhead_frag =
  overhead_of
    [
      overhead_row ();
      overhead_row ~mode:"ring" ~ratio:(1.15, 1.2, 1.25) ();
      overhead_row ~mode:"jsonl" ~ratio:(28.0, 30.0, 32.0) ();
    ]

let mk ?(schema = "sfq-bench-sched/9") ?(meta = meta_frag) ?(flow = flow_frag)
    ?(depth = depth_frag) ?(overhead = overhead_frag) () =
  Printf.sprintf
    {|{"schema": %S, "meta": %s, "flow_scaling": %s, "depth_scaling": %s, "tracing_overhead": %s}|}
    schema meta flow depth overhead

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
  expect_error "negative ns" "must be a positive number" (subst "217.6," "-1.0,");
  expect_error "null ns" "must be a positive number" (subst "217.6," "null,")

let test_rejects_missing_fields () =
  expect_error "no schema" "missing field \"schema\""
    {|{"flow_scaling": [], "depth_scaling": []}|};
  expect_error "wrong schema" "unexpected schema" (mk ~schema:"sfq-bench-sched/1" ());
  expect_error "stale schema/7" "unexpected schema" (mk ~schema:"sfq-bench-sched/7" ());
  expect_error "stale schema/8" "stale schema" (mk ~schema:"sfq-bench-sched/8" ());
  expect_error "no meta" "missing field \"meta\""
    (Printf.sprintf
       {|{"schema": "sfq-bench-sched/9", "flow_scaling": %s, "depth_scaling": %s, "tracing_overhead": %s}|}
       flow_frag depth_frag overhead_frag);
  expect_error "empty git_sha" "git_sha"
    (mk
       ~meta:{|{"git_sha": "", "timestamp_utc": "2026-08-06T00:00:00Z", "hostname": "box"}|}
       ());
  expect_error "no depth_scaling" "missing field \"depth_scaling\""
    (Printf.sprintf
       {|{"schema": "sfq-bench-sched/9", "meta": %s, "flow_scaling": %s, "tracing_overhead": %s}|}
       meta_frag flow_frag overhead_frag);
  expect_error "no tracing_overhead" "missing field \"tracing_overhead\""
    (Printf.sprintf
       {|{"schema": "sfq-bench-sched/9", "meta": %s, "flow_scaling": %s, "depth_scaling": %s}|}
       meta_frag flow_frag depth_frag);
  expect_error "row without flows" "missing field \"flows\""
    (mk ~flow:{|[{"discipline": "sfq", "ns_per_packet": 1.0, "ns_p25": 0.9, "ns_p75": 1.2}]|} ());
  expect_error "non-integer flows" "flows must be a positive integer"
    (mk
       ~flow:{|[{"discipline": "sfq", "flows": 1.5, "ns_per_packet": 1.0, "ns_p25": 0.9, "ns_p75": 1.2}]|}
       ());
  expect_error "row without p75" "missing field \"ns_p75\""
    (mk ~flow:{|[{"discipline": "sfq", "flows": 1, "ns_per_packet": 1.0, "ns_p25": 0.9}]|} ());
  expect_error "row without depth" "missing field \"depth\""
    (mk ~depth:flow_frag ());
  expect_error "zero depth" "depth must be a positive integer"
    (mk
       ~depth:{|[{"discipline": "sfq", "flows": 1, "depth": 0, "ns_per_packet": 1.0, "ns_p25": 0.9, "ns_p75": 1.2}]|}
       ())

(* A hand-edited file that contradicts itself: a median outside its
   own quartiles, in any series. *)
let test_rejects_quartile_order () =
  expect_error "median below p25" "quartiles out of order"
    (mk
       ~flow:{|[{"discipline": "sfq", "flows": 1, "ns_per_packet": 0.8, "ns_p25": 0.9, "ns_p75": 1.2}]|}
       ());
  expect_error "median above p75" "quartiles out of order"
    (mk
       ~depth:{|[{"discipline": "sfq", "flows": 1, "depth": 2, "ns_per_packet": 1.3, "ns_p25": 0.9, "ns_p75": 1.2}]|}
       ());
  expect_error "ratio band inverted" "quartiles out of order"
    (mk
       ~overhead:
         (overhead_of
            [
              overhead_row ();
              overhead_row ~mode:"ring" ~ratio:(1.25, 1.2, 1.15) ();
              overhead_row ~mode:"jsonl" ~ratio:(28.0, 30.0, 32.0) ();
            ])
       ())

let test_rejects_bad_overhead () =
  let with_disabled ratio =
    overhead_of
      [
        overhead_row ~ratio ();
        overhead_row ~mode:"ring" ~ratio:(1.15, 1.2, 1.25) ();
        overhead_row ~mode:"jsonl" ~ratio:(28.0, 30.0, 32.0) ();
      ]
  in
  (* the whole band past the claim fails; a band that still reaches
     below it does not *)
  expect_error "band past the budget" "breaches the 5% budget"
    (mk ~overhead:(with_disabled (1.05, 1.08, 1.11)) ());
  (match Bench_json.validate (mk ~overhead:(with_disabled (1.049, 1.08, 1.11)) ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("band straddling the budget rejected: " ^ msg));
  expect_error "missing disabled mode" "missing mode \"disabled\""
    (mk
       ~overhead:
         (overhead_of
            [
              overhead_row ~mode:"ring" ~ratio:(1.15, 1.2, 1.25) ();
              overhead_row ~mode:"jsonl" ~ratio:(28.0, 30.0, 32.0) ();
            ])
       ());
  expect_error "unknown mode" "unknown mode"
    (mk ~overhead:(overhead_of [ overhead_row ~mode:"sometimes" () ]) ());
  expect_error "untraced mode" "unknown mode"
    (mk ~overhead:(overhead_of [ overhead_row ~mode:"untraced" () ]) ());
  expect_error "zero ratio" "ratio_p25 must be a positive number"
    (mk ~overhead:(with_disabled (0.0, 1.0, 1.1)) ());
  expect_error "empty overhead" "tracing_overhead is empty" (mk ~overhead:"[]" ())

let test_rejects_empty_series () =
  expect_error "empty flow_scaling" "flow_scaling is empty" (mk ~flow:"[]" ());
  expect_error "empty depth_scaling" "depth_scaling is empty" (mk ~depth:"[]" ())

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
          Alcotest.test_case "quartiles out of order" `Quick test_rejects_quartile_order;
          Alcotest.test_case "bad tracing overhead" `Quick test_rejects_bad_overhead;
          Alcotest.test_case "empty series" `Quick test_rejects_empty_series;
          Alcotest.test_case "trailing garbage" `Quick test_rejects_trailing_garbage;
        ] );
    ]
