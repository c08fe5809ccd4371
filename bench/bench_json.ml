(* Strict JSON parsing + schema checks for BENCH_sched.json. See the
   mli for why this is hand-rolled and strict. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/') ->
          Buffer.add_char b (Option.get (peek ()));
          advance ()
        | Some 'n' ->
          Buffer.add_char b '\n';
          advance ()
        | Some 't' ->
          Buffer.add_char b '\t';
          advance ()
        | Some ('b' | 'f' | 'r') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let chunk = String.sub s start (!pos - start) in
    match float_of_string_opt chunk with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" chunk)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Bad (Printf.sprintf "expected object around %S" name))

let check_ns ~series ~name row =
  match field name row with
  | Num ns when ns > 0.0 -> ()
  | Null -> ()  (* a failed estimate is allowed, but must be explicit *)
  | _ -> raise (Bad (Printf.sprintf "%s: %s must be positive or null" series name))

let check_pos_int ~series ~name row =
  match field name row with
  | Num f when Float.is_integer f && f > 0.0 -> ()
  | _ -> raise (Bad (Printf.sprintf "%s: %s must be a positive integer" series name))

let check_rows ~series ~depth rows =
  match rows with
  | List [] -> raise (Bad (Printf.sprintf "%s is empty" series))
  | List rows ->
    List.iter
      (fun row ->
        (match field "discipline" row with
        | Str _ -> ()
        | _ -> raise (Bad (series ^ ": discipline must be a string")));
        check_pos_int ~series ~name:"flows" row;
        check_ns ~series ~name:"ns_per_packet" row;
        check_ns ~series ~name:"ns_p50" row;
        check_ns ~series ~name:"ns_p99" row;
        if depth then check_pos_int ~series ~name:"depth" row)
      rows
  | _ -> raise (Bad (Printf.sprintf "%s must be an array" series))

let check_meta meta =
  List.iter
    (fun name ->
      match field name meta with
      | Str s when s <> "" -> ()
      | _ -> raise (Bad (Printf.sprintf "meta: %s must be a non-empty string" name)))
    [ "git_sha"; "timestamp_utc"; "hostname" ];
  match field "domains" meta with
  | Num f when Float.is_integer f && f >= 1.0 -> ()
  | _ -> raise (Bad "meta: domains must be a positive integer")

(* The observability contract: tracing must be attachable everywhere,
   so a disabled tracer on the hot path has to be nearly free. The
   checked-in trajectory (and every CI bench run) carries the proof,
   and this check fails the file if the proof ever degrades. *)
let disabled_overhead_limit_pct = 5.0

let check_overhead rows =
  let series = "tracing_overhead" in
  match rows with
  | List [] -> raise (Bad (Printf.sprintf "%s is empty" series))
  | List rows ->
    List.iter
      (fun row ->
        (match field "mode" row with
        | Str ("untraced" | "disabled" | "ring" | "jsonl") -> ()
        | Str s -> raise (Bad (Printf.sprintf "%s: unknown mode %S" series s))
        | _ -> raise (Bad (series ^ ": mode must be a string")));
        check_pos_int ~series ~name:"flows" row;
        check_pos_int ~series ~name:"depth" row;
        check_ns ~series ~name:"ns_per_packet" row;
        check_ns ~series ~name:"ns_p50" row;
        check_ns ~series ~name:"ns_p99" row;
        match (field "mode" row, field "overhead_pct" row) with
        | Str "untraced", Null -> ()
        | Str "untraced", _ ->
          raise (Bad (series ^ ": untraced overhead_pct must be null"))
        | Str "disabled", Num pct when pct >= disabled_overhead_limit_pct ->
          raise
            (Bad
               (Printf.sprintf
                  "%s: disabled-tracer overhead %.1f%% breaches the %.0f%% budget"
                  series pct disabled_overhead_limit_pct))
        | _, Num _ -> ()
        | Str "disabled", _ ->
          raise (Bad (series ^ ": disabled overhead_pct must be a number"))
        | _, Null -> ()
        | _ -> raise (Bad (series ^ ": overhead_pct must be a number or null")))
      rows;
    let has mode =
      List.exists (fun row -> field "mode" row = Str mode) rows
    in
    List.iter
      (fun mode ->
        if not (has mode) then
          raise (Bad (Printf.sprintf "%s: missing mode %S" series mode)))
      [ "untraced"; "disabled"; "ring"; "jsonl" ]
  | _ -> raise (Bad (Printf.sprintf "%s must be an array" series))

(* The pifo series sets each rank program on the PIFO runtime beside
   its float original under one stepper, and carries two hard promises:
   - pifo-sfq allocates nothing per packet in steady state (the column
     is the measured minor-words rate, emitted at 1e-3 resolution, so
     "zero" means exactly 0.000);
   - every sp-pifo row carries its measured fairness budget (worst
     Theorem-1 H and the exact-SFQ bound it is compared against), so
     the cost of approximate rank order is never reported without its
     price tag. *)
let check_pifo rows =
  let series = "pifo" in
  match rows with
  | List [] -> raise (Bad (Printf.sprintf "%s is empty" series))
  | List rows ->
    List.iter
      (fun row ->
        (match field "discipline" row with
        | Str _ -> ()
        | _ -> raise (Bad (series ^ ": discipline must be a string")));
        check_pos_int ~series ~name:"flows" row;
        check_ns ~series ~name:"ns_per_packet" row;
        check_ns ~series ~name:"ns_p50" row;
        check_ns ~series ~name:"ns_p99" row;
        (match field "allocations_per_packet" row with
        | Num a when a >= 0.0 -> ()
        | _ ->
          raise (Bad (series ^ ": allocations_per_packet must be a non-negative number")));
        match field "discipline" row with
        | Str "pifo-sfq" -> (
          match field "allocations_per_packet" row with
          | Num 0.0 -> ()
          | Num a ->
            raise
              (Bad
                 (Printf.sprintf
                    "%s: pifo-sfq allocates %.3f words/packet — the rank-program \
                     zero-allocation contract is broken"
                    series a))
          | _ -> raise (Bad (series ^ ": pifo-sfq allocations_per_packet must be a number")))
        | Str "sp-pifo" ->
          (match field "measured_unfairness" row with
          | Num h when h > 0.0 -> ()
          | _ ->
            raise
              (Bad
                 (series
                ^ ": sp-pifo rows must carry a positive measured_unfairness budget")));
          (match field "fairness_bound" row with
          | Num b when b > 0.0 -> ()
          | _ -> raise (Bad (series ^ ": sp-pifo rows must carry a positive fairness_bound")))
        | _ -> ())
      rows;
    List.iter
      (fun disc ->
        if not (List.exists (fun row -> field "discipline" row = Str disc) rows) then
          raise (Bad (Printf.sprintf "%s: missing discipline %S" series disc)))
      [ "sfq"; "pifo-sfq"; "scfq"; "pifo-scfq"; "virtual-clock"; "pifo-vc"; "sp-pifo" ]
  | _ -> raise (Bad (Printf.sprintf "%s must be an array" series))

(* The parallel series is the trajectory's record of the sfq.par
   harness: wall time of the oracle acceptance sweep serially and
   through the pool. [identical] is the determinism witness — the two
   runs' outcome digests matched — and a file claiming a speedup
   without it is rejected: the contract is "same bytes, less time",
   never "less time". *)
let check_parallel rows =
  let series = "parallel" in
  match rows with
  | List [] -> raise (Bad (Printf.sprintf "%s is empty" series))
  | List rows ->
    List.iter
      (fun row ->
        (match field "series" row with
        | Str s when s <> "" -> ()
        | _ -> raise (Bad (series ^ ": series must be a non-empty string")));
        check_pos_int ~series ~name:"cells" row;
        check_pos_int ~series ~name:"domains" row;
        (match field "serial_s" row with
        | Num s when s > 0.0 -> ()
        | _ -> raise (Bad (series ^ ": serial_s must be positive")));
        (match field "parallel_s" row with
        | Num s when s > 0.0 -> ()
        | _ -> raise (Bad (series ^ ": parallel_s must be positive")));
        (match field "speedup" row with
        | Num s when s > 0.0 -> ()
        | _ -> raise (Bad (series ^ ": speedup must be positive")));
        match field "identical" row with
        | Bool true -> ()
        | Bool false ->
          raise
            (Bad
               (series
              ^ ": identical is false — the parallel sweep diverged from the \
                 serial reference"))
        | _ -> raise (Bad (series ^ ": identical must be a boolean")))
      rows
  | _ -> raise (Bad (Printf.sprintf "%s must be an array" series))

(* The netsim series records whole-network simulation scale (E27): a
   churned star draining 10^5-10^6 flows per discipline. Two promises
   are gated: both disciplines that share the composed Thm 8/9 oracle
   are present (a row that silently vanishes would hide a
   scale regression), and the recorded peak RSS stays under the bound
   the row itself carries — the "memory is bounded by the window, not
   the flow count" claim, checked on every trajectory. peak_rss_kb may
   be null only when /proc is unavailable (non-Linux), never silently
   absent. *)
let check_netsim rows =
  let series = "netsim" in
  match rows with
  | List [] -> raise (Bad (Printf.sprintf "%s is empty" series))
  | List rows ->
    List.iter
      (fun row ->
        (match field "discipline" row with
        | Str _ -> ()
        | _ -> raise (Bad (series ^ ": discipline must be a string")));
        check_pos_int ~series ~name:"flows" row;
        check_pos_int ~series ~name:"hops" row;
        (match field "packets_per_sec" row with
        | Num pps when pps > 0.0 -> ()
        | _ -> raise (Bad (series ^ ": packets_per_sec must be positive")));
        check_pos_int ~series ~name:"rss_bound_kb" row;
        match (field "peak_rss_kb" row, field "rss_bound_kb" row) with
        | Null, _ -> ()  (* /proc unavailable: allowed, but explicit *)
        | Num peak, Num bound when Float.is_integer peak && peak > 0.0 ->
          if peak > bound then
            raise
              (Bad
                 (Printf.sprintf
                    "%s: peak_rss_kb %.0f exceeds the %.0f kB bound — netsim memory \
                     is no longer window-bounded"
                    series peak bound))
        | _ -> raise (Bad (series ^ ": peak_rss_kb must be a positive integer or null")))
      rows;
    List.iter
      (fun disc ->
        if not (List.exists (fun row -> field "discipline" row = Str disc) rows) then
          raise (Bad (Printf.sprintf "%s: missing discipline %S" series disc)))
      [ "sfq"; "pifo-sfq" ]
  | _ -> raise (Bad (Printf.sprintf "%s must be an array" series))

(* The replay series is E28's universality scoreboard: per-tier cell
   and ok counts from the schedule-replay harness. The counts are
   deterministic (frozen pools, fixed grid seeds), so the gates are
   exact: the single/net/kills tiers must be all-ok — LSTF replays
   every recording and both seeded mutants die — and the control tier
   (SFQ re-running DRR recordings) must have at least one diverging
   cell, or the negative control is vacuous and the net rows prove
   nothing. *)
let check_replay rows =
  let series = "replay" in
  match rows with
  | List [] -> raise (Bad (Printf.sprintf "%s is empty" series))
  | List rows ->
    List.iter
      (fun row ->
        (match field "tier" row with
        | Str ("single" | "net" | "control" | "kills") -> ()
        | Str s -> raise (Bad (Printf.sprintf "%s: unknown tier %S" series s))
        | _ -> raise (Bad (series ^ ": tier must be a string")));
        check_pos_int ~series ~name:"cells" row;
        let ok =
          match field "ok" row with
          | Num f when Float.is_integer f && f >= 0.0 -> f
          | _ -> raise (Bad (series ^ ": ok must be a non-negative integer"))
        in
        let cells = match field "cells" row with Num f -> f | _ -> 0.0 in
        if ok > cells then
          raise (Bad (series ^ ": ok exceeds cells"));
        match field "tier" row with
        | Str "control" ->
          if ok < 1.0 then
            raise
              (Bad
                 (series
                ^ ": no control cell diverged — the negative control is \
                   vacuous and the replay rows prove nothing"))
        | Str tier ->
          if ok <> cells then
            raise
              (Bad
                 (Printf.sprintf
                    "%s: %s tier has %.0f/%.0f cells ok — a replay \
                     regression or a surviving mutant"
                    series tier ok cells))
        | _ -> ())
      rows;
    List.iter
      (fun tier ->
        if not (List.exists (fun row -> field "tier" row = Str tier) rows) then
          raise (Bad (Printf.sprintf "%s: missing tier %S" series tier)))
      [ "single"; "net"; "control"; "kills" ]
  | _ -> raise (Bad (Printf.sprintf "%s must be an array" series))

let validate contents =
  match
    let json = parse contents in
    (match field "schema" json with
    | Str "sfq-bench-sched/8" -> ()
    | Str "sfq-bench-sched/7" ->
      raise (Bad "stale schema sfq-bench-sched/7: regenerate with bench main.exe micro")
    | _ -> raise (Bad "unexpected schema"));
    check_meta (field "meta" json);
    check_rows ~series:"flow_scaling" ~depth:false (field "flow_scaling" json);
    check_rows ~series:"depth_scaling" ~depth:true (field "depth_scaling" json);
    check_pifo (field "pifo" json);
    check_overhead (field "tracing_overhead" json);
    check_parallel (field "parallel" json);
    check_netsim (field "netsim" json);
    check_replay (field "replay" json)
  with
  | () -> Ok ()
  | exception Bad msg -> Error msg
