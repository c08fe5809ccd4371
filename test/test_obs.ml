(* Tests for sfq.obs: tracer ring semantics (flight-recorder
   overwrite), tag-hook wiring and its [active] gating, wrapper
   transparency, the disabled tracer's exact allocation budget, the
   JSONL and Chrome trace_event exporters (structural validity checked
   by parsing, not grepping), per-flow summaries, the metrics registry
   and its Server/Sim wiring, and the oracle cross-check: per-flow
   service derived from the trace must agree with the Service_log the
   fairness analysis is built on. *)

open Sfq_base
open Sfq_core
open Sfq_obs
open Sfq_oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_str = Alcotest.(check string)

let pkt ?rate ?(born = 0.0) ~flow ~seq ~len () = Packet.make ?rate ~flow ~seq ~len ~born ()
let fifo () = Sfq_sched.Fifo.sched (Sfq_sched.Fifo.create ())

(* Equal-weight round-robin CBR at 90% load: every packet departs, so a
   big-ring trace retains each packet's full arrival/tag/dequeue story. *)
let rr_workload ~flows ~pkts ~len =
  let capacity = 1_000_000.0 in
  let gap = float_of_int len /. (0.9 *. capacity) in
  let arrivals =
    List.init (flows * pkts) (fun k ->
        { Workload.at = float_of_int k *. gap; flow = k mod flows; len; rate = None })
  in
  {
    Workload.capacity;
    weights = List.init flows (fun f -> (f, 0.9 *. capacity /. float_of_int flows));
    arrivals;
    reweights = [];
    churn = [];
    rate_changes = [];
    buffer = None;
  }

(* SFQ with the tracer fully attached: wrapper for arrivals/dequeues
   (v(t) sampled at each dequeue), tag hook for eq. 4-5 assignments. *)
let traced_sfq ?capacity (w : Workload.t) =
  let core = Sfq.create (Weights.of_list w.weights) in
  let tracer = Tracer.create ?capacity () in
  Sfq.set_tag_hook core ~active:(Tracer.active_flag tracer) (Tracer.tag_hook tracer);
  let sched = Tracer.wrap ~vtime:(fun () -> Sfq.vtime core) tracer (Sfq.sched core) in
  (tracer, sched)

(* ------------------------------------------------------------------ *)
(* Ring semantics                                                       *)

let test_ring_basic () =
  let t = Tracer.create ~capacity:8 () in
  check_int "capacity" 8 (Tracer.capacity t);
  for i = 1 to 5 do
    Tracer.record_arrival t ~now:(float_of_int i) (pkt ~flow:0 ~seq:i ~len:100 ())
  done;
  check_int "length" 5 (Tracer.length t);
  check_int "total" 5 (Tracer.total t);
  check_int "dropped" 0 (Tracer.dropped t);
  List.iteri
    (fun i (e : Event.t) ->
      check_float "oldest first" (float_of_int (i + 1)) e.time;
      check_int "seq" (i + 1) e.seq)
    (Tracer.to_list t);
  let via_iter = ref [] in
  Tracer.iter t ~f:(fun e -> via_iter := e :: !via_iter);
  check_int "iter agrees with to_list" 5 (List.length !via_iter);
  (* vtime is NaN on arrivals, so compare identifying fields, not
     whole records *)
  Alcotest.(check bool)
    "get agrees with iter" true
    (List.for_all2
       (fun (a : Event.t) (b : Event.t) ->
         (a.kind, a.time, a.flow, a.seq, a.len) = (b.kind, b.time, b.flow, b.seq, b.len))
       (List.rev !via_iter)
       (List.init 5 (Tracer.get t)))

let test_ring_overwrite () =
  let t = Tracer.create ~capacity:3 () in
  for i = 1 to 7 do
    Tracer.record_arrival t ~now:(float_of_int i) (pkt ~flow:0 ~seq:i ~len:100 ())
  done;
  check_int "length capped" 3 (Tracer.length t);
  check_int "total keeps counting" 7 (Tracer.total t);
  check_int "dropped = total - length" 4 (Tracer.dropped t);
  (* the retained window is the newest 3, still oldest-first *)
  Alcotest.(check (list int)) "newest window, oldest first" [ 5; 6; 7 ]
    (List.map (fun (e : Event.t) -> e.seq) (Tracer.to_list t));
  check_bool "get out of range raises" true
    (try
       ignore (Tracer.get t 3);
       false
     with Invalid_argument _ -> true)

let test_ring_clear () =
  let t = Tracer.create ~capacity:4 () in
  for i = 1 to 6 do
    Tracer.record_arrival t ~now:0.0 (pkt ~flow:0 ~seq:i ~len:100 ())
  done;
  Tracer.clear t;
  check_int "length after clear" 0 (Tracer.length t);
  check_int "total after clear" 0 (Tracer.total t);
  Tracer.record_arrival t ~now:1.0 (pkt ~flow:1 ~seq:1 ~len:100 ());
  check_int "records again" 1 (Tracer.length t)

let test_disabled_noop () =
  let t = Tracer.disabled () in
  check_bool "starts disabled" false (Tracer.enabled t);
  Tracer.record_arrival t ~now:0.0 (pkt ~flow:0 ~seq:1 ~len:100 ());
  Tracer.record_idle t ~now:0.0;
  check_int "nothing recorded" 0 (Tracer.total t);
  (* active_flag is the live cell set_enabled flips, not a copy *)
  let flag = Tracer.active_flag t in
  Tracer.set_enabled t true;
  check_bool "flag follows set_enabled" true !flag;
  flag := false;
  check_bool "set_enabled follows flag" false (Tracer.enabled t)

(* ------------------------------------------------------------------ *)
(* Wrapper                                                              *)

let test_wrap_events () =
  let t = Tracer.create () in
  let sched = Tracer.wrap ~vtime:(fun () -> 42.0) t (fifo ()) in
  sched.Sched.enqueue ~now:0.0 (pkt ~flow:3 ~seq:1 ~len:1000 ());
  sched.Sched.enqueue ~now:0.5 (pkt ~flow:4 ~seq:1 ~len:2000 ());
  check_int "size passes through" 2 (sched.Sched.size ());
  check_int "backlog passes through" 1 (sched.Sched.backlog 3);
  ignore (sched.Sched.dequeue ~now:1.0);
  ignore (sched.Sched.dequeue ~now:2.0);
  Alcotest.(check bool) "empty poll" true (sched.Sched.dequeue ~now:3.0 = None);
  let evs = Tracer.to_list t in
  Alcotest.(check (list string)) "event sequence"
    [ "busy"; "arrival"; "arrival"; "dequeue"; "dequeue"; "idle" ]
    (List.map (fun (e : Event.t) -> Event.kind_to_string e.kind) evs);
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Dequeue -> check_float "v sampled at dequeue" 42.0 e.vtime
      | Event.Arrival -> check_bool "v not sampled at arrival" true (Float.is_nan e.vtime)
      | Event.Busy | Event.Idle -> check_int "no flow on transitions" (-1) e.flow
      | Event.Tag -> Alcotest.fail "no tag events without a hook"
      | Event.Drop -> Alcotest.fail "no drops without evictions")
    evs

let test_wrap_transparent () =
  (* Same arrival sequence through a bare SFQ and a traced one: the
     wrapper must not change what the scheduler emits. A disabled
     tracer must additionally leave the ring untouched. *)
  let w = List.hd (Workload.deterministic_pool ~seed:11 ~n:1 ()) in
  let drive sched =
    let seqs = Hashtbl.create 8 in
    List.iter
      (fun (a : Workload.arrival) ->
        let seq = 1 + (Hashtbl.find_opt seqs a.flow |> Option.value ~default:0) in
        Hashtbl.replace seqs a.flow seq;
        sched.Sched.enqueue ~now:a.at
          (pkt ?rate:a.rate ~born:a.at ~flow:a.flow ~seq ~len:a.len ()))
      w.arrivals;
    let out = ref [] in
    let rec drain () =
      match sched.Sched.dequeue ~now:1e9 with
      | None -> ()
      | Some p ->
        out := (p.Packet.flow, p.Packet.seq) :: !out;
        drain ()
    in
    drain ();
    List.rev !out
  in
  let bare = drive (Sfq.sched (Sfq.create (Weights.of_list w.weights))) in
  let tracer = Tracer.create () in
  Tracer.set_enabled tracer false;
  let core = Sfq.create (Weights.of_list w.weights) in
  Sfq.set_tag_hook core ~active:(Tracer.active_flag tracer) (Tracer.tag_hook tracer);
  let traced = drive (Tracer.wrap ~vtime:(fun () -> Sfq.vtime core) tracer (Sfq.sched core)) in
  Alcotest.(check (list (pair int int))) "identical departure order" bare traced;
  check_int "disabled tracer recorded nothing" 0 (Tracer.total tracer)

(* ------------------------------------------------------------------ *)
(* Allocation: the disabled tracer's exact-count budget                 *)

(* The E22 bench's stepper: float SFQ [depth] deep over [flows] flows;
   a step enqueues one packet round-robin and dequeues one, with a
   computed [now]. *)
let e22_stepper ~flows ~depth (sched : Sched.t) =
  let seqs = Array.make flows 0 in
  let now = ref 0.0 in
  let flow = ref 0 in
  for f = 0 to flows - 1 do
    for _ = 1 to depth do
      seqs.(f) <- seqs.(f) + 1;
      sched.Sched.enqueue ~now:0.0 (Packet.make ~flow:f ~seq:seqs.(f) ~len:1000 ~born:0.0 ())
    done
  done;
  fun () ->
    let f = !flow in
    flow := (f + 1) mod flows;
    seqs.(f) <- seqs.(f) + 1;
    now := !now +. 1e-4;
    sched.Sched.enqueue ~now:!now (Packet.make ~flow:f ~seq:seqs.(f) ~len:1000 ~born:!now ());
    ignore (sched.Sched.dequeue ~now:!now)

(* Minor words per step, counted after a warm-up that grows every ring
   to its final size. *)
let words_per_op step =
  let ops = 20_000 in
  for _ = 1 to ops do
    step ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to ops do
    step ()
  done;
  (Gc.minor_words () -. before) /. float_of_int ops

(* A disabled tracer, wrapper and tag hook installed, allocates exactly
   what the bare scheduler does: the E22 claim's deterministic part. A
   live ring adds the boxed v(t) that [wrap] samples at each dequeue
   (2 words), and nothing else. *)
let test_disabled_alloc () =
  let traced tracer =
    let core = Sfq.create (Weights.uniform 1000.0) in
    Sfq.set_tag_hook core ~active:(Tracer.active_flag tracer) (Tracer.tag_hook tracer);
    Tracer.wrap ~vtime:(fun () -> Sfq.vtime core) tracer (Sfq.sched core)
  in
  List.iter
    (fun (flows, depth) ->
      let words sched = words_per_op (e22_stepper ~flows ~depth sched) in
      let untraced = words (Sfq.sched (Sfq.create (Weights.uniform 1000.0))) in
      let disabled = words (traced (Tracer.disabled ())) in
      let ring = words (traced (Tracer.create ~capacity:65536 ())) in
      let shape = Printf.sprintf "%dx%d" flows depth in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: disabled words per op = untraced (%.4f)" shape untraced)
        untraced disabled;
      check_bool
        (Printf.sprintf "%s: ring %.4f words per op <= untraced + 2" shape ring)
        true
        (ring <= untraced +. 2.0))
    [ (512, 64); (64, 4); (8, 1) ]

(* ------------------------------------------------------------------ *)
(* Tag hooks                                                            *)

let test_tag_hook_matches_enqueue_tagged () =
  let core = Sfq.create (Weights.of_list [ (0, 500.0); (1, 250.0) ]) in
  let t = Tracer.create () in
  Sfq.set_tag_hook core (Tracer.tag_hook t);
  let v_before = Sfq.vtime core in
  let stag, ftag = Sfq.enqueue_tagged core ~now:0.25 (pkt ~flow:1 ~seq:1 ~len:1000 ()) in
  let e = Tracer.get t 0 in
  check_str "kind" "tag" (Event.kind_to_string e.Event.kind);
  check_float "event time" 0.25 e.Event.time;
  check_int "flow" 1 e.Event.flow;
  check_int "seq" 1 e.Event.seq;
  check_int "len" 1000 e.Event.len;
  check_float "start tag matches return" stag e.Event.stag;
  check_float "finish tag matches return" ftag e.Event.ftag;
  check_float "eq. 5: F = S + l/r" (stag +. (1000.0 /. 250.0)) ftag;
  check_float "v(t) at assignment" v_before e.Event.vtime

let test_tag_hook_gating () =
  let core = Sfq.create (Weights.of_list [ (0, 1.0) ]) in
  let t = Tracer.create () in
  Sfq.set_tag_hook core ~active:(Tracer.active_flag t) (Tracer.tag_hook t);
  Tracer.set_enabled t false;
  ignore (Sfq.enqueue_tagged core ~now:0.0 (pkt ~flow:0 ~seq:1 ~len:100 ()));
  check_int "hook gated off" 0 (Tracer.total t);
  Tracer.set_enabled t true;
  ignore (Sfq.enqueue_tagged core ~now:1.0 (pkt ~flow:0 ~seq:2 ~len:100 ()));
  check_int "hook live again" 1 (Tracer.total t);
  check_int "the post-enable packet" 2 (Tracer.get t 0).Event.seq;
  Sfq.clear_tag_hook core;
  ignore (Sfq.enqueue_tagged core ~now:2.0 (pkt ~flow:0 ~seq:3 ~len:100 ()));
  check_int "cleared hook never fires" 1 (Tracer.total t)

let test_hsfq_class_hook () =
  let h = Hsfq.create () in
  let leaf0 = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo ()) in
  let leaf1 = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:2.0 (fifo ()) in
  Hsfq.set_classifier h (Hsfq.classifier_by_flow [ (0, leaf0); (1, leaf1) ]);
  let t = Tracer.create () in
  Hsfq.set_tag_hook h ~active:(Tracer.active_flag t) (Tracer.class_tag_hook t);
  Hsfq.enqueue h ~now:0.0 (pkt ~flow:0 ~seq:1 ~len:1000 ());
  Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:1000 ());
  ignore (Hsfq.dequeue h ~now:0.0);
  ignore (Hsfq.dequeue h ~now:0.0);
  let tags =
    Tracer.to_list t
    |> List.filter (fun (e : Event.t) -> e.kind = Event.Tag)
    |> List.map (fun (e : Event.t) -> (e.flow, e.ftag -. e.stag))
    |> List.sort compare
  in
  (* flow field carries the class id; F - S = l/w per edge (§3) *)
  Alcotest.(check (list (pair int (float 1e-9))))
    "one emission per class, F-S = l/w"
    [ (Hsfq.class_id h leaf0, 1000.0); (Hsfq.class_id h leaf1, 500.0) ]
    tags

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)

let jnum = function Bench_json.Num f -> f | _ -> Alcotest.fail "expected JSON number"
let jstr = function Bench_json.Str s -> s | _ -> Alcotest.fail "expected JSON string"
let jlist = function Bench_json.List l -> l | _ -> Alcotest.fail "expected JSON array"

let run_traced ?capacity () =
  let w = rr_workload ~flows:3 ~pkts:5 ~len:1000 in
  let tracer, sched = traced_sfq ?capacity w in
  let outcome = Run.fixed_rate ~sched ~monitors:[] w in
  check_int "all packets depart" 15 outcome.Run.departures;
  tracer

let test_kind_string_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Event.kind_to_string k) true
        (Event.kind_of_string (Event.kind_to_string k) = Some k))
    [ Event.Arrival; Event.Tag; Event.Dequeue; Event.Busy; Event.Idle ]

let test_jsonl_roundtrip () =
  let tracer = run_traced () in
  let lines =
    Export.jsonl tracer |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per retained event" (Tracer.length tracer) (List.length lines);
  List.iter2
    (fun line (e : Event.t) ->
      let j = Bench_json.parse line in
      check_str "ev" (Event.kind_to_string e.kind) (jstr (Bench_json.field "ev" j));
      check_float "t" e.time (jnum (Bench_json.field "t" j));
      check_int "flow" e.flow (int_of_float (jnum (Bench_json.field "flow" j)));
      check_int "seq" e.seq (int_of_float (jnum (Bench_json.field "seq" j)));
      check_int "len" e.len (int_of_float (jnum (Bench_json.field "len" j)));
      if e.kind = Event.Tag then begin
        check_float "stag" e.stag (jnum (Bench_json.field "stag" j));
        check_float "ftag" e.ftag (jnum (Bench_json.field "ftag" j));
        check_float "v" e.vtime (jnum (Bench_json.field "v" j))
      end;
      if Float.is_nan e.vtime then
        check_bool "NaN v omitted" true
          (match Bench_json.field "v" j with
          | exception Bench_json.Bad _ -> true
          | _ -> false))
    lines (Tracer.to_list tracer)

let test_jsonl_stream_matches_ring_dump () =
  (* The streaming sink and an offline dump of the same (unwrapped)
     ring must produce byte-identical JSONL. *)
  let path = Filename.temp_file "sfq_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let t = Tracer.create ~sink:(Tracer.Jsonl oc) () in
      for i = 1 to 4 do
        Tracer.record_arrival t ~now:(float_of_int i) (pkt ~flow:0 ~seq:i ~len:10 ())
      done;
      close_out oc;
      let ic = open_in path in
      let n = in_channel_length ic in
      let streamed = really_input_string ic n in
      close_in ic;
      check_str "stream = dump" (Export.jsonl t) streamed)

let test_chrome_structure () =
  let tracer = run_traced () in
  let j = Bench_json.parse (Export.chrome ~name:"unit" tracer) in
  let events = jlist (Bench_json.field "traceEvents" j) in
  let phs = List.map (fun e -> jstr (Bench_json.field "ph" e)) events in
  check_bool "only known phases" true
    (List.for_all (fun p -> List.mem p [ "M"; "X"; "C"; "i" ]) phs);
  List.iter
    (fun e -> check_float "single process" 1.0 (jnum (Bench_json.field "pid" e)))
    events;
  let named ph name =
    List.filter
      (fun e ->
        jstr (Bench_json.field "ph" e) = ph && jstr (Bench_json.field "name" e) = name)
      events
  in
  check_int "process_name metadata" 1 (List.length (named "M" "process_name"));
  (* one thread track for the scheduler + one per flow *)
  let threads = named "M" "thread_name" in
  check_int "thread tracks" 4 (List.length threads);
  Alcotest.(check (list int)) "tids: scheduler then flow+1" [ 0; 1; 2; 3 ]
    (List.sort compare
       (List.map (fun e -> int_of_float (jnum (Bench_json.field "tid" e))) threads));
  (* every departed packet is a complete slice on its flow's track,
     with non-negative duration and the real tags as args *)
  let slices = List.filter (fun e -> jstr (Bench_json.field "ph" e) = "X") events in
  check_int "one slice per departed packet" 15 (List.length slices);
  List.iter
    (fun e ->
      check_bool "slice on a flow track" true
        (jnum (Bench_json.field "tid" e) >= 1.0);
      check_bool "non-negative duration" true (jnum (Bench_json.field "dur" e) >= 0.0);
      let args = Bench_json.field "args" e in
      check_bool "tags attached" true
        (jnum (Bench_json.field "ftag" args) >= jnum (Bench_json.field "stag" args)))
    slices;
  (* v(t) appears as a counter track with non-decreasing values
     (tag_monotone, busy period never ends in this run) *)
  let vs = List.map (fun e -> jnum (Bench_json.field "v" (Bench_json.field "args" e))) (named "C" "v(t)") in
  check_bool "v(t) counter points exist" true (vs <> []);
  check_bool "v(t) non-decreasing" true
    (fst (List.fold_left (fun (ok, prev) v -> (ok && v >= prev, v)) (true, neg_infinity) vs))

let test_chrome_ring_wraparound () =
  (* A tiny ring loses old arrivals: their dequeues must degrade to
     instants, and the document must stay valid. *)
  let tracer = run_traced ~capacity:8 () in
  check_int "ring clipped" 8 (Tracer.length tracer);
  check_bool "history was lost" true (Tracer.dropped tracer > 0);
  let j = Bench_json.parse (Export.chrome tracer) in
  let events = jlist (Bench_json.field "traceEvents" j) in
  let orphan_dequeues =
    List.filter
      (fun e ->
        jstr (Bench_json.field "ph" e) = "i"
        && (match Bench_json.field "cat" e with
           | Bench_json.Str "packet" -> true
           | _ | (exception Bench_json.Bad _) -> false))
      events
  in
  check_bool "orphaned dequeues become instants" true (orphan_dequeues <> [])

(* ------------------------------------------------------------------ *)
(* Oracle cross-check                                                   *)

let test_trace_matches_service_log () =
  (* Drive a pool workload through a netsim server with both observers
     attached: the per-flow bits the trace says were served must equal
     W_f as accounted by Service_log — the measurement substrate every
     fairness number in the repo rests on. *)
  let open Sfq_netsim in
  let w = List.hd (Workload.deterministic_pool ~seed:7 ~n:1 ()) in
  let tracer, sched = traced_sfq w in
  let sim = Sim.create () in
  let server =
    Server.create sim ~name:"srv" ~rate:(Rate_process.constant w.capacity) ~sched ()
  in
  let log = Sfq_analysis.Service_log.attach server in
  let seqs = Hashtbl.create 8 in
  List.iter
    (fun (a : Workload.arrival) ->
      let seq = 1 + (Hashtbl.find_opt seqs a.flow |> Option.value ~default:0) in
      Hashtbl.replace seqs a.flow seq;
      Sim.schedule sim ~at:a.at (fun () ->
          Server.inject server (pkt ?rate:a.rate ~born:a.at ~flow:a.flow ~seq ~len:a.len ())))
    w.arrivals;
  Sim.run_all sim ();
  check_int "run drained" (List.length w.arrivals) (Server.departed server);
  check_int "no ring loss" 0 (Tracer.dropped tracer);
  let traced_bits = Hashtbl.create 8 in
  Tracer.iter tracer ~f:(fun (e : Event.t) ->
      if e.kind = Event.Dequeue then
        Hashtbl.replace traced_bits e.flow
          (e.len + (Hashtbl.find_opt traced_bits e.flow |> Option.value ~default:0)));
  let until = Sim.now sim +. 1.0 in
  let flows = Sfq_analysis.Service_log.flows log in
  check_bool "log saw the flows" true (flows <> []);
  List.iter
    (fun f ->
      check_float
        (Printf.sprintf "flow %d: trace bits = W_f" f)
        (Sfq_analysis.Service_log.service log f ~t1:0.0 ~t2:until)
        (float_of_int (Hashtbl.find_opt traced_bits f |> Option.value ~default:0)))
    flows

(* ------------------------------------------------------------------ *)
(* Summary                                                              *)

let test_summary_per_flow () =
  let tracer = run_traced () in
  let rows = Summary.per_flow tracer in
  Alcotest.(check (list int)) "flows ascending" [ 0; 1; 2 ]
    (List.map (fun (r : Summary.flow_summary) -> r.flow) rows);
  List.iter
    (fun (r : Summary.flow_summary) ->
      check_int "all departed" 5 r.departed;
      check_int "none queued" 0 r.queued;
      check_bool "backlog reached 1" true (r.max_backlog >= 1);
      check_bool "quantiles ordered" true
        (0.0 <= r.delay_p50 && r.delay_p50 <= r.delay_p99 && r.delay_p99 <= r.delay_max);
      check_bool "tag lag non-negative" true (r.tag_lag_max >= 0.0))
    rows;
  let rendered = Summary.render tracer in
  check_bool "render is a table with one row per flow" true
    (String.length rendered > 0
    && List.length (String.split_on_char '\n' rendered) >= 4)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let find_sample m name flow =
  match
    List.find_opt
      (fun (s : Metrics.sample) -> s.name = name && s.flow = flow)
      (Metrics.snapshot m)
  with
  | Some s -> s.value
  | None -> Alcotest.fail (Printf.sprintf "no sample %s" name)

let counter_of m name flow =
  match find_sample m name flow with
  | Metrics.Counter v -> v
  | _ -> Alcotest.fail (name ^ " is not a counter")

let gauge_of m name flow =
  match find_sample m name flow with
  | Metrics.Gauge { value; max } -> (value, max)
  | _ -> Alcotest.fail (name ^ " is not a gauge")

let histo_of m name flow =
  match find_sample m name flow with
  | Metrics.Histo h -> h
  | _ -> Alcotest.fail (name ^ " is not a histogram")

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "pkts" in
  Metrics.incr c;
  Metrics.add c 2.5;
  check_float "counter accumulates" 3.5 (Metrics.counter_value c);
  Metrics.incr (Metrics.counter m "pkts");
  check_float "re-register returns same instrument" 4.5 (Metrics.counter_value c);
  check_bool "negative add rejected" true
    (try
       Metrics.add c (-1.0);
       false
     with Invalid_argument _ -> true);
  let g = Metrics.gauge m ~flow:2 "depth" in
  Metrics.set_gauge g 3.0;
  Metrics.set_gauge g 1.0;
  check_float "gauge is last value" 1.0 (Metrics.gauge_value g);
  check_float "gauge keeps high-water mark" 3.0 (Metrics.gauge_max g);
  (* flow label distinguishes instruments of the same name *)
  Metrics.incr (Metrics.counter m ~flow:0 "pkts");
  check_float "labelled series is separate" 1.0
    (Metrics.counter_value (Metrics.counter m ~flow:0 "pkts"));
  check_float "unlabelled untouched" 4.5 (Metrics.counter_value c);
  Alcotest.(check (list (pair string (option int))))
    "snapshot sorted by (name, flow), unlabelled first"
    [ ("depth", Some 2); ("pkts", None); ("pkts", Some 0) ]
    (List.map (fun (s : Metrics.sample) -> (s.name, s.flow)) (Metrics.snapshot m));
  check_bool "render smoke" true (String.length (Metrics.render m) > 0)

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~lo:0.0 ~hi:10.0 ~bins:10 "delay" in
  Metrics.observe m ~lo:0.0 ~hi:10.0 ~bins:10 "delay" 4.5;
  Metrics.observe m ~lo:0.0 ~hi:10.0 ~bins:10 "delay" 5.5;
  check_int "observe feeds the registered histogram" 2 (Sfq_util.Histogram.count h);
  (* re-registering with a different shape returns the existing one *)
  let h' = Metrics.histogram m ~lo:0.0 ~hi:99.0 ~bins:3 "delay" in
  check_int "shape of first registration wins" 2 (Sfq_util.Histogram.count h');
  check_bool "quantile answers from the data" true
    (let q = Sfq_util.Histogram.quantile h 0.5 in
     q >= 4.0 && q <= 6.0)

let test_server_metrics () =
  let open Sfq_netsim in
  let sim = Sim.create () in
  let m = Metrics.create () in
  let server =
    Server.create sim ~name:"srv" ~rate:(Rate_process.constant 1000.0) ~sched:(fifo ())
      ~metrics:m ()
  in
  (* 2 flows x 2 packets, all at t=0: service takes 1 s each, so
     flow 0's packets wait 0 s and 2 s, flow 1's 1 s and 3 s *)
  List.iter
    (fun (flow, seq) ->
      Sim.schedule sim ~at:0.0 (fun () ->
          Server.inject server (pkt ~flow ~seq ~len:1000 ())))
    [ (0, 1); (1, 1); (0, 2); (1, 2) ];
  Sim.run_all sim ();
  check_float "injected total" 4.0 (counter_of m "srv.injected" None);
  check_float "injected flow 0" 2.0 (counter_of m "srv.injected" (Some 0));
  check_float "departed total" 4.0 (counter_of m "srv.departed" None);
  check_float "bits served" 4000.0 (counter_of m "srv.bits" None);
  let value, max = gauge_of m "srv.backlog" (Some 0) in
  check_float "backlog drains to zero" 0.0 value;
  check_float "backlog high-water mark" 2.0 max;
  check_int "delay histogram fed per departure" 2
    (Sfq_util.Histogram.count (histo_of m "srv.delay" (Some 1)))

let test_sim_metrics () =
  let open Sfq_netsim in
  let sim = Sim.create () in
  let m = Metrics.create () in
  Sim.set_metrics sim m ~prefix:"sim";
  List.iter (fun at -> Sim.schedule sim ~at (fun () -> ())) [ 1.0; 2.0; 3.0 ];
  Sim.run_all sim ();
  check_float "events counted" (float_of_int (Sim.events_fired sim))
    (counter_of m "sim.events" None);
  check_float "clock gauge at last event" 3.0 (fst (gauge_of m "sim.now" None));
  check_float "pending drained" 0.0 (fst (gauge_of m "sim.pending" None))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "ring basics" `Quick test_ring_basic;
          Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
          Alcotest.test_case "clear" `Quick test_ring_clear;
          Alcotest.test_case "disabled no-op + active_flag" `Quick test_disabled_noop;
          Alcotest.test_case "wrap events" `Quick test_wrap_events;
          Alcotest.test_case "wrap transparency" `Quick test_wrap_transparent;
          Alcotest.test_case "disabled allocates what untraced does" `Quick
            test_disabled_alloc;
        ] );
      ( "tag hooks",
        [
          Alcotest.test_case "matches enqueue_tagged" `Quick
            test_tag_hook_matches_enqueue_tagged;
          Alcotest.test_case "active gating" `Quick test_tag_hook_gating;
          Alcotest.test_case "hsfq class hook" `Quick test_hsfq_class_hook;
        ] );
      ( "export",
        [
          Alcotest.test_case "kind round-trip" `Quick test_kind_string_roundtrip;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "jsonl stream = ring dump" `Quick
            test_jsonl_stream_matches_ring_dump;
          Alcotest.test_case "chrome structure" `Quick test_chrome_structure;
          Alcotest.test_case "chrome ring wrap-around" `Quick test_chrome_ring_wraparound;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "trace bits = Service_log W_f" `Quick
            test_trace_matches_service_log;
        ] );
      ("summary", [ Alcotest.test_case "per-flow" `Quick test_summary_per_flow ]);
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "server wiring" `Quick test_server_metrics;
          Alcotest.test_case "sim wiring" `Quick test_sim_metrics;
        ] );
    ]
