(* The parallel≡serial determinism suite.

   The sfq.par contract is that domain count is not an observable: the
   full oracle acceptance sweep, a bench-style row replay and the
   mutation self-check must produce byte-identical digests at 1, 2, 4
   and 8 domains (plus SFQ_DOMAINS when the CI matrix sets it). Plus
   directed unit tests for the pool executor itself and for the
   domain-safety of the obs layer (per-domain tracers and metrics
   registries never interleave). *)

open Sfq_base
open Sfq_oracle
open Sfq_par

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* 1 is the serial reference; the rest must reproduce it bit for bit.
   SFQ_DOMAINS lets CI exercise an extra count on a different core
   budget than developer machines. *)
let domain_counts =
  let base = [ 1; 2; 4; 8 ] in
  match Sys.getenv_opt "SFQ_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && not (List.mem n base) -> base @ [ n ]
    | _ -> base)
  | None -> base

let assert_identical ~what digests =
  match digests with
  | [] -> ()
  | (_, reference) :: rest ->
    List.iter
      (fun (domains, d) ->
        if not (String.equal d reference) then
          Alcotest.failf "%s: digest at %d domains differs from serial run" what
            domains)
      rest

(* ------------------------------------------------------------------ *)
(* Oracle sweep determinism                                             *)

let test_oracle_sweep_deterministic () =
  let cells = Suite.all_cells () in
  let digests =
    List.map
      (fun domains -> (domains, Run.sweep_digest cells (Run.sweep ~domains cells)))
      domain_counts
  in
  assert_identical ~what:"oracle sweep" digests;
  (* the digest is not vacuous: it covers every cell and the serial
     sweep of this pool is known clean *)
  let _, reference = List.hd digests in
  check_int "one line per cell"
    (List.length cells)
    (List.length (String.split_on_char '\n' reference) - 1)

(* ------------------------------------------------------------------ *)
(* Net-sweep determinism: whole-network scenario cells (E27) — every
   cell is a closed multi-hop simulation with its own event queue,
   registry and oracle, so this exercises a much deeper state machine
   per task than the oracle cells above. The grid's churn-heavy star
   (finite Drop_front buffers, id recycling under overload) rides along
   in [default_cells], making drop ordering and registry reuse part of
   the digest. *)

module Net_sweep = Sfq_experiments.Net_sweep

let test_net_sweep_deterministic () =
  let cells = Net_sweep.default_cells () in
  let digests =
    List.map
      (fun domains ->
        ( domains,
          Net_sweep.sweep_digest cells (Net_sweep.sweep ~domains cells) ))
      domain_counts
  in
  assert_identical ~what:"net sweep" digests;
  let _, reference = List.hd digests in
  check_int "one line per net cell"
    (List.length cells)
    (List.length (String.split_on_char '\n' reference) - 1);
  check_bool "churn-heavy star cell is in the digested grid" true
    (List.exists
       (fun (c : Net_sweep.scenario) -> c.Net_sweep.churn)
       cells)

(* ------------------------------------------------------------------ *)
(* Sweeps nested in a pool task: a sweep at its default domains = 1
   runs in the caller, so a registry entry may call one from inside the
   experiment fan-out. Each must reproduce its serial digest. *)

let test_sweeps_inside_a_pool_task () =
  let pool = List.filteri (fun i _ -> i < 8) (Suite.theorem_pool ()) in
  let cells = Suite.sfq_cells ~pool () in
  let net_cells = List.filteri (fun i _ -> i < 4) (Net_sweep.default_cells ()) in
  let oracle () = Run.sweep_digest cells (Run.sweep cells) in
  let net () = Net_sweep.sweep_digest net_cells (Net_sweep.sweep net_cells) in
  let serial = [| oracle (); net () |] in
  let nested = Pool.run ~domains:2 ~f:(fun _ sweep -> sweep ()) [| oracle; net |] in
  check_bool "oracle sweep inside a task" true (String.equal serial.(0) nested.(0));
  check_bool "net sweep inside a task" true (String.equal serial.(1) nested.(1))

(* ------------------------------------------------------------------ *)
(* Bench-row determinism: the E14 steady-state loop, replayed per
   discipline in parallel, digesting the departure order. Timings are
   not digestable; what must be invariant is everything the schedulers
   *did*. *)

type bench_row = { row_label : string; departures : string }

let bench_row_specs (w : Workload.t) =
  let cap = w.Workload.capacity in
  [
    ("sfq", Sfq_experiments.Disc.Sfq);
    ("scfq", Sfq_experiments.Disc.Scfq);
    ("vc", Sfq_experiments.Disc.Virtual_clock);
    ("drr", Sfq_experiments.Disc.Drr { quantum = 1000.0 });
    ("wfq-real", Sfq_experiments.Disc.Wfq_real { capacity = cap });
  ]

let replay_bench_row ~nflows ~ops (label, spec) =
  (* domain-local: scheduler and digest buffer are built in the task *)
  let sched = Sfq_experiments.Disc.make spec (Weights.uniform 1000.0) in
  let b = Buffer.create (ops * 8) in
  let seqs = Array.make nflows 0 in
  let now = ref 0.0 in
  for i = 0 to ops - 1 do
    let f = i mod nflows in
    seqs.(f) <- seqs.(f) + 1;
    now := !now +. 1e-4;
    sched.Sched.enqueue ~now:!now
      (Packet.make ~flow:f ~seq:seqs.(f) ~len:1000 ~born:!now ());
    match sched.Sched.dequeue ~now:!now with
    | Some p -> Buffer.add_string b (Printf.sprintf "%d.%d;" p.Packet.flow p.Packet.seq)
    | None -> Buffer.add_char b '-'
  done;
  { row_label = label; departures = Digest.to_hex (Digest.string (Buffer.contents b)) }

let test_bench_row_deterministic () =
  let w = List.hd (Suite.theorem_pool ()) in
  let specs = Array.of_list (bench_row_specs w) in
  let digest_at domains =
    let rows =
      Pool.run ~domains ~f:(fun _ spec -> replay_bench_row ~nflows:32 ~ops:4000 spec) specs
    in
    String.concat "\n"
      (Array.to_list (Array.map (fun r -> r.row_label ^ " " ^ r.departures) rows))
  in
  assert_identical ~what:"bench row"
    (List.map (fun d -> (d, digest_at d)) domain_counts)

(* ------------------------------------------------------------------ *)
(* Mutation self-check through the parallel sweep: a merge step that
   dropped or reordered monitor verdicts would silently un-catch a
   mutant at some domain count. *)

let test_mutants_caught_at_every_domain_count () =
  let tagged = Suite.mutant_cells () in
  let cells = List.map snd tagged in
  List.iter
    (fun domains ->
      let outcomes = Run.sweep ~domains cells in
      List.iteri
        (fun i (mode, _) ->
          let expected = Mutant.expected_monitor mode in
          let names =
            List.map
              (fun (v : Monitor.violation) -> v.Monitor.monitor)
              outcomes.(i).Run.violations
          in
          if not (List.mem expected names) then
            Alcotest.failf "mutant %s at %d domains: expected %s; tripped [%s]"
              (Mutant.name mode) domains expected (String.concat ", " names))
        tagged)
    domain_counts

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                      *)

exception Boom of int

let test_pool_empty () =
  let r = Pool.run ~domains:4 ~f:(fun _ x -> x + 1) [||] in
  check_int "empty task list" 0 (Array.length r)

let test_pool_more_domains_than_tasks () =
  let r = Pool.run ~domains:8 ~f:(fun i x -> (10 * x) + i) [| 1; 2; 3 |] in
  check_bool "ordered results" true (r = [| 10; 21; 32 |])

let test_pool_chunked_ordering () =
  let n = 103 in
  let tasks = Array.init n (fun i -> i) in
  let expect = Array.map (fun x -> x * x) tasks in
  List.iter
    (fun chunk ->
      let r = Pool.run ~chunk ~domains:4 ~f:(fun _ x -> x * x) tasks in
      check_bool (Printf.sprintf "chunk=%d" chunk) true (r = expect))
    [ 1; 7; 64; 1000 ]

let test_pool_exception_propagation () =
  (* every failing index must surface as the smallest one, regardless
     of which domain hit it first *)
  match
    Pool.run ~domains:4
      ~f:(fun i x -> if x mod 3 = 0 then raise (Boom i) else x)
      (Array.init 50 (fun i -> i + 1))
  with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom i -> check_int "smallest failing index" 2 i

let test_pool_nested_submit_rejected () =
  match
    Pool.run ~domains:2
      ~f:(fun _ () -> Pool.run ~domains:2 ~f:(fun _ x -> x) [| 1 |])
      [| (); () |]
  with
  | _ -> Alcotest.fail "nested submit must be rejected"
  | exception Invalid_argument _ -> ()

let test_pool_shutdown_rejects_map () =
  let p = Pool.create ~domains:2 in
  let r = Pool.map p ~f:(fun _ x -> x * 2) [| 21 |] in
  check_int "pool works before shutdown" 42 r.(0);
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  match Pool.map p ~f:(fun _ x -> x) [| 1 |] with
  | _ -> Alcotest.fail "map after shutdown must be rejected"
  | exception Invalid_argument _ -> ()

let test_pool_reuse_across_sweeps () =
  let p = Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let a = Pool.map p ~f:(fun _ x -> x + 1) (Array.init 20 (fun i -> i)) in
      let b = Pool.map p ~f:(fun _ x -> x * 2) (Array.init 5 (fun i -> i)) in
      check_bool "first sweep" true (a = Array.init 20 (fun i -> i + 1));
      check_bool "second sweep" true (b = [| 0; 2; 4; 6; 8 |]))

(* ------------------------------------------------------------------ *)
(* Seed derivation                                                      *)

let test_seed_derivation () =
  check_int "pure" (Seed.derive ~root:42 ~index:7) (Seed.derive ~root:42 ~index:7);
  check_bool "index matters" true
    (Seed.derive ~root:42 ~index:0 <> Seed.derive ~root:42 ~index:1);
  check_bool "root matters" true
    (Seed.derive ~root:1 ~index:3 <> Seed.derive ~root:2 ~index:3);
  check_bool "non-negative" true
    (List.for_all
       (fun i -> Seed.derive ~root:(-5) ~index:i >= 0)
       [ 0; 1; 2; 1000 ]);
  (* derived seeds must give distinct Rng streams *)
  let stream i =
    let rng = Sfq_util.Rng.create (Seed.derive ~root:0xfeed ~index:i) in
    List.init 4 (fun _ -> Sfq_util.Rng.bits64 rng)
  in
  check_bool "distinct streams" true (stream 0 <> stream 1);
  match Seed.derive ~root:0 ~index:(-1) with
  | _ -> Alcotest.fail "negative index must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Obs-layer domain safety: per-domain tracers and registries must not
   interleave. Tracers are domain-local by construction (one instance
   per task); this test is the executable form of that audit claim —
   two domains recording concurrently, each ring ending up with exactly
   its own, in-order, uncorrupted records. *)

let test_tracers_do_not_interleave () =
  let n_events = 20_000 in
  let work flow_base =
    let tracer = Sfq_obs.Tracer.create ~capacity:n_events () in
    for i = 0 to n_events - 1 do
      Sfq_obs.Tracer.record_tag tracer ~now:(float_of_int i) ~flow:flow_base
        ~seq:(i + 1) ~len:1000 ~stag:(float_of_int (2 * i))
        ~ftag:(float_of_int ((2 * i) + 1))
        ~vtime:(float_of_int i)
    done;
    tracer
  in
  let d1 = Domain.spawn (fun () -> work 1) in
  let d2 = Domain.spawn (fun () -> work 2) in
  let t1 = Domain.join d1 and t2 = Domain.join d2 in
  List.iter
    (fun (flow, t) ->
      check_int "all events retained" n_events (Sfq_obs.Tracer.length t);
      check_int "none dropped" 0 (Sfq_obs.Tracer.dropped t);
      let i = ref 0 in
      Sfq_obs.Tracer.iter t ~f:(fun (e : Sfq_obs.Event.t) ->
          if
            e.flow <> flow
            || e.seq <> !i + 1
            || e.stag <> float_of_int (2 * !i)
            || e.ftag <> float_of_int ((2 * !i) + 1)
          then
            Alcotest.failf "corrupt record %d in flow-%d ring: flow=%d seq=%d" !i
              flow e.flow e.seq;
          incr i))
    [ (1, t1); (2, t2) ]

let test_metrics_merge_at_barrier () =
  (* the per-domain-instances pattern: each task owns a registry,
     merged (here: summed) after the barrier; the merged totals are
     independent of domain count *)
  let counts = Array.init 16 (fun i -> 100 + i) in
  let totals domains =
    let snapshots =
      Pool.run ~domains
        ~f:(fun _ n ->
          let m = Sfq_obs.Metrics.create () in
          let c = Sfq_obs.Metrics.counter m "task.packets" in
          for _ = 1 to n do
            Sfq_obs.Metrics.incr c
          done;
          Sfq_obs.Metrics.counter_value c)
        counts
    in
    Array.fold_left ( +. ) 0.0 snapshots
  in
  let expected = float_of_int (Array.fold_left ( + ) 0 counts) in
  List.iter
    (fun domains ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "%d domains" domains) expected
        (totals domains))
    domain_counts

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "par"
    [
      ( "determinism",
        [
          Alcotest.test_case "oracle sweep digests are domain-count invariant" `Quick
            test_oracle_sweep_deterministic;
          Alcotest.test_case "net sweep digests are domain-count invariant" `Quick
            test_net_sweep_deterministic;
          Alcotest.test_case "bench row replay is domain-count invariant" `Quick
            test_bench_row_deterministic;
          Alcotest.test_case "serial sweeps run inside a pool task" `Quick
            test_sweeps_inside_a_pool_task;
          Alcotest.test_case "mutants caught at 1/2/4/8 domains" `Quick
            test_mutants_caught_at_every_domain_count;
        ] );
      ( "pool",
        [
          Alcotest.test_case "empty task list" `Quick test_pool_empty;
          Alcotest.test_case "more domains than tasks" `Quick
            test_pool_more_domains_than_tasks;
          Alcotest.test_case "chunked ordering" `Quick test_pool_chunked_ordering;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "nested submit rejected" `Quick
            test_pool_nested_submit_rejected;
          Alcotest.test_case "shutdown rejects map" `Quick
            test_pool_shutdown_rejects_map;
          Alcotest.test_case "pool reuse across sweeps" `Quick
            test_pool_reuse_across_sweeps;
        ] );
      ("seed", [ Alcotest.test_case "derivation" `Quick test_seed_derivation ]);
      ( "obs",
        [
          Alcotest.test_case "two domains tracing never interleave" `Quick
            test_tracers_do_not_interleave;
          Alcotest.test_case "metrics merge at the barrier" `Quick
            test_metrics_merge_at_barrier;
        ] );
    ]
