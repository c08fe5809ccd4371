(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index E1-E13), then
   runs the micro-benchmarks behind Table 1's computational-efficiency
   column (E14) and writes the machine-readable perf trajectory
   BENCH_sched.json (see EXPERIMENTS.md, "E14 methodology").

   dune exec bench/main.exe                -- everything
   dune exec bench/main.exe -- quick       -- smaller workloads
   dune exec bench/main.exe -- micro       -- only the Bechamel suite
   dune exec bench/main.exe -- micro quick -- bench smoke (tiny quota)
   dune exec bench/main.exe -- micro domains=4   -- fan the matrix out

   domains=N (or the SFQ_DOMAINS environment variable; the token wins)
   runs the flow/depth measurement matrix through the sfq.par pool, N
   rows concurrently, and sizes the parallel leg of the oracle-sweep
   timing series. The tracing-overhead series never parallelizes: the
   5% disabled-tracer gate is a ratio of co-scheduled timings and stays
   honest only when nothing else competes for the core (audit: pinned
   to the submitting domain below).

   The micro suite always writes BENCH_sched.json to the working
   directory: ns/packet per discipline x flow count ("flow_scaling"),
   plus a fixed-flow-count series over growing per-flow backlogs
   ("depth_scaling") that shows per-packet cost is flat in queued
   packets and logarithmic in flows for the Flow_heap schedulers —
   the paper's O(log F) claim (S2.2, Table 1) — against the frozen
   seed O(log Q) implementation (`sfq-ref`).

   Timing is a bare monotonic-clock loop (median over several timed
   batches, Gc.compact before sampling, workload-induced GC inside the
   window). A sampling harness that stabilizes the GC between samples
   would shift the collector work caused by one discipline's allocation
   pattern out of its own measurement — exactly the cost a per-packet
   boxed-entry heap pays and a structure-of-arrays heap avoids. *)

open Sfq_util
open Sfq_base
open Sfq_sched
open Sfq_experiments

let line = String.make 78 '='

let section title =
  Printf.printf "%s\n%s\n%s\n\n" line title line

(* ------------------------------------------------------------------ *)
(* E1-E13: the paper's tables and figures                               *)

let run_experiments ~quick =
  section "SFQ paper reproduction: tables and figures (DESIGN.md E1-E13)";
  Ex1_wfq_unfair.(print (run ()));
  Ex2_variable_rate.(print (run ()));
  Fig1_tcp_fairness.(print (run ()));
  Table1_fairness.(print (run ~quick ()));
  Fig2a_delay_reduction.(print (run ~quick ()));
  Fig2b_avg_delay.(print (run ~duration:(if quick then 50.0 else 200.0) ()));
  Scfq_delay_gap.(print (run ()));
  Fig3_link_sharing.(print (run ~pkts_per_conn:(if quick then 1500 else 4000) ()));
  Hier_sharing.(print (run ()));
  Delay_shifting.(print (run ()));
  Bound_validation.(print (run ()));
  End_to_end.(print (run ()));
  Fair_airport_exp.(print (run ()));
  Priority_residual.(print (run ()));
  Tie_break_ablation.(print (run ()));
  Gsfq_video.(print (run ()));
  E2e_ebf.(print (run ()));
  Busy_rule_ablation.(print (run ()));
  Fig1_topology.(print (run ()))

(* ------------------------------------------------------------------ *)
(* E14: per-packet cost of each discipline (Table 1, complexity column) *)

let flow_counts = [ 4; 64; 512 ]
let depth_flow_count = 512
let depths = [ 1; 4; 16; 64 ]

(* The frozen seed SFQ (single per-packet heap, closure comparator,
   O(log Q)) as a Sched.t, so the JSON trajectory always carries the
   old-vs-new comparison. *)
let sfq_ref_sched weights =
  let t = Ref_sched.Sfq_ref.create weights in
  {
    Sched.name = "sfq-ref";
    enqueue = (fun ~now pkt -> Ref_sched.Sfq_ref.enqueue t ~now pkt);
    dequeue = (fun ~now -> Ref_sched.Sfq_ref.dequeue t ~now);
    peek = (fun () -> Ref_sched.Sfq_ref.peek t);
    size = (fun () -> Ref_sched.Sfq_ref.size t);
    backlog = (fun flow -> Ref_sched.Sfq_ref.backlog t flow);
    evict = Sched.no_evict;
    close_flow = (fun ~now:_ _ -> []);
  }

let disciplines nflows =
  let weights = Weights.uniform 1000.0 in
  let capacity = 1000.0 *. float_of_int nflows in
  [
    ("fifo", fun () -> Disc.make Disc.Fifo weights);
    ("sfq", fun () -> Disc.make Disc.Sfq weights);
    ("sfq-ref", fun () -> sfq_ref_sched weights);
    ("scfq", fun () -> Disc.make Disc.Scfq weights);
    ("wfq-fluid", fun () -> Disc.make (Disc.Wfq { capacity }) weights);
    ("wfq-real", fun () -> Disc.make (Disc.Wfq_real { capacity }) weights);
    ("fqs", fun () -> Disc.make (Disc.Fqs { capacity }) weights);
    ("wf2q", fun () -> Disc.make (Disc.Wf2q { capacity }) weights);
    ("drr", fun () -> Disc.make (Disc.Drr { quantum = 1000.0 }) weights);
    ("wrr", fun () -> Disc.make Disc.Wrr weights);
    ("virtual-clock", fun () -> Disc.make Disc.Virtual_clock weights);
    ("fair-airport", fun () -> Disc.make Disc.Fair_airport weights);
    ("pifo-sfq", fun () -> Disc.make Disc.Pifo_sfq weights);
    ("pifo-scfq", fun () -> Disc.make Disc.Pifo_scfq weights);
    ("pifo-vc", fun () -> Disc.make Disc.Pifo_vc weights);
    ("sp-pifo", fun () -> Disc.make (Disc.Sp_pifo { banks = 8 }) weights);
  ]

(* Only the tag-ordered O(log .) disciplines are interesting for the
   backlog-depth series; round-robin and FIFO are O(1) by construction
   and WFQ variants are dominated by the fluid simulation. *)
let depth_disciplines =
  let weights = Weights.uniform 1000.0 in
  [
    ("sfq", fun () -> Disc.make Disc.Sfq weights);
    ("sfq-ref", fun () -> sfq_ref_sched weights);
    ("scfq", fun () -> Disc.make Disc.Scfq weights);
    ("virtual-clock", fun () -> Disc.make Disc.Virtual_clock weights);
    ("pifo-sfq", fun () -> Disc.make Disc.Pifo_sfq weights);
    ("sp-pifo", fun () -> Disc.make (Disc.Sp_pifo { banks = 8 }) weights);
  ]

type measurement = {
  disc : string;
  flows : int;
  depth : int;
  ns : float;  (** median over timed batches *)
  p50 : float;
  p99 : float;
}

let elapsed_ns t0 t1 = Int64.to_float (Int64.sub t1 t0)

let median samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* median + interpolated batch percentiles; p99 over a handful of
   batches is effectively the worst batch — a noise indicator, kept in
   the JSON so trajectory diffs can tell a real regression from a
   wobbly run *)
let stats_of samples =
  let a = Array.of_list samples in
  (median samples, Stats.percentile a 50.0, Stats.percentile a 99.0)

(* Steady state: the queue holds [depth] packets per flow; one measured
   op enqueues one packet (round-robin over flows) and dequeues one,
   preserving the backlog. The clock passed in advances so time-driven
   disciplines do real work. [steady_stepper] prefills the backlog and
   returns the per-op closure; the tracing-overhead series reuses it
   against wrapped schedulers. *)
let steady_stepper ~nflows ~depth sched =
  let seqs = Array.make nflows 0 in
  let now = ref 0.0 in
  let flow = ref 0 in
  let step () =
    let f = !flow in
    flow := (f + 1) mod nflows;
    seqs.(f) <- seqs.(f) + 1;
    now := !now +. 1e-4;
    sched.Sched.enqueue ~now:!now (Packet.make ~flow:f ~seq:seqs.(f) ~len:1000 ~born:!now ());
    ignore (sched.Sched.dequeue ~now:!now)
  in
  for f = 0 to nflows - 1 do
    for _ = 1 to depth do
      seqs.(f) <- seqs.(f) + 1;
      sched.Sched.enqueue ~now:0.0 (Packet.make ~flow:f ~seq:seqs.(f) ~len:1000 ~born:0.0 ())
    done
  done;
  step

let timed_batch step batch_ops =
  let t0 = Monotonic_clock.now () in
  for _ = 1 to batch_ops do
    step ()
  done;
  let t1 = Monotonic_clock.now () in
  elapsed_ns t0 t1 /. float_of_int batch_ops

(* Batch ns/op samples, reported as median (headline) + p50/p99. *)
let steady_samples ~quick ~nflows ~depth make_sched =
  let batches, batch_ops = if quick then (3, 1_000) else (5, 20_000) in
  let step = steady_stepper ~nflows ~depth (make_sched ()) in
  for _ = 1 to batch_ops do
    step ()
  done;
  Gc.compact ();
  let samples = ref [] in
  for _ = 1 to batches do
    samples := timed_batch step batch_ops :: !samples
  done;
  !samples

(* Fill/drain: enqueue nflows x depth packets, then drain the queue —
   every packet pays one enqueue and one dequeue against the full
   backlog, the per-packet cost of the paper's Table 1. One untimed
   round first so rings and heaps reach their final capacity. *)
let fill_drain_samples ~quick ~nflows ~depth make_sched =
  let rounds = if quick then 2 else 7 in
  let sched = make_sched () in
  let npk = nflows * depth in
  let round () =
    let now = ref 0.0 in
    for f = 0 to nflows - 1 do
      for s = 1 to depth do
        now := !now +. 1e-5;
        sched.Sched.enqueue ~now:!now (Packet.make ~flow:f ~seq:s ~len:1000 ~born:!now ())
      done
    done;
    for _ = 1 to npk do
      now := !now +. 1e-5;
      ignore (sched.Sched.dequeue ~now:!now)
    done
  in
  round ();
  Gc.compact ();
  let samples = ref [] in
  for _ = 1 to rounds do
    let t0 = Monotonic_clock.now () in
    round ();
    let t1 = Monotonic_clock.now () in
    samples := (elapsed_ns t0 t1 /. float_of_int npk) :: !samples
  done;
  !samples

(* ------------------------------------------------------------------ *)
(* E26: rank programs on the PIFO runtime beside their float originals
   — ns/packet and allocations/packet, and the measured fairness budget
   of the approximate sp-pifo.                                          *)

type pifo_row = {
  pr_disc : string;
  pr_flows : int;
  pr_ns : float;
  pr_p50 : float;
  pr_p99 : float;
  pr_allocs : float;  (* minor-heap words per enqueue+dequeue *)
  pr_budget : Sfq_oracle.Monitor.fairness_budget option;  (* sp-pifo only *)
}

let pifo_flow_counts = [ 64; 512 ]

(* One native stepper for every row: preallocated packets, constant
   clock, each scheduler's own enqueue/dequeue (exn-based where the
   module offers one), so a rank program and its float original are
   compared on scheduler interiors only — tag arithmetic, heap,
   per-flow state, option boxes — and packet construction is charged
   to neither. Depth-1 prefill matches the flow_scaling series. *)
let pifo_steppers nflows =
  let weights = Weights.uniform 1000.0 in
  let native enq deq =
    let pkts =
      Array.init nflows (fun f -> Packet.make ~flow:f ~seq:1 ~len:1000 ~born:0.0 ())
    in
    Array.iter enq pkts;
    let flow = ref 0 in
    fun () ->
      let f = !flow in
      flow := (f + 1) mod nflows;
      enq pkts.(f);
      deq ()
  in
  let open Sfq_pifo in
  let program prog =
    let t = Pifo_sched.create prog in
    native
      (fun p -> Pifo_sched.enqueue t ~now:0.0 p)
      (fun () -> ignore (Pifo_sched.dequeue_exn t))
  in
  [
    ( "sfq",
      fun () ->
        let t = Sfq_core.Sfq.create weights in
        native
          (fun p -> Sfq_core.Sfq.enqueue t ~now:0.0 p)
          (fun () -> ignore (Sfq_core.Sfq.dequeue t ~now:0.0)) );
    ("pifo-sfq", fun () -> program (Programs.sfq weights));
    ( "scfq",
      fun () ->
        let t = Scfq.create weights in
        native
          (fun p -> Scfq.enqueue t ~now:0.0 p)
          (fun () -> ignore (Scfq.dequeue t ~now:0.0)) );
    ("pifo-scfq", fun () -> program (Programs.scfq weights));
    ( "virtual-clock",
      fun () ->
        let t = Virtual_clock.create weights in
        native
          (fun p -> Virtual_clock.enqueue t ~now:0.0 p)
          (fun () -> ignore (Virtual_clock.dequeue t ~now:0.0)) );
    ("pifo-vc", fun () -> program (Programs.virtual_clock weights));
    ( "sp-pifo",
      fun () ->
        let t = Sp_pifo.create weights in
        native
          (fun p -> Sp_pifo.enqueue t ~now:0.0 p)
          (fun () -> ignore (Sp_pifo.dequeue_exn t)) );
  ]

(* Allocation rate measured over its own window, after warmup and a
   compaction: cumulative minor words divided by ops. Gc.minor_words
   itself boxes one float per call — a constant ~3 words across the
   whole window, which the per-op division pushes below the 1e-3
   resolution the JSON reports. A genuinely zero-allocation stepper
   therefore prints 0.000 exactly; anything that allocates even one
   word per op prints >= 1.000. *)
let allocs_per_op step ops =
  let w0 = Gc.minor_words () in
  for _ = 1 to ops do
    step ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int ops

(* The measured fairness budget of the approximate scheduler: replay
   sp-pifo over frozen theorem-pool workloads under the relaxed
   Theorem-1 oracle and keep the worst pair. This is the number the
   trajectory carries next to sp-pifo's ns/packet — the price of the
   approximation in the same file as its speed. *)
let sp_pifo_budget ~quick () =
  let module O = Sfq_oracle in
  let pool = O.Suite.theorem_pool () in
  let n = if quick then 12 else List.length pool in
  let worst = ref O.Monitor.empty_budget in
  List.iteri
    (fun i (w : O.Workload.t) ->
      if i < n then begin
        let s =
          Sfq_pifo.Sp_pifo.create (Weights.of_list ~default:1.0 w.O.Workload.weights)
        in
        let m, budget = O.Monitor.fairness_measured ~rate:(O.Workload.rate_of w) () in
        ignore (O.Run.fixed_rate ~sched:(Sfq_pifo.Sp_pifo.sched s) ~monitors:[ m ] w);
        let b = budget () in
        if b.O.Monitor.max_excess > !worst.O.Monitor.max_excess then worst := b
      end)
    pool;
  !worst

let pifo_rows ~quick () =
  let batches, batch_ops = if quick then (3, 1_000) else (5, 20_000) in
  let alloc_ops = if quick then 10_000 else 100_000 in
  let budget = sp_pifo_budget ~quick () in
  List.concat_map
    (fun nflows ->
      List.map
        (fun (name, make_step) ->
          let step = make_step () in
          for _ = 1 to batch_ops do
            step ()
          done;
          Gc.compact ();
          let allocs = allocs_per_op step alloc_ops in
          let samples = ref [] in
          for _ = 1 to batches do
            samples := timed_batch step batch_ops :: !samples
          done;
          let ns, p50, p99 = stats_of !samples in
          {
            pr_disc = name;
            pr_flows = nflows;
            pr_ns = ns;
            pr_p50 = p50;
            pr_p99 = p99;
            pr_allocs = allocs;
            pr_budget = (if name = "sp-pifo" then Some budget else None);
          })
        (pifo_steppers nflows))
    pifo_flow_counts

(* ------------------------------------------------------------------ *)
(* E22: cost of the sfq.obs tracer on the SFQ hot path                  *)

type overhead_row = {
  mode : string;
  o_ns : float;
  o_p50 : float;
  o_p99 : float;
  overhead_pct : float option;  (** None for the untraced baseline *)
}

let overhead_flows = 512
let overhead_depth = 64

(* SFQ at 512 flows x 64-deep backlog under four tracer configurations:
   no wrapper at all, a disabled tracer (the always-on production
   shape: one branch per record call, vtime never sampled), a live ring
   sink, and a live JSONL sink streaming to a scratch file.

   Two noise defenses, both of which this series needs because the
   validator enforces a hard budget on the "disabled" row:
   - the modes are timed interleaved — one batch of each per round — so
     clock drift and thermal throttling land on every mode equally
     rather than biasing whichever ran last;
   - each mode runs several independent scheduler instances and reports
     the fastest one (by median batch). Two instances of the very same
     code routinely differ by several percent from allocation-order
     cache/TLB layout alone; that penalty only ever inflates, so
     min-over-instances estimates the intrinsic cost. *)
let tracing_overhead ~quick () =
  let instances = 5 in
  let batches, batch_ops = if quick then (10, 20_000) else (10, 25_000) in
  let weights = Weights.uniform 1000.0 in
  let traced tracer =
    let t = Sfq_core.Sfq.create weights in
    Sfq_core.Sfq.set_tag_hook t
      ~active:(Sfq_obs.Tracer.active_flag tracer)
      (Sfq_obs.Tracer.tag_hook tracer);
    Sfq_obs.Tracer.wrap
      ~vtime:(fun () -> Sfq_core.Sfq.vtime t)
      tracer
      (Sfq_core.Sfq.sched t)
  in
  let scratch = Filename.temp_file "sfq_bench_trace" ".jsonl" in
  let scratch_oc = open_out scratch in
  let modes =
    [
      ("untraced", fun () -> Disc.make Disc.Sfq weights);
      ("disabled", fun () -> traced (Sfq_obs.Tracer.disabled ()));
      ("ring", fun () -> traced (Sfq_obs.Tracer.create ~capacity:65536 ()));
      ("jsonl",
       fun () -> traced (Sfq_obs.Tracer.create ~sink:(Sfq_obs.Tracer.Jsonl scratch_oc) ()));
    ]
  in
  (* instance-major creation order so same-mode instances do not sit in
     adjacent allocations *)
  let states =
    List.concat_map
      (fun _ ->
        List.map
          (fun (mode, make) ->
            let step =
              steady_stepper ~nflows:overhead_flows ~depth:overhead_depth (make ())
            in
            for _ = 1 to batch_ops do
              step ()
            done;
            (mode, step, ref []))
          modes)
      (List.init instances (fun i -> i))
  in
  Gc.compact ();
  for _ = 1 to batches do
    List.iter
      (fun (_, step, samples) -> samples := timed_batch step batch_ops :: !samples)
      states
  done;
  close_out scratch_oc;
  (try Sys.remove scratch with Sys_error _ -> ());
  let all_samples mode =
    List.concat_map
      (fun (m, _, samples) -> if m = mode then !samples else [])
      states
  in
  let base = ref Float.nan in
  List.map
    (fun (mode, _) ->
      let samples = all_samples mode in
      (* the headline is the fastest batch of the fastest instance:
         measurement noise (scheduler preemption, cache eviction by a
         neighboring instance, frequency excursions) is strictly
         additive, so the minimum is the robust estimator of intrinsic
         cost — medians of identical code were seen several percent
         apart on a contended host. p50/p99 over every batch keep the
         noise picture honest. *)
      let ns = List.fold_left Float.min Float.infinity samples in
      let a = Array.of_list samples in
      let p50 = Stats.percentile a 50.0 and p99 = Stats.percentile a 99.0 in
      if mode = "untraced" then base := ns;
      let overhead_pct =
        if mode = "untraced" then None
        else Some (100.0 *. (ns -. !base) /. !base)
      in
      { mode; o_ns = ns; o_p50 = p50; o_p99 = p99; overhead_pct })
    modes

(* ------------------------------------------------------------------ *)
(* E23: serial vs parallel wall time of the oracle acceptance sweep     *)

type parallel_row = {
  p_series : string;
  p_cells : int;
  p_domains : int;
  serial_s : float;
  parallel_s : float;
  speedup : float;
  identical : bool;  (** parallel sweep digest == serial sweep digest *)
}

(* The full oracle acceptance sweep (every (discipline, workload) cell
   behind test_oracle) timed twice: once serially, once through an
   [domains]-wide pool. The digest comparison rides along so the
   trajectory file itself witnesses the determinism contract — a
   speedup bought by reordering results would flip [identical] and fail
   validation. Wall times, not per-op medians: the sweep is one
   irregular bag of tasks and elapsed seconds is the quantity the
   parallel harness exists to shrink. *)
let parallel_sweep ~domains () =
  let cells = Sfq_oracle.Suite.all_cells () in
  let digest_of outcomes =
    Digest.to_hex (Digest.string (Sfq_oracle.Run.sweep_digest cells outcomes))
  in
  let timed f =
    let t0 = Monotonic_clock.now () in
    let v = f () in
    (digest_of v, elapsed_ns t0 (Monotonic_clock.now ()) /. 1e9)
  in
  let serial_digest, serial_s = timed (fun () -> Sfq_oracle.Run.sweep cells) in
  let par_digest, parallel_s =
    timed (fun () -> Sfq_oracle.Run.sweep ~domains cells)
  in
  {
    p_series = "oracle-sweep";
    p_cells = List.length cells;
    p_domains = domains;
    serial_s;
    parallel_s;
    speedup = serial_s /. parallel_s;
    identical = String.equal serial_digest par_digest;
  }

(* ------------------------------------------------------------------ *)
(* E27: network-scale simulation throughput and memory (netsim)        *)

type netsim_row = {
  nt_disc : string;
  nt_flows : int;
  nt_hops : int;
  nt_pps : float;  (** delivered packets per wall-clock second *)
  nt_peak_rss_kb : int option;  (** VmRSS after the run ([None] off Linux) *)
  nt_bound_kb : int;
}

(* The RSS ceiling the netsim rows are gated against (validator:
   peak_rss_kb <= rss_bound_kb). Live state is bounded by the churn
   window, not the flow count; the slack above it is GC pacing at the
   netsim allocation rate — measured ~110 MB for the 10^5-flow star,
   so 1 GiB holds with an order of magnitude to spare. *)
let netsim_rss_bound_kb = 1_048_576

let vm_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Option.some
        else go ()
      | exception End_of_file -> None
    in
    let r = go () in
    close_in ic;
    r

(* One churned scaling star per discipline (the E27 cell with the
   composed Thm 8/9 oracle attached): wall-clock throughput of the
   whole network simulation — event loop, two hops of scheduling,
   monitors, registry churn — not a scheduler-interior stepper. Rows
   run serially: RSS is a process-global reading. A monitor violation
   fails the bench run outright; a trajectory must never record
   throughput from a simulation that broke its own oracle. *)
let netsim_rows ~quick () =
  let flows = if quick then 20_000 else 100_000 in
  List.map
    (fun (name, disc) ->
      let s = Net_sweep.scale_star ~flows ~disc () in
      Gc.compact ();
      let t0 = Monotonic_clock.now () in
      let o = Net_sweep.run_scenario s in
      let wall_s = elapsed_ns t0 (Monotonic_clock.now ()) /. 1e9 in
      (match o.Net_sweep.violations with
      | [] -> ()
      | v :: _ ->
        failwith
          (Printf.sprintf "netsim %s: monitor violation at %g: %s: %s" s.Net_sweep.label
             v.Sfq_oracle.Monitor.at v.Sfq_oracle.Monitor.monitor
             v.Sfq_oracle.Monitor.what));
      Gc.compact ();
      {
        nt_disc = name;
        nt_flows = flows;
        nt_hops = 2;  (* star: access link + core link *)
        nt_pps = float_of_int o.Net_sweep.delivered /. Float.max wall_s 1e-9;
        nt_peak_rss_kb = vm_rss_kb ();
        nt_bound_kb = netsim_rss_bound_kb;
      })
    [ ("sfq", Disc.Sfq); ("pifo-sfq", Disc.Pifo_sfq) ]

(* ------------------------------------------------------------------ *)
(* E28: schedule-replay universality scoreboard (replay)               *)

type replay_row = {
  rp_tier : string;  (** single | net | control | kills *)
  rp_cells : int;
  rp_ok : int;
}

(* One row per E28 tier: how many cells ran and how many met the
   tier's expectation (single/net/kills: replay succeeds, mutants die;
   control: SFQ delivers late). The counts are deterministic — the
   same frozen pools and grid seeds as the golden corpus — so the
   trajectory gates on them exactly: single, net and kills must be
   all-ok, and at least one control cell must diverge, or the
   universality claim (and its negative control) has regressed. *)
let replay_rows () =
  let r = Lstf_replay.run () in
  let count rows = (List.length rows, List.length (List.filter (fun (x : Lstf_replay.row) -> x.Lstf_replay.ok) rows)) in
  List.map
    (fun (tier, rows) ->
      let cells, ok = count rows in
      { rp_tier = tier; rp_cells = cells; rp_ok = ok })
    [
      ("single", r.Lstf_replay.single);
      ("net", r.Lstf_replay.net);
      ("control", r.Lstf_replay.control);
      ("kills", r.Lstf_replay.kills);
    ]

(* --- JSON emission (by hand: no JSON library in the allowed set) --- *)

(* JSON numbers cannot be NaN/inf; a failed estimate becomes null. *)
let json_float ns =
  if Float.is_nan ns || not (Float.is_finite ns) then "null"
  else Printf.sprintf "%.3f" ns

(* Provenance for trajectory diffs: which commit, when, on what box.
   Every lookup degrades to "unknown" rather than failing the run. *)
let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let utc_timestamp () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let hostname () = try Unix.gethostname () with Unix.Unix_error _ -> "unknown"

let emit_json ~quick ~domains ~flow_scaling ~depth_scaling ~pifo ~overhead ~parallel
    ~netsim ~replay path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"schema\": \"sfq-bench-sched/8\",\n  \"quick\": %b,\n  \"unit\": \"ns per enqueue+dequeue\",\n"
       quick);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"meta\": {\"git_sha\": %S, \"timestamp_utc\": %S, \"hostname\": %S, \"domains\": %d},\n"
       (git_sha ()) (utc_timestamp ()) (hostname ()) domains);
  Buffer.add_string buf "  \"flow_scaling\": [\n";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"discipline\": %S, \"flows\": %d, \"ns_per_packet\": %s, \
            \"ns_p50\": %s, \"ns_p99\": %s}"
           m.disc m.flows (json_float m.ns) (json_float m.p50) (json_float m.p99)))
    flow_scaling;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"depth_scaling\": [\n";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"discipline\": %S, \"flows\": %d, \"depth\": %d, \"queued_packets\": %d, \
            \"ns_per_packet\": %s, \"ns_p50\": %s, \"ns_p99\": %s}"
           m.disc m.flows m.depth (m.flows * m.depth) (json_float m.ns)
           (json_float m.p50) (json_float m.p99)))
    depth_scaling;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"pifo\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      let budget_fields =
        match r.pr_budget with
        | None -> ""
        | Some (b : Sfq_oracle.Monitor.fairness_budget) ->
          Printf.sprintf
            ", \"measured_unfairness\": %s, \"fairness_bound\": %s, \
             \"unfairness_excess\": %s, \"pairs_checked\": %d"
            (json_float b.Sfq_oracle.Monitor.max_h)
            (json_float b.Sfq_oracle.Monitor.max_bound)
            (json_float b.Sfq_oracle.Monitor.max_excess)
            b.Sfq_oracle.Monitor.pairs_checked
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"discipline\": %S, \"flows\": %d, \"ns_per_packet\": %s, \
            \"ns_p50\": %s, \"ns_p99\": %s, \"allocations_per_packet\": %s%s}"
           r.pr_disc r.pr_flows (json_float r.pr_ns) (json_float r.pr_p50)
           (json_float r.pr_p99) (json_float r.pr_allocs) budget_fields))
    pifo;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"tracing_overhead\": [\n";
  List.iteri
    (fun i (r : overhead_row) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"flows\": %d, \"depth\": %d, \"ns_per_packet\": %s, \
            \"ns_p50\": %s, \"ns_p99\": %s, \"overhead_pct\": %s}"
           r.mode overhead_flows overhead_depth (json_float r.o_ns)
           (json_float r.o_p50) (json_float r.o_p99)
           (match r.overhead_pct with
           | None -> "null"
           | Some p -> json_float p)))
    overhead;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"parallel\": [\n";
  List.iteri
    (fun i (r : parallel_row) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"series\": %S, \"cells\": %d, \"domains\": %d, \"serial_s\": %s, \
            \"parallel_s\": %s, \"speedup\": %s, \"identical\": %b}"
           r.p_series r.p_cells r.p_domains (json_float r.serial_s)
           (json_float r.parallel_s) (json_float r.speedup) r.identical))
    parallel;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"netsim\": [\n";
  List.iteri
    (fun i (r : netsim_row) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"discipline\": %S, \"flows\": %d, \"hops\": %d, \
            \"packets_per_sec\": %s, \"peak_rss_kb\": %s, \"rss_bound_kb\": %d}"
           r.nt_disc r.nt_flows r.nt_hops (json_float r.nt_pps)
           (match r.nt_peak_rss_kb with None -> "null" | Some kb -> string_of_int kb)
           r.nt_bound_kb))
    netsim;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"replay\": [\n";
  List.iteri
    (fun i (r : replay_row) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "    {\"tier\": %S, \"cells\": %d, \"ok\": %d}" r.rp_tier
           r.rp_cells r.rp_ok))
    replay;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s\n\n" path

(* Fan a measurement matrix over the domain pool, one row per task.
   Results land by task index so the row order (and the emitted JSON)
   is identical at every domain count; only the timings themselves see
   the co-scheduling. audit (parallel safety): every row builds its own
   scheduler instance inside the task and the samplers touch no shared
   structure — Gc.compact inside a worker is process-global but only
   perturbs timing, never results. *)
let matrix_rows ~domains specs measure =
  if domains <= 1 then List.map measure specs
  else
    Array.to_list
      (Sfq_par.Pool.run ~domains ~f:(fun _ spec -> measure spec) (Array.of_list specs))

let run_micro ~quick ~domains () =
  section "E14: per-packet enqueue+dequeue cost (Table 1 complexity column)";
  let flow_specs =
    List.concat_map
      (fun nflows -> List.map (fun (name, make) -> (nflows, name, make)) (disciplines nflows))
      flow_counts
  in
  let flow_scaling =
    matrix_rows ~domains flow_specs (fun (nflows, name, make) ->
        let ns, p50, p99 = stats_of (steady_samples ~quick ~nflows ~depth:1 make) in
        { disc = name; flows = nflows; depth = 1; ns; p50; p99 })
  in
  let table = Text_table.create [ "discipline"; "flows"; "ns/packet" ] in
  List.iter
    (fun m ->
      Text_table.add_row table
        [ m.disc; string_of_int m.flows; Printf.sprintf "%.0f" m.ns ])
    flow_scaling;
  Text_table.print table;
  print_endline
    "(SFQ, SCFQ and Virtual Clock keep one heap entry per backlogged flow —\n\
    \ O(log F) per packet, the paper's Table 1 bound; sfq-ref is the seed\n\
    \ per-packet O(log Q) heap kept as a baseline. WFQ's fluid clock adds the\n\
    \ GPS simulation on top; DRR/WRR are O(1); Fair Airport runs two\n\
    \ schedulers. The paper's claim: SFQ has SCFQ's cost, below WFQ's.)";
  print_newline ();
  section
    (Printf.sprintf "E14b: fill/drain cost vs per-flow backlog depth (%d flows)"
       depth_flow_count);
  let depth_specs =
    List.concat_map
      (fun depth -> List.map (fun (name, make) -> (depth, name, make)) depth_disciplines)
      depths
  in
  let depth_scaling =
    matrix_rows ~domains depth_specs (fun (depth, name, make) ->
        let ns, p50, p99 =
          stats_of (fill_drain_samples ~quick ~nflows:depth_flow_count ~depth make)
        in
        { disc = name; flows = depth_flow_count; depth; ns; p50; p99 })
  in
  let dtable = Text_table.create [ "discipline"; "depth"; "queued pkts"; "ns/packet" ] in
  List.iter
    (fun m ->
      Text_table.add_row dtable
        [
          m.disc;
          string_of_int m.depth;
          string_of_int (m.flows * m.depth);
          Printf.sprintf "%.0f" m.ns;
        ])
    depth_scaling;
  Text_table.print dtable;
  print_endline
    "(Each packet pays one enqueue and one dequeue against the full backlog.\n\
    \ Per-flow-heap disciplines are flat in the backlog depth — their heap\n\
    \ holds one entry per flow regardless of queued packets; the seed sfq-ref\n\
    \ heap grows with every queued packet and pays O(log Q), plus the GC\n\
    \ tax of one boxed heap entry per packet.)";
  print_newline ();
  section "E26: rank programs on the PIFO runtime beside their float originals";
  (* audit (parallel safety): deliberately serial at any domain count —
     the allocation counter is a process-global Gc statistic, and the
     rank-program-vs-float rows are only comparable when they contend
     with nothing but each other. *)
  let pifo = pifo_rows ~quick () in
  let ptable0 =
    Text_table.create
      [ "discipline"; "flows"; "ns/packet"; "allocs/packet"; "unfairness (bound)" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row ptable0
        [
          r.pr_disc;
          string_of_int r.pr_flows;
          Printf.sprintf "%.0f" r.pr_ns;
          Printf.sprintf "%.3f" r.pr_allocs;
          (match r.pr_budget with
          | None -> "-"
          | Some b ->
            Printf.sprintf "%.3f (%.3f)" b.Sfq_oracle.Monitor.max_h
              b.Sfq_oracle.Monitor.max_bound);
        ])
    pifo;
  Text_table.print ptable0;
  print_endline
    "(Each rank program on the shared PIFO runtime (lib/pifo) next to its\n\
    \ float original, under one native stepper: preallocated packets,\n\
    \ constant clock, so the rows compare scheduler interiors only. The\n\
    \ validator rejects the file if pifo-sfq ever allocates per packet.\n\
    \ sp-pifo's unfairness column is the worst measured Theorem-1 excess over\n\
    \ the frozen theorem pool: the price of approximate rank order, recorded\n\
    \ next to its speed.)";
  print_newline ();
  section
    (Printf.sprintf "E22: sfq.obs tracer overhead (SFQ, %d flows x %d deep)"
       overhead_flows overhead_depth);
  (* audit (parallel safety): deliberately NOT run through the pool,
     at any domain count. The series is a ratio of interleaved timings
     and the 5% disabled gate in bench_json only means something when
     the four modes contend with nothing but each other. *)
  let overhead = tracing_overhead ~quick () in
  let otable =
    Text_table.create [ "mode"; "ns/packet"; "p50"; "p99"; "overhead %" ]
  in
  List.iter
    (fun (r : overhead_row) ->
      Text_table.add_row otable
        [
          r.mode;
          Printf.sprintf "%.0f" r.o_ns;
          Printf.sprintf "%.0f" r.o_p50;
          Printf.sprintf "%.0f" r.o_p99;
          (match r.overhead_pct with
          | None -> "-"
          | Some p -> Printf.sprintf "%+.1f" p);
        ])
    overhead;
  Text_table.print otable;
  print_endline
    "(\"disabled\" is the shape a production build would ship: the wrapper\n\
    \ installed but the tracer off — one branch per record call, v(t) never\n\
    \ sampled. The validator fails the trajectory if its overhead reaches 5%.\n\
    \ \"ring\" adds SoA stores into the event ring; \"jsonl\" formats and\n\
    \ writes every event to a scratch file.)";
  print_newline ();
  section "E23: oracle acceptance sweep, serial vs parallel (sfq.par)";
  let parallel = [ parallel_sweep ~domains () ] in
  let ptable =
    Text_table.create
      [ "series"; "cells"; "domains"; "serial s"; "parallel s"; "speedup"; "identical" ]
  in
  List.iter
    (fun (r : parallel_row) ->
      Text_table.add_row ptable
        [
          r.p_series;
          string_of_int r.p_cells;
          string_of_int r.p_domains;
          Printf.sprintf "%.3f" r.serial_s;
          Printf.sprintf "%.3f" r.parallel_s;
          Printf.sprintf "%.2fx" r.speedup;
          string_of_bool r.identical;
        ])
    parallel;
  Text_table.print ptable;
  print_endline
    "(Wall time of the full oracle acceptance sweep — every (discipline,\n\
    \ workload) monitor cell — serially and through a domains-wide sfq.par\n\
    \ pool. \"identical\" is the determinism witness: both runs hash every\n\
    \ departure and monitor verdict to the same digest, so the speedup\n\
    \ column can only be bought with real parallelism, never reordering.\n\
    \ Speedup tracks the number of cores actually online, not domains.)";
  print_newline ();
  section "E27: network-scale simulation throughput (churned star, netsim)";
  (* audit (parallel safety): serial — the peak_rss_kb column is a
     process-global /proc reading and only means something when one
     simulation owns the heap at a time. *)
  let netsim = netsim_rows ~quick () in
  let ntable =
    Text_table.create [ "discipline"; "flows"; "hops"; "pkts/s"; "rss kB (bound)" ]
  in
  List.iter
    (fun (r : netsim_row) ->
      Text_table.add_row ntable
        [
          r.nt_disc;
          string_of_int r.nt_flows;
          string_of_int r.nt_hops;
          Printf.sprintf "%.0f" r.nt_pps;
          (match r.nt_peak_rss_kb with
          | None -> Printf.sprintf "- (%d)" r.nt_bound_kb
          | Some kb -> Printf.sprintf "%d (%d)" kb r.nt_bound_kb);
        ])
    netsim;
  Text_table.print ntable;
  print_endline
    "(Whole-simulation throughput: a 64-leaf star draining the given number of\n\
    \ churned flows through a 4096-id window, with the composed Thm 8/9 delay\n\
    \ oracle and the network conservation probes attached — a violation fails\n\
    \ the bench run. Live state is bounded by the window, not the flow count;\n\
    \ the validator rejects the file if peak RSS crosses the recorded bound.)";
  print_newline ();
  section "E28: LSTF schedule-replay universality scoreboard";
  let replay = replay_rows () in
  let rtable = Text_table.create [ "tier"; "cells"; "ok" ] in
  List.iter
    (fun (r : replay_row) ->
      Text_table.add_row rtable
        [ r.rp_tier; string_of_int r.rp_cells; string_of_int r.rp_ok ])
    replay;
  Text_table.print rtable;
  print_endline
    "(Each tier counts its E28 cells and how many met the tier's expectation:\n\
    \ single/net replays succeed, seeded mutants die, and at least one SFQ\n\
    \ negative-control cell delivers late. The counts are deterministic, so\n\
    \ the validator gates on them exactly — a replay regression or a vacuous\n\
    \ control flips the file to invalid.)";
  print_newline ();
  emit_json ~quick ~domains ~flow_scaling ~depth_scaling ~pifo ~overhead ~parallel
    ~netsim ~replay "BENCH_sched.json"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "quick" args in
  let micro_only = List.mem "micro" args in
  (* domains=N token beats SFQ_DOMAINS beats 1; the CI parallel leg
     sets the environment variable rather than editing the command. *)
  let domains =
    let of_tok t = int_of_string_opt (String.sub t 8 (String.length t - 8)) in
    let tok =
      List.find_map
        (fun a ->
          if String.length a > 8 && String.sub a 0 8 = "domains=" then of_tok a else None)
        args
    in
    match tok with
    | Some d when d >= 1 -> d
    | Some _ ->
      prerr_endline "bench: domains= must be >= 1";
      exit 2
    | None -> (
      match Option.bind (Sys.getenv_opt "SFQ_DOMAINS") int_of_string_opt with
      | Some d when d >= 1 -> d
      | _ -> 1)
  in
  if not micro_only then run_experiments ~quick;
  run_micro ~quick ~domains ()
