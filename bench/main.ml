(* The micro bench behind two claims, written to BENCH_sched.json
   (schema sfq-bench-sched/9; see EXPERIMENTS.md E14 and E22):

   - E14, Table 1's computational-efficiency column: ns per packet per
     discipline against the flow count ("flow_scaling") and, at 512
     flows, against the per-flow backlog depth ("depth_scaling"). The
     Flow_heap schedulers are flat in queued packets and logarithmic in
     flows, the paper's O(log F) claim (S2.2), against the frozen seed
     O(log Q) implementation (`sfq-ref`).
   - E22, the cost of the sfq.obs tracer on the SFQ hot path, as a
     ratio to an untraced twin.

   dune exec bench/main.exe            -- full quota
   dune exec bench/main.exe -- quick   -- smoke quota (dune build @bench-quick)

   The paper's tables and figures are printed by `sfq_demo all`.

   Every timing comes from one estimator, [rounds]: k rounds, each
   timing one batch of every row of a series, so clock drift and a
   neighbour on the host land on every row alike. Each row reports the
   median and quartiles of its k samples. The loop is a bare monotonic
   clock around the batch. The minor collections and major slices that
   a row's own garbage triggers fall inside its batch, so a boxed-entry
   heap pays for its allocation pattern; only the collector work still
   owed when a batch ends is settled, untimed, before the next one. *)

open Sfq_util
open Sfq_base
open Sfq_sched
open Sfq_experiments

let line = String.make 78 '='

let section title =
  Printf.printf "%s\n%s\n%s\n\n" line title line

(* ------------------------------------------------------------------ *)
(* The estimator                                                        *)

(* [rounds k batches]: row i's k samples, in [samples.(i)]. A round
   runs every batch once, forward on even rounds and backward on odd
   ones, so two adjacent rows take turns running first. Each batch
   starts after [Gc.major]: the collector work one batch leaves owing
   would otherwise be charged to the row timed after it (without it,
   SFQ at 4 flows read about twice its cost whenever it followed
   FIFO). *)
let rounds k (batches : (unit -> float) array) =
  let n = Array.length batches in
  let samples = Array.make_matrix n k 0.0 in
  for r = 0 to k - 1 do
    for j = 0 to n - 1 do
      let i = if r land 1 = 0 then j else n - 1 - j in
      Gc.major ();
      samples.(i).(r) <- batches.(i) ()
    done
  done;
  samples

type band = { p25 : float; median : float; p75 : float }

let band samples =
  {
    p25 = Stats.percentile samples 25.0;
    median = Stats.percentile samples 50.0;
    p75 = Stats.percentile samples 75.0;
  }

let elapsed_ns t0 t1 = Int64.to_float (Int64.sub t1 t0)

(* ns per op of one batch of [ops] steps *)
let timed_batch step ops =
  let t0 = Monotonic_clock.now () in
  for _ = 1 to ops do
    step ()
  done;
  elapsed_ns t0 (Monotonic_clock.now ()) /. float_of_int ops

(* ------------------------------------------------------------------ *)
(* E14: per-packet cost of each discipline (Table 1, complexity column) *)

let flow_counts = [ 4; 64; 512 ]
let depth_flow_count = 512
let depths = [ 1; 4; 16; 64 ]

(* The frozen seed SFQ (single per-packet heap, closure comparator,
   O(log Q)) as a Sched.t, so the trajectory always carries the
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

(* Steady state: the queue holds [depth] packets per flow; one step
   enqueues one packet (round-robin over flows) and dequeues one,
   preserving the backlog. The clock passed in advances so time-driven
   disciplines do real work. Prefills the backlog and returns the
   step. *)
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

(* A steady-state row's batch, after one untimed batch that grows rings
   and heaps to their final capacity. *)
let steady_batch ~nflows ~depth ~ops sched =
  let step = steady_stepper ~nflows ~depth sched in
  ignore (timed_batch step ops);
  fun () -> timed_batch step ops

(* Fill/drain: enqueue nflows x depth packets, then drain the queue —
   every packet pays one enqueue and one dequeue against the full
   backlog, the per-packet cost of the paper's Table 1. One batch is one
   fill and drain, after an untimed one. *)
let fill_drain_batch ~nflows ~depth sched =
  let npk = nflows * depth in
  let fill_drain () =
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
  fill_drain ();
  fun () -> timed_batch fill_drain 1 /. float_of_int npk

type row = { disc : string; flows : int; depth : int; ns : band }

(* Time every row of a series in the same rounds. *)
let measure ~k specs =
  let samples = rounds k (Array.of_list (List.map (fun (_, _, _, batch) -> batch) specs)) in
  List.mapi (fun i (disc, flows, depth, _) -> { disc; flows; depth; ns = band samples.(i) }) specs

let e14 ~quick =
  let k, ops = if quick then (5, 1_000) else (11, 20_000) in
  let flow_scaling =
    measure ~k
      (List.concat_map
         (fun nflows ->
           List.map
             (fun (disc, make) ->
               (disc, nflows, 1, steady_batch ~nflows ~depth:1 ~ops (make ())))
             (disciplines nflows))
         flow_counts)
  in
  let depth_scaling =
    measure ~k
      (List.concat_map
         (fun depth ->
           List.map
             (fun (disc, make) ->
               ( disc,
                 depth_flow_count,
                 depth,
                 fill_drain_batch ~nflows:depth_flow_count ~depth (make ()) ))
             depth_disciplines)
         depths)
  in
  (flow_scaling, depth_scaling)

(* ------------------------------------------------------------------ *)
(* E22: cost of the sfq.obs tracer on the SFQ hot path                  *)

let e22_flows = 512
let e22_depth = 64
let e22_rounds = 21

type overhead = { mode : string; untraced : band; traced : band; ratio : band }

(* SFQ at 512 flows x 64-deep backlog under three tracer
   configurations: a disabled tracer (the always-on production shape:
   one branch per record call, v(t) never sampled), a live ring sink,
   and a live JSONL sink streaming to a scratch file.

   Each mode is a series of two rows over one SFQ instance: the traced
   run drives it through the wrapper, and its untraced twin drives it
   directly, with the tracer off. The two share every queue, ring and
   packet, so their ratio sees the code path alone: two instances of
   the very same untraced code read 7-11% apart from where their arrays
   happen to lie. The estimator alternates which row runs first, and
   the ratio band is taken over the per-round ratios, so drift that
   moves both runs of a round cancels. The quota is the same in quick
   and full runs, since the validator gates the disabled band; JSONL,
   some 30 times slower per op, gets smaller batches. *)
let tracing_overhead () =
  let weights = Weights.uniform 1000.0 in
  let scratch = Filename.temp_file "sfq_bench_trace" ".jsonl" in
  let scratch_oc = open_out scratch in
  let rows =
    List.map
      (fun (mode, ops, make_tracer) ->
        let tracer = make_tracer () in
        let on = Sfq_obs.Tracer.active_flag tracer in
        let core = Sfq_core.Sfq.create weights in
        Sfq_core.Sfq.set_tag_hook core ~active:on (Sfq_obs.Tracer.tag_hook tracer);
        let batch ~depth = steady_batch ~nflows:e22_flows ~depth ~ops in
        (* the traced run fills the backlog, so the wrapper never sees
           its queue empty *)
        let run =
          batch ~depth:e22_depth
            (Sfq_obs.Tracer.wrap
               ~vtime:(fun () -> Sfq_core.Sfq.vtime core)
               tracer (Sfq_core.Sfq.sched core))
        in
        let direct = batch ~depth:0 (Sfq_core.Sfq.sched core) in
        let traced_on = !on in
        let twin () =
          on := false;
          let ns = direct () in
          on := traced_on;
          ns
        in
        let s = rounds e22_rounds [| twin; run |] in
        {
          mode;
          untraced = band s.(0);
          traced = band s.(1);
          ratio = band (Array.map2 ( /. ) s.(1) s.(0));
        })
      [
        ("disabled", 50_000, Sfq_obs.Tracer.disabled);
        ("ring", 50_000, fun () -> Sfq_obs.Tracer.create ~capacity:65536 ());
        ( "jsonl",
          2_000,
          fun () -> Sfq_obs.Tracer.create ~sink:(Sfq_obs.Tracer.Jsonl scratch_oc) () );
      ]
  in
  close_out scratch_oc;
  (try Sys.remove scratch with Sys_error _ -> ());
  rows

(* ------------------------------------------------------------------ *)
(* Report                                                               *)

let ns_cells b = [ Printf.sprintf "%.0f" b.median; Printf.sprintf "%.0f-%.0f" b.p25 b.p75 ]

let print_e14 flow_scaling depth_scaling =
  section "E14: per-packet enqueue+dequeue cost (Table 1 complexity column)";
  let table = Text_table.create [ "discipline"; "flows"; "ns/packet"; "p25-p75" ] in
  List.iter
    (fun r -> Text_table.add_row table ([ r.disc; string_of_int r.flows ] @ ns_cells r.ns))
    flow_scaling;
  Text_table.print table;
  print_endline
    "(SFQ, SCFQ and Virtual Clock keep one heap entry per backlogged flow —\n\
    \ O(log F) per packet, the paper's Table 1 bound; sfq-ref is the seed\n\
    \ per-packet O(log Q) heap kept as a baseline. WFQ's fluid clock adds the\n\
    \ GPS simulation on top; DRR/WRR are O(1); Fair Airport runs two\n\
    \ schedulers; pifo-* are the rank programs on the PIFO runtime. The\n\
    \ paper's claim: SFQ has SCFQ's cost, below WFQ's.)";
  print_newline ();
  section
    (Printf.sprintf "E14b: fill/drain cost vs per-flow backlog depth (%d flows)"
       depth_flow_count);
  let dtable =
    Text_table.create [ "discipline"; "depth"; "queued pkts"; "ns/packet"; "p25-p75" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row dtable
        ([ r.disc; string_of_int r.depth; string_of_int (r.flows * r.depth) ] @ ns_cells r.ns))
    depth_scaling;
  Text_table.print dtable;
  print_endline
    "(Each packet pays one enqueue and one dequeue against the full backlog.\n\
    \ Per-flow-heap disciplines are flat in the backlog depth — their heap\n\
    \ holds one entry per flow regardless of queued packets; the seed sfq-ref\n\
    \ heap grows with every queued packet and pays O(log Q), plus the GC\n\
    \ tax of one boxed heap entry per packet.)";
  print_newline ()

let print_e22 overhead =
  section
    (Printf.sprintf "E22: sfq.obs tracer overhead (SFQ, %d flows x %d deep, %d rounds)"
       e22_flows e22_depth e22_rounds);
  let table =
    Text_table.create
      [ "mode"; "untraced ns"; "traced ns"; "ratio"; "ratio p25-p75" ]
  in
  List.iter
    (fun o ->
      Text_table.add_row table
        [
          o.mode;
          Printf.sprintf "%.0f" o.untraced.median;
          Printf.sprintf "%.0f" o.traced.median;
          Printf.sprintf "%.3f" o.ratio.median;
          Printf.sprintf "%.3f-%.3f" o.ratio.p25 o.ratio.p75;
        ])
    overhead;
  Text_table.print table;
  Printf.printf
    "(Each mode against an untraced twin timed in the same rounds. \"disabled\"\n\
    \ is the shape a production build ships: the wrapper installed, the tracer\n\
    \ off. The validator fails the file when the disabled ratio's lower\n\
    \ quartile reaches %.2f: the whole band past the 5%% claim. \"ring\" adds\n\
    \ SoA stores into the event ring; \"jsonl\" formats and writes every event\n\
    \ to a scratch file.)\n\n"
    Bench_json.disabled_ratio_limit

(* ------------------------------------------------------------------ *)
(* BENCH_sched.json, by hand: no JSON library in the allowed set       *)

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

let band_json (median, p25, p75) b =
  Printf.sprintf "%S: %.4f, %S: %.4f, %S: %.4f" median b.median p25 b.p25 p75 b.p75

let emit_json ~quick ~flow_scaling ~depth_scaling ~overhead path =
  let series name rows =
    Printf.sprintf "  %S: [\n    %s\n  ]" name (String.concat ",\n    " rows)
  in
  let ns = band_json ("ns_per_packet", "ns_p25", "ns_p75") in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"sfq-bench-sched/9\",\n\
    \  \"quick\": %b,\n\
    \  \"unit\": \"ns per enqueue+dequeue\",\n\
    \  \"meta\": {\"git_sha\": %S, \"timestamp_utc\": %S, \"hostname\": %S},\n\
     %s,\n\
     %s,\n\
     %s\n\
     }\n"
    quick (git_sha ()) (utc_timestamp ()) (hostname ())
    (series "flow_scaling"
       (List.map
          (fun r -> Printf.sprintf "{\"discipline\": %S, \"flows\": %d, %s}" r.disc r.flows (ns r.ns))
          flow_scaling))
    (series "depth_scaling"
       (List.map
          (fun r ->
            Printf.sprintf
              "{\"discipline\": %S, \"flows\": %d, \"depth\": %d, \"queued_packets\": %d, %s}"
              r.disc r.flows r.depth (r.flows * r.depth) (ns r.ns))
          depth_scaling))
    (series "tracing_overhead"
       (List.map
          (fun o ->
            Printf.sprintf
              "{\"mode\": %S, \"flows\": %d, \"depth\": %d, \"untraced_ns_per_packet\": %.4f, \
               %s, %s}"
              o.mode e22_flows e22_depth o.untraced.median (ns o.traced)
              (band_json ("ratio", "ratio_p25", "ratio_p75") o.ratio))
          overhead));
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let quick =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> false
    | [ "quick" ] -> true
    | _ ->
      prerr_endline "usage: main.exe [quick]";
      exit 2
  in
  let flow_scaling, depth_scaling = e14 ~quick in
  print_e14 flow_scaling depth_scaling;
  let overhead = tracing_overhead () in
  print_e22 overhead;
  emit_json ~quick ~flow_scaling ~depth_scaling ~overhead "BENCH_sched.json"
