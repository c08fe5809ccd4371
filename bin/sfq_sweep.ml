(* Domain-parallel sweep CLI: regenerate every experiment behind
   EXPERIMENTS.md (the Registry, E1-E24) plus the oracle acceptance
   sweep, fanned out over a fixed-size domain pool, and print a
   per-experiment digest table.

     sfq_sweep list
     sfq_sweep run --domains 4 --seed 7
     sfq_sweep run --quick fig-1b table-1
     sfq_sweep golden > test/golden/digests.expected
     sfq_sweep churn --cycles 10000   # bounded-memory lifecycle stress

   Digests are content hashes of each experiment's full result record,
   so the table is a behavioral fingerprint of the whole reproduction:
   two builds agree on the digest column iff they agree on every number
   in every table and figure. The digest column is byte-identical at
   every --domains value (the determinism contract of sfq.par; the
   wall-clock column is the only thing parallelism may change). With
   --seed S, experiment #i runs under Seed.derive ~root:S ~index:i —
   derived from the experiment's index, never from execution order. *)

open Sfq_util
open Sfq_oracle
open Sfq_par

type row = { rid : string; title : string; digest : string; wall_s : float }

let wall_time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run_cmd domains seed quick with_oracle ids =
  let domains = if domains = 0 then Pool.default_domains () else domains in
  if domains < 1 then begin
    prerr_endline "sfq-sweep: --domains must be >= 0";
    exit 2
  end;
  let entries =
    match ids with
    | [] -> Sfq_experiments.Registry.all
    | ids ->
      List.map
        (fun id ->
          match Sfq_experiments.Registry.find id with
          | Some e -> e
          | None ->
            Printf.eprintf "sfq-sweep: unknown experiment %S (try: sfq-sweep list)\n" id;
            exit 2)
        ids
  in
  (* Entry indices in Registry.all (not in the filtered list) seed the
     derivation, so "--seed 7 fig-1b" and a full "--seed 7" run agree
     on fig-1b's digest. *)
  let index_of e =
    let rec go i = function
      | [] -> assert false
      | (x : Sfq_experiments.Registry.entry) :: tl -> if x.id = e then i else go (i + 1) tl
    in
    go 0 Sfq_experiments.Registry.all
  in
  let tasks = Array.of_list entries in
  let total_t0 = Unix.gettimeofday () in
  let rows =
    Pool.run ~domains
      ~f:(fun _ (e : Sfq_experiments.Registry.entry) ->
        (* audit (parallel safety): Registry entries build all mutable
           state inside run; the derived seed is a pure function of the
           entry's index *)
        let seed = Option.map (fun s -> Seed.derive ~root:s ~index:(index_of e.id)) seed in
        let digest, wall_s =
          wall_time (fun () -> Sfq_experiments.Registry.digest e ?seed ~quick ())
        in
        { rid = e.id; title = e.title; digest; wall_s })
      tasks
  in
  let rows = Array.to_list rows in
  (* The oracle acceptance sweep rides along as a final row: its digest
     covers every monitor verdict of every (discipline, workload) cell.
     Run after the experiment fan-out (nested submission is rejected by
     the pool), through its own pool at the same domain count. *)
  let rows =
    if not with_oracle then rows
    else begin
      let cells = Suite.all_cells () in
      let digest, wall_s =
        wall_time (fun () ->
            Digest.to_hex (Digest.string (Run.sweep_digest cells (Run.sweep ~domains cells))))
      in
      rows
      @ [
          {
            rid = "oracle-sweep";
            title = Printf.sprintf "acceptance sweep (%d cells)" (List.length cells);
            digest;
            wall_s;
          };
        ]
    end
  in
  let total_s = Unix.gettimeofday () -. total_t0 in
  let table = Text_table.create [ "experiment"; "title"; "digest"; "wall s" ] in
  List.iter
    (fun r ->
      Text_table.add_row table [ r.rid; r.title; r.digest; Printf.sprintf "%.3f" r.wall_s ])
    rows;
  Text_table.print table;
  Printf.printf
    "\n%d experiment(s), %d domain(s), %s, seed %s: %.3f s wall.\n\
     (The digest column is invariant under --domains; wall times are not.)\n"
    (List.length rows) domains
    (if quick then "quick" else "full")
    (match seed with None -> "default" | Some s -> string_of_int s)
    total_s;
  0

let list_cmd () =
  List.iter
    (fun (e : Sfq_experiments.Registry.entry) -> Printf.printf "%-16s %s\n" e.id e.title)
    Sfq_experiments.Registry.all;
  Printf.printf "%-16s %s\n" "oracle-sweep" "acceptance sweep over all oracle cells (--oracle)";
  0

let golden_cmd () =
  print_string (Sfq_experiments.Registry.golden_corpus ());
  0

(* ------------------------------------------------------------------ *)
(* churn: the bounded-memory stress check CI runs. Each domain churns
   [cycles] open/close lifecycles through a Flow_registry + a live SFQ
   instance (2 packets in, 1 served, close flushes the rest, id
   recycled), then we assert the structural invariants — every id
   recycled, dense state bounded by the live window, packet
   conservation — and that process RSS grew by less than a fixed
   bound across the whole run. *)

type churn_stats = {
  served : int;
  flushed : int;
  opened : int;
  peak_live : int;
  high_water : int;
}

let rss_kb () =
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

let churn_task ~cycles ~window =
  let open Sfq_base in
  let reg = Flow_registry.create () in
  let s = Sfq_core.Sfq.create (Weights.of_list ~default:1.0 []) in
  let sched = Sfq_core.Sfq.sched s in
  let live = Queue.create () in
  let now = ref 0.0 in
  let served = ref 0 in
  let flushed = ref 0 in
  let close f =
    flushed := !flushed + List.length (sched.Sched.close_flow ~now:!now f);
    Flow_registry.close_flow reg f
  in
  for _ = 1 to cycles do
    let f = Flow_registry.open_flow reg in
    Queue.push f live;
    sched.Sched.enqueue ~now:!now (Packet.make ~flow:f ~seq:1 ~len:1000 ~born:!now ());
    sched.Sched.enqueue ~now:!now (Packet.make ~flow:f ~seq:2 ~len:1000 ~born:!now ());
    (match sched.Sched.dequeue ~now:!now with Some _ -> incr served | None -> ());
    if Queue.length live > window then close (Queue.pop live);
    now := !now +. 1e-3
  done;
  Queue.iter close live;
  if Flow_registry.live reg <> 0 then failwith "churn: registry still has open flows";
  if sched.Sched.size () <> 0 then failwith "churn: scheduler backlog after full drain";
  {
    served = !served;
    flushed = !flushed;
    opened = Flow_registry.opened reg;
    peak_live = Flow_registry.peak_live reg;
    high_water = Flow_registry.high_water reg;
  }

let churn_cmd domains cycles window rss_limit_kb =
  let domains =
    if domains > 0 then domains
    else
      match Sys.getenv_opt "SFQ_DOMAINS" with
      | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
      | None -> 1
  in
  if cycles < 1 || window < 1 then begin
    prerr_endline "sfq-sweep: --cycles and --window must be >= 1";
    exit 2
  end;
  (* Warm up allocators and code paths before the baseline RSS reading,
     so the growth measured below is attributable to the churn itself. *)
  ignore (churn_task ~cycles:(min cycles 1000) ~window);
  Gc.compact ();
  let rss0 = rss_kb () in
  let t0 = Unix.gettimeofday () in
  let stats =
    Pool.run ~domains
      ~f:(fun _ () -> churn_task ~cycles ~window)
      (Array.make domains ())
  in
  let wall = Unix.gettimeofday () -. t0 in
  Gc.compact ();
  let rss1 = rss_kb () in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  Array.iteri
    (fun i (st : churn_stats) ->
      Printf.printf
        "domain %d: opened=%d served=%d flushed=%d peak_live=%d high_water=%d\n" i
        st.opened st.served st.flushed st.peak_live st.high_water;
      if st.opened <> cycles then fail "domain %d: opened %d <> cycles %d" i st.opened cycles;
      if st.served + st.flushed <> 2 * cycles then
        fail "domain %d: conservation broken: served %d + flushed %d <> enqueued %d" i
          st.served st.flushed (2 * cycles);
      if st.high_water <> st.peak_live then
        fail "domain %d: id leak: high_water %d <> peak_live %d (close did not recycle)" i
          st.high_water st.peak_live;
      if st.peak_live > window + 1 then
        fail "domain %d: live window exceeded: peak_live %d > %d" i st.peak_live (window + 1);
      if st <> stats.(0) then fail "domain %d: stats differ from domain 0" i)
    stats;
  (match (rss0, rss1) with
  | Some kb0, Some kb1 ->
    let growth = kb1 - kb0 in
    Printf.printf "rss: %d kB -> %d kB (growth %d kB, bound %d kB)\n" kb0 kb1 growth
      rss_limit_kb;
    if growth > rss_limit_kb then
      fail "rss grew by %d kB over the %d kB bound: churn is not bounded-memory" growth
        rss_limit_kb
  | _ -> print_endline "rss: /proc/self/status unavailable, growth check skipped");
  Printf.printf "%d cycle(s) x %d domain(s), window %d: %.3f s wall.\n" cycles domains
    window wall;
  match !failures with
  | [] ->
    print_endline "churn: OK";
    0
  | fs ->
    List.iter (fun m -> Printf.eprintf "churn: FAIL: %s\n" m) (List.rev fs);
    1

let env_domains domains =
  if domains > 0 then domains
  else
    match Sys.getenv_opt "SFQ_DOMAINS" with
    | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
    | None -> 1

(* ------------------------------------------------------------------ *)
(* pifo: digest equivalence of every Programs rank program against
   its float original, over the pifo_cells slice of the theorem pool,
   plus a verdict check on the approximate sp-pifo cells. The outcome
   digests cover departures, finish time, drops and monitor
   violations, so equality here means the rank program drained the
   same traffic to the same instant with every theorem monitor equally
   silent. *)

let pifo_cmd domains =
  let domains = env_domains domains in
  let pool = List.filteri (fun i _ -> i < 90) (Suite.theorem_pool ()) in
  let pifo = Suite.pifo_cells () in
  let prefixed p =
    List.filter
      (fun (c : Run.cell) ->
        String.length c.Run.label >= String.length p
        && String.sub c.Run.label 0 (String.length p) = p)
      pifo
  in
  let weights_of (w : Workload.t) =
    Sfq_base.Weights.of_list ~default:1.0 w.Workload.weights
  in
  (* float counterparts of the structurally-monitored ports, over the
     same pool slice (Suite's structural_cells use the override pool) *)
  let structural_cells what mk =
    List.mapi
      (fun i w ->
        {
          Run.label = Printf.sprintf "%s#%d" what i;
          workload = w;
          driver =
            (fun () ->
              { Run.sched = mk w; monitors = Suite.structural (); on_reweight = None });
        })
      pool
  in
  let specs (w : Workload.t) =
    List.map
      (fun (f, r) ->
        (f, { Sfq_sched.Delay_edd.rate = r; deadline = 1.0; max_len = 1000 }))
      w.Workload.weights
  in
  let failures = ref 0 in
  let table = Text_table.create [ "pair"; "cells"; "identical"; "wall s" ] in
  let check name base_cells pifo_cells =
    let (base, pifo_out), wall_s =
      wall_time (fun () ->
          (Run.sweep ~domains base_cells, Run.sweep ~domains pifo_cells))
    in
    let n = Array.length base in
    let ok = ref 0 in
    for i = 0 to n - 1 do
      let db = Run.outcome_digest base.(i) and dp = Run.outcome_digest pifo_out.(i) in
      if db = dp then incr ok
      else begin
        incr failures;
        Printf.eprintf "pifo: MISMATCH %s cell %d:\n  float: %s\n  pifo:  %s\n" name i
          db dp
      end
    done;
    Text_table.add_row table
      [ name; string_of_int n; Printf.sprintf "%d/%d" !ok n; Printf.sprintf "%.3f" wall_s ]
  in
  check "sfq = pifo-sfq" (Suite.sfq_cells ~pool ()) (prefixed "pifo-sfq#");
  check "scfq = pifo-scfq" (Suite.scfq_cells ~pool ()) (prefixed "pifo-scfq#");
  check "vc = pifo-vc"
    (structural_cells "vc" (fun w ->
         Sfq_sched.Virtual_clock.sched (Sfq_sched.Virtual_clock.create (weights_of w))))
    (prefixed "pifo-vc#");
  check "edd = pifo-edd"
    (structural_cells "edd" (fun w ->
         Sfq_sched.Delay_edd.sched (Sfq_sched.Delay_edd.create (specs w))))
    (prefixed "pifo-edd#");
  check "fqs = pifo-fqs"
    (structural_cells "fqs" (fun w ->
         Sfq_sched.Fqs.sched
           (Sfq_sched.Fqs.create ~capacity:w.Workload.capacity (weights_of w))))
    (prefixed "pifo-fqs#");
  check "wf2q = pifo-wf2q"
    (structural_cells "wf2q" (fun w ->
         Sfq_sched.Wf2q.sched
           (Sfq_sched.Wf2q.create ~capacity:w.Workload.capacity (weights_of w))))
    (prefixed "pifo-wf2q#");
  (* sp-pifo approximates rank order, so there is no float twin to
     match — but its structural/conservation monitors must stay silent
     (the relaxed fairness oracle never fails by construction). *)
  let sp_out, sp_wall =
    wall_time (fun () -> Run.sweep ~domains (Suite.sp_pifo_cells ()))
  in
  let sp_ok = ref 0 in
  Array.iteri
    (fun i (o : Run.outcome) ->
      if o.Run.violations = [] then incr sp_ok
      else begin
        incr failures;
        List.iter
          (fun v -> Format.eprintf "pifo: sp-pifo cell %d: %a@." i Monitor.pp_violation v)
          o.Run.violations
      end)
    sp_out;
  Text_table.add_row table
    [
      "sp-pifo clean";
      string_of_int (Array.length sp_out);
      Printf.sprintf "%d/%d" !sp_ok (Array.length sp_out);
      Printf.sprintf "%.3f" sp_wall;
    ];
  Text_table.print table;
  if !failures = 0 then begin
    Printf.printf "pifo: OK (%d domain(s))\n" domains;
    0
  end
  else begin
    Printf.eprintf "pifo: %d failure(s)\n" !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* net: the network-scale sweep (E27). Two checks in one command: the
   topology x discipline grid must be digest-identical serial vs
   sharded (the Net_sweep determinism contract), and the optional
   --scale star must drain 10^5..10^6 churned flows with the composed
   Thm 8/9 oracle silent and process RSS growth under a bound. *)

let net_cmd domains seed scale rss_limit_kb =
  let domains = env_domains domains in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let cells = Sfq_experiments.Net_sweep.default_cells ?root:seed () in
  let serial, wall_serial =
    wall_time (fun () -> Sfq_experiments.Net_sweep.sweep cells)
  in
  let serial_digest = Sfq_experiments.Net_sweep.sweep_digest cells serial in
  let table = Text_table.create [ "cell"; "delivered"; "dropped"; "digest"; "viol" ] in
  List.iteri
    (fun i (c : Sfq_experiments.Net_sweep.scenario) ->
      let o = serial.(i) in
      let nv = List.length o.Sfq_experiments.Net_sweep.violations in
      if nv > 0 then begin
        fail "cell %s: %d monitor violation(s)" c.Sfq_experiments.Net_sweep.label nv;
        List.iter
          (fun v -> Format.eprintf "net: %s: %a@." c.Sfq_experiments.Net_sweep.label
              Monitor.pp_violation v)
          o.Sfq_experiments.Net_sweep.violations
      end;
      Text_table.add_row table
        [
          c.Sfq_experiments.Net_sweep.label;
          string_of_int o.Sfq_experiments.Net_sweep.delivered;
          string_of_int o.Sfq_experiments.Net_sweep.dropped;
          Digest.to_hex
            (Digest.string (Sfq_experiments.Net_sweep.outcome_digest o));
          string_of_int nv;
        ])
    cells;
  Text_table.print table;
  let sharded, wall_sharded =
    wall_time (fun () -> Sfq_experiments.Net_sweep.sweep ~domains cells)
  in
  let sharded_digest = Sfq_experiments.Net_sweep.sweep_digest cells sharded in
  let identical = sharded_digest = serial_digest in
  if not identical then
    fail "sharded sweep digest differs from serial at %d domain(s)" domains;
  Printf.printf
    "grid: %d cells, serial %.3f s, %d domain(s) %.3f s, digests %s.\n"
    (List.length cells) wall_serial domains wall_sharded
    (if identical then "identical" else "DIFFER");
  if scale > 0 then begin
    Gc.compact ();
    let rss0 = rss_kb () in
    let s = Sfq_experiments.Net_sweep.scale_star ~flows:scale () in
    let o, wall = wall_time (fun () -> Sfq_experiments.Net_sweep.run_scenario s) in
    Gc.compact ();
    let rss1 = rss_kb () in
    let open Sfq_experiments.Net_sweep in
    Printf.printf
      "scale: %s: %d delivered in %.1f s (%.0f pkt/s), ids %d (window-bounded), \
       e2e checked=%d lost=%d min_slack=%g, hash=%016Lx\n"
      s.label o.delivered wall
      (float_of_int o.delivered /. Float.max wall 1e-9)
      o.high_water o.e2e_checked o.e2e_lost o.min_slack o.order_hash;
    if o.violations <> [] then begin
      fail "scale cell %s: %d monitor violation(s)" s.label (List.length o.violations);
      List.iter
        (fun v -> Format.eprintf "net: scale: %a@." Monitor.pp_violation v)
        o.violations
    end;
    if o.in_flight <> 0 then
      fail "scale cell %s: %d packet(s) left in flight after drain" s.label o.in_flight;
    match (rss0, rss1) with
    | Some kb0, Some kb1 ->
      let growth = kb1 - kb0 in
      Printf.printf "scale: rss %d kB -> %d kB (growth %d kB, bound %d kB)\n" kb0 kb1
        growth rss_limit_kb;
      if growth > rss_limit_kb then
        fail "scale rss grew by %d kB over the %d kB bound" growth rss_limit_kb
    | _ -> print_endline "scale: rss unavailable, growth check skipped"
  end;
  match !failures with
  | [] ->
    print_endline "net: OK";
    0
  | fs ->
    List.iter (fun m -> Printf.eprintf "net: FAIL: %s\n" m) (List.rev fs);
    1

(* ------------------------------------------------------------------ *)
(* replay: the E28 schedule-replay universality check. Single-hop
   (discipline x workload) cells fan over the domain pool — each cell
   records a schedule and replays it under LSTF — then the network
   grid, the SFQ negative control and the seeded-mutant kills run via
   the E28 module, and everything lands in one digest table. *)

let replay_cmd domains limit =
  let domains = env_domains domains in
  let module Lr = Sfq_experiments.Lstf_replay in
  let module Replay = Sfq_oracle.Replay in
  let failures = ref 0 in
  let table = Text_table.create [ "cell"; "verdict"; "ok" ] in
  let add (r : Lr.row) =
    if not r.Lr.ok then incr failures;
    Text_table.add_row table [ r.Lr.cell; r.Lr.verdict; (if r.Lr.ok then "yes" else "NO") ]
  in
  let single_cells = Array.of_list (Replay.suite_cells ~limit ()) in
  let single, wall_single =
    wall_time (fun () ->
        Pool.run ~domains
          ~f:(fun _ (c : Replay.cell) ->
            (* audit (parallel safety): a replay cell builds its
               schedulers, service log and schedule inside run *)
            let v = c.Replay.run () in
            {
              Lr.cell = c.Replay.label;
              verdict = Replay.verdict_digest v;
              ok = (match v with Replay.Replayed _ -> true | Replay.Diverged _ -> false);
            })
          single_cells)
  in
  Array.iter add single;
  (* the network half is serial: each cell is already a whole-network
     simulation, and the record→replay pair shares a schedule *)
  let e28, wall_net = wall_time (fun () -> Lr.run ~limit:0 ()) in
  List.iter add e28.Lr.net;
  List.iter add e28.Lr.control;
  List.iter add e28.Lr.kills;
  (if not (List.exists (fun (r : Lr.row) -> r.Lr.ok) e28.Lr.control) then begin
     incr failures;
     prerr_endline
       "replay: negative control vacuous: SFQ replayed every DRR recording"
   end);
  Text_table.print table;
  Printf.printf
    "replay: %d single-hop cell(s) over %d domain(s) in %.3f s; %d network \
     row(s) in %.3f s.\n"
    (Array.length single_cells) domains wall_single
    (List.length e28.Lr.net + List.length e28.Lr.control + List.length e28.Lr.kills)
    wall_net;
  if !failures = 0 then begin
    print_endline "replay: OK";
    0
  end
  else begin
    Printf.eprintf "replay: %d failure(s)\n" !failures;
    1
  end

open Cmdliner

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Domain count for the sweep pool (0 = hardware default). The digest \
              column is identical at every value.")

let seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"S"
        ~doc:"Root seed; experiment #i runs under a seed derived from (S, i). \
              Omit for each experiment's paper-default seed.")

let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced workload sizes.")

let oracle_arg =
  Arg.(
    value & flag
    & info [ "oracle" ] ~doc:"Also run the oracle acceptance sweep as a final row.")

let ids_arg = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")

let run_t =
  Term.(
    const (fun d s q o ids -> Stdlib.exit (run_cmd d s q o ids))
    $ domains_arg $ seed_arg $ quick_arg $ oracle_arg $ ids_arg)

let run_cmd_t =
  Cmd.v
    (Cmd.info "run" ~doc:"Regenerate experiment data and print the digest table")
    run_t

let list_t = Term.(const (fun () -> Stdlib.exit (list_cmd ())) $ const ())
let list_cmd_t = Cmd.v (Cmd.info "list" ~doc:"List experiment ids") list_t

let golden_t = Term.(const (fun () -> Stdlib.exit (golden_cmd ())) $ const ())

let golden_cmd_t =
  Cmd.v
    (Cmd.info "golden" ~doc:"Print the golden compact-digest corpus (test/golden)")
    golden_t

let churn_domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"N"
        ~doc:"Concurrent churn domains (0 = \\$SFQ_DOMAINS, or 1 if unset).")

let cycles_arg =
  Arg.(
    value & opt int 10_000
    & info [ "cycles" ] ~docv:"N" ~doc:"Open/close lifecycles per domain.")

let window_arg =
  Arg.(
    value & opt int 8
    & info [ "window" ] ~docv:"N" ~doc:"Concurrently-open flows during the churn.")

let rss_limit_arg =
  Arg.(
    value & opt int 16_384
    & info [ "rss-limit-kb" ] ~docv:"KB"
        ~doc:"Fail if process RSS grows by more than this many kB across the run.")

let churn_t =
  Term.(
    const (fun d c w r -> Stdlib.exit (churn_cmd d c w r))
    $ churn_domains_arg $ cycles_arg $ window_arg $ rss_limit_arg)

let churn_cmd_t =
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Bounded-memory churn stress: cycle flow ids through a registry and a live \
          SFQ, asserting id recycling, packet conservation and an RSS growth bound")
    churn_t

let sweep_domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"N"
        ~doc:"Sweep domains (0 = \\$SFQ_DOMAINS, or 1 if unset).")

let net_seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"S"
        ~doc:"Root seed for the grid cells (cell #i derives from (S, i)). Omit for \
              the default grid.")

let scale_arg =
  Arg.(
    value & opt int 0
    & info [ "scale" ] ~docv:"FLOWS"
        ~doc:"Also run the churned scaling star with this many total flows (0 = \
              skip). The composed end-to-end oracle must stay silent.")

let net_rss_limit_arg =
  Arg.(
    value & opt int 1_048_576
    & info [ "rss-limit-kb" ] ~docv:"KB"
        ~doc:"Fail the --scale run if process RSS grows by more than this many kB.")

let net_t =
  Term.(
    const (fun d s sc r -> Stdlib.exit (net_cmd d s sc r))
    $ sweep_domains_arg $ net_seed_arg $ scale_arg $ net_rss_limit_arg)

let net_cmd_t =
  Cmd.v
    (Cmd.info "net"
       ~doc:
         "Network-scale topology sweep (E27): run the star/line/tree/dumbbell x \
          discipline grid serially and sharded over the domain pool, check the \
          delivery digests are identical, and optionally scale a churned star to \
          --scale flows under an RSS growth bound with the composed Thm 8/9 \
          delay oracle attached")
    net_t

let replay_limit_arg =
  Arg.(
    value & opt int 12
    & info [ "limit" ] ~docv:"N"
        ~doc:"Truncate the theorem pool to N workloads for the single-hop cells \
              (every shipped discipline is recorded and replayed on each).")

let replay_t =
  Term.(
    const (fun d l -> Stdlib.exit (replay_cmd d l))
    $ sweep_domains_arg $ replay_limit_arg)

let replay_cmd_t =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Schedule-replay universality (E28): record each discipline's departure \
          schedule on frozen single-hop workloads and the E27 network grid, replay \
          the arrivals under LSTF (rank = recorded output time minus remaining \
          path service time) and check packet-for-packet fidelity; SFQ as the \
          diverging negative control, plus the seeded lstf-wrong-slack and \
          lstf-priority-tie mutant kills")
    replay_t

let pifo_t = Term.(const (fun d -> Stdlib.exit (pifo_cmd d)) $ sweep_domains_arg)

let pifo_cmd_t =
  Cmd.v
    (Cmd.info "pifo"
       ~doc:
         "Check the programmable PIFO runtime: cell-by-cell outcome-digest equality \
          of every rank-program port (pifo-sfq/scfq/vc/edd/fqs/wf2q) against its \
          float original over the frozen theorem pool, and a clean-verdict check on \
          the approximate sp-pifo cells")
    pifo_t

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "sfq-sweep" ~doc:"Domain-parallel experiment sweep CLI" in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            run_cmd_t;
            list_cmd_t;
            golden_cmd_t;
            churn_cmd_t;
            pifo_cmd_t;
            net_cmd_t;
            replay_cmd_t;
          ]))
