(* The experiment index. Keep ids and order in sync with EXPERIMENTS.md
   (E1 first); indices feed per-experiment seed derivation in the CLI,
   so reordering entries changes derived seeds — append, don't shuffle. *)

type entry = {
  id : string;
  title : string;
  run : ?seed:int -> quick:bool -> unit -> string;
}

let marshal r = Marshal.to_string r []

(* Most modules are deterministic with no size knob: ignore both. *)
let fixed run ?seed:_ ~quick:_ () = marshal (run ())

(* ?seed-taking modules: pass the override through, or let the module's
   default stand. *)
let seeded run ?seed ~quick:_ () = marshal (run ?seed ())

let all =
  [
    { id = "example-1"; title = "E1 Example 1: WFQ unfairness"; run = fixed Ex1_wfq_unfair.run };
    { id = "example-2"; title = "E2 Example 2: variable-rate server"; run = fixed (fun () -> Ex2_variable_rate.run ()) };
    {
      id = "fig-1b";
      title = "E3 Fig. 1(b): TCP fairness, WFQ vs SFQ";
      run = (fun ?seed ~quick:_ () -> marshal (Fig1_tcp_fairness.run ?seed ()));
    };
    {
      id = "table-1";
      title = "E4 Table 1: fairness across disciplines";
      run = (fun ?seed:_ ~quick () -> marshal (Table1_fairness.run ~quick ()));
    };
    {
      id = "fig-2a";
      title = "E5 Fig. 2(a): delay reduction";
      run = (fun ?seed:_ ~quick () -> marshal (Fig2a_delay_reduction.run ~quick ()));
    };
    {
      id = "fig-2b";
      title = "E6 Fig. 2(b): average delay";
      run =
        (fun ?seed ~quick () ->
          marshal (Fig2b_avg_delay.run ~duration:(if quick then 50.0 else 200.0) ?seed ()));
    };
    { id = "scfq-gap"; title = "E7 SCFQ delay gap"; run = fixed (fun () -> Scfq_delay_gap.run ()) };
    {
      id = "fig-3b";
      title = "E8 Fig. 3(b): link sharing";
      run =
        (fun ?seed ~quick () ->
          marshal
            (Fig3_link_sharing.run ~pkts_per_conn:(if quick then 1500 else 4000) ?seed ()));
    };
    { id = "hier-sharing"; title = "E9 Example 3: hierarchical sharing"; run = fixed (fun () -> Hier_sharing.run ()) };
    { id = "delay-shift"; title = "E10 §3 delay shifting"; run = fixed Delay_shifting.run };
    { id = "bounds"; title = "E11 Theorems 2/3/4/5 validation"; run = seeded Bound_validation.run };
    { id = "e2e"; title = "E12 Corollary 1 end-to-end"; run = seeded End_to_end.run };
    { id = "fair-airport"; title = "E13 Fair Airport"; run = seeded Fair_airport_exp.run };
    { id = "residual"; title = "E15 §2.3 priority residual"; run = seeded Priority_residual.run };
    { id = "tie-break"; title = "E16 §2.3 tie-breaking ablation"; run = fixed Tie_break_ablation.run };
    { id = "gsfq"; title = "E17 §2.3 generalized SFQ video"; run = seeded Gsfq_video.run };
    {
      id = "e2e-ebf";
      title = "E18 Theorem 5 stochastic end-to-end";
      run = (fun ?seed ~quick:_ () -> marshal (E2e_ebf.run ?seed ()));
    };
    { id = "busy-rule"; title = "E19 busy-period rule ablation"; run = seeded Busy_rule_ablation.run };
    {
      id = "fig-1-topology";
      title = "E20 Fig. 1(a) full topology";
      run = (fun ?seed ~quick:_ () -> marshal (Fig1_topology.run ?seed ()));
    };
    {
      id = "churn-stress";
      title = "E24 overload & churn robustness";
      run = fixed Churn_stress.run;
    };
    {
      id = "pifo-port";
      title = "E26 PIFO rank-program ports vs originals";
      run = seeded Pifo_port.run;
    };
    {
      id = "net-sweep";
      title = "E27 network-scale topology sweep";
      (* Registry entries already execute inside pool tasks when the CLI
         shards experiments, and Pool.map rejects nested submission — so
         this sweep always runs its cells serially. The sharded path is
         exercised by [sfq_sweep net] and test_par instead. *)
      run =
        (fun ?seed ~quick:_ () ->
          let cells = Net_sweep.default_cells ?root:seed () in
          marshal (Net_sweep.sweep_digest cells (Net_sweep.sweep cells)));
    };
    {
      id = "lstf-replay";
      title = "E28 LSTF schedule-replay universality";
      run = (fun ?seed ~quick:_ () -> marshal (Lstf_replay.run ?seed ()));
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let digest e ?seed ~quick () = Digest.to_hex (Digest.string (e.run ?seed ~quick ()))

(* ------------------------------------------------------------------ *)
(* Golden-trace compact digests: per-flow packet counts + order hashes
   for the service-order experiments, %h floats (exact, not rounded)
   for headline numbers. Small enough to check in, sharp enough that
   any behavioral drift — one swapped departure, one changed bit of an
   H value — changes the text. *)

let h = Printf.sprintf "%h"

let order_hash render items =
  Digest.to_hex (Digest.string (String.concat ";" (List.map render items)))

let compact_example1 () =
  let r = Ex1_wfq_unfair.run () in
  let count flow =
    List.length (List.filter (fun (f, _) -> f = flow) r.Ex1_wfq_unfair.wfq_order)
  in
  [
    Printf.sprintf "example-1 wfq_order_hash=%s flow1_pkts=%d flow2_pkts=%d"
      (order_hash
         (fun (f, s) -> Printf.sprintf "%d.%d" f s)
         r.Ex1_wfq_unfair.wfq_order)
      (count 1) (count 2);
    Printf.sprintf "example-1 wfq_h=%s sfq_h=%s lower=%s bound=%s"
      (h r.Ex1_wfq_unfair.wfq_h) (h r.Ex1_wfq_unfair.sfq_h)
      (h r.Ex1_wfq_unfair.h_lower_bound) (h r.Ex1_wfq_unfair.h_sfq_bound);
  ]

let compact_fig1b ?seed () =
  let r = Fig1_tcp_fairness.run ?seed () in
  let series_hash s = order_hash (fun (t, n) -> Printf.sprintf "%s,%d" (h t) n) s in
  let stats name (s : Fig1_tcp_fairness.run_stats) =
    Printf.sprintf
      "fig-1b.%s src2=%d src3=%d src3_first_435ms=%d src2_hash=%s src3_hash=%s" name
      s.Fig1_tcp_fairness.src2_window s.Fig1_tcp_fairness.src3_window
      s.Fig1_tcp_fairness.src3_first_435ms
      (series_hash s.Fig1_tcp_fairness.src2_series)
      (series_hash s.Fig1_tcp_fairness.src3_series)
  in
  [
    stats "wfq-fluid" r.Fig1_tcp_fairness.wfq_fluid;
    stats "wfq-real" r.Fig1_tcp_fairness.wfq_real;
    stats "sfq" r.Fig1_tcp_fairness.sfq;
    Printf.sprintf "fig-1b video_rate_bps=%s" (h r.Fig1_tcp_fairness.video_rate_bps);
  ]

let compact_table1 ~quick () =
  let r = Table1_fairness.run ~quick () in
  List.map
    (fun (row : Table1_fairness.row) ->
      Printf.sprintf "table-1.%s backlogged=%s variable=%s catch_up=%s high_weight=%s"
        row.Table1_fairness.disc
        (h row.Table1_fairness.h_backlogged)
        (h row.Table1_fairness.h_variable)
        (h row.Table1_fairness.h_catch_up)
        (h row.Table1_fairness.h_high_weight))
    r.Table1_fairness.rows
  @ [
      Printf.sprintf "table-1 h_bound_equal=%s h_bound_high=%s"
        (h r.Table1_fairness.h_bound_equal) (h r.Table1_fairness.h_bound_high);
    ]

let compact_churn () =
  let r = Churn_stress.run () in
  List.map
    (fun (row : Churn_stress.policy_run) ->
      Printf.sprintf
        "churn-stress.%s departures=%d drops=%d finished_at=%s order_hash=%s %s violations=%d"
        row.Churn_stress.policy row.Churn_stress.departures row.Churn_stress.drops
        (h row.Churn_stress.finished_at) row.Churn_stress.order_hash
        (String.concat " "
           (List.map (fun (f, n) -> Printf.sprintf "f%d=%d" f n) row.Churn_stress.per_flow))
        (List.length row.Churn_stress.violations))
    r.Churn_stress.rows

let compact_pifo ?seed () =
  let r = Pifo_port.run ?seed () in
  List.map
    (fun (row : Pifo_port.row) ->
      Printf.sprintf "pifo-port.%s departures=%d order_hash=%s identical=%b"
        row.Pifo_port.disc row.Pifo_port.departures row.Pifo_port.order_hash
        row.Pifo_port.identical)
    r.Pifo_port.rows

let compact_netsweep ?seed () =
  let cells = Net_sweep.default_cells ?root:seed () in
  let outcomes = Net_sweep.sweep cells in
  List.mapi
    (fun i (c : Net_sweep.scenario) ->
      Printf.sprintf "net-sweep.%s %s" c.Net_sweep.label
        (Net_sweep.outcome_digest outcomes.(i)))
    cells

let compact_lstf ?seed () =
  let r = Lstf_replay.run ?seed () in
  List.map
    (fun (x : Lstf_replay.row) ->
      Printf.sprintf "lstf-replay.%s %s ok=%b" x.Lstf_replay.cell
        x.Lstf_replay.verdict x.Lstf_replay.ok)
    (r.Lstf_replay.single @ r.Lstf_replay.net @ r.Lstf_replay.control
   @ r.Lstf_replay.kills)

(* The oracle acceptance cells: the mutant lines of [Run.sweep_digest]
   as they are, so a changed violation time or text shows in the diff,
   and one MD5 of [Run.sweep_digest] per [Suite.all_cells] family. *)
let compact_oracle () =
  let open Sfq_oracle in
  let digest cells = Run.sweep_digest cells (Run.sweep cells) in
  let mutants = List.map snd (Suite.mutant_cells ()) in
  let mutant_lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (digest mutants))
  in
  List.map (fun l -> "oracle." ^ l) mutant_lines
  @ List.map
      (fun (family, cells) ->
        Printf.sprintf "oracle.%s cells=%d digest=%s" family (List.length cells)
          (Digest.to_hex (Digest.string (digest cells))))
      [
        ("sfq", Suite.sfq_cells ());
        ("scfq", Suite.scfq_cells ());
        ("sfq+overrides", Suite.sfq_override_cells ());
        ("structural", Suite.structural_cells ());
        ("reweight", Suite.reweight_cells ());
        ("stress", Suite.stress_cells ());
        ("sp-pifo", Suite.sp_pifo_cells ());
        ("pifo", Suite.pifo_cells ());
      ]

let compact ~id ?seed ~quick () =
  match id with
  | "example-1" -> Some (String.concat "\n" (compact_example1 ()))
  | "fig-1b" -> Some (String.concat "\n" (compact_fig1b ?seed ()))
  | "table-1" -> Some (String.concat "\n" (compact_table1 ~quick ()))
  | "churn-stress" -> Some (String.concat "\n" (compact_churn ()))
  | "pifo-port" -> Some (String.concat "\n" (compact_pifo ?seed ()))
  | "net-sweep" -> Some (String.concat "\n" (compact_netsweep ?seed ()))
  | "lstf-replay" -> Some (String.concat "\n" (compact_lstf ?seed ()))
  | _ -> None

let golden_corpus () =
  String.concat "\n"
    ([
       "# Golden compact digests: E1 (example-1), E3/Fig-1(b) (fig-1b, default";
       "# seed), Table 1 (table-1, quick mode), E24 (churn-stress), E26";
       "# (pifo-port, one service-order hash + identity flag per rank-program";
       "# discipline), E27 (net-sweep, one delivery-order digest per topology";
       "# x discipline x seed cell), E28 (lstf-replay, one replay verdict per";
       "# recorded schedule: single-hop cells, grid cells, SFQ negative";
       "# controls and seeded-mutant kills), and the oracle acceptance cells";
       "# (oracle, one Run.sweep_digest line per seeded mutant, with each";
       "# violation's %h time and text, then one MD5 of Run.sweep_digest per";
       "# Suite.all_cells family). Per-flow packet counts, service order";
       "# hashes, drop counts and %h-exact headline numbers under the default";
       "# seeds.";
       "# Regenerate after an intentional behavioral change with:";
       "#   dune exec bin/sfq_sweep.exe -- golden > test/golden/digests.expected";
     ]
    @ compact_example1 ()
    @ compact_fig1b ()
    @ compact_table1 ~quick:true ()
    @ compact_churn ()
    @ compact_pifo ()
    @ compact_netsweep ()
    @ compact_lstf ()
    @ compact_oracle ())
  ^ "\n"
