(* CLI driver: run any single experiment from DESIGN.md's index.
   `sfq-demo list` shows the experiment ids; `sfq-demo run <id>` runs
   one; `sfq-demo all` runs everything, reproducing every table and
   figure of the paper (`--quick` for smaller workloads). *)

open Sfq_experiments

let experiments : (string * string * (quick:bool -> unit)) list =
  [
    ( "example-1",
      "Example 1: WFQ >= 2x from the fairness lower bound",
      fun ~quick:_ -> Ex1_wfq_unfair.(print (run ())) );
    ( "example-2",
      "Example 2: WFQ unfair on a variable-rate server",
      fun ~quick:_ -> Ex2_variable_rate.(print (run ())) );
    ( "fig-1b",
      "Fig 1(b): TCP fairness under VBR-induced variable rate",
      fun ~quick:_ -> Fig1_tcp_fairness.(print (run ())) );
    ( "table-1",
      "Table 1: empirical fairness of all disciplines",
      fun ~quick -> Table1_fairness.(print (run ~quick ())) );
    ( "fig-2a",
      "Fig 2(a): max-delay reduction of SFQ vs WFQ",
      fun ~quick -> Fig2a_delay_reduction.(print (run ~quick ())) );
    ( "fig-2b",
      "Fig 2(b): average delay of low-throughput flows",
      fun ~quick ->
        Fig2b_avg_delay.(print (run ~duration:(if quick then 50.0 else 200.0) ())) );
    ( "scfq-gap",
      "SCFQ vs SFQ maximum delay gap (Sec 2.3)",
      fun ~quick:_ -> Scfq_delay_gap.(print (run ())) );
    ( "fig-3b",
      "Fig 3(b): weighted link sharing over a fluctuating interface",
      fun ~quick ->
        Fig3_link_sharing.(print (run ~pkts_per_conn:(if quick then 1500 else 4000) ())) );
    ( "hier-sharing",
      "Example 3: hierarchical link sharing",
      fun ~quick:_ -> Hier_sharing.(print (run ())) );
    ( "delay-shift",
      "Sec 3: delay shifting via hierarchical scheduling",
      fun ~quick:_ -> Delay_shifting.(print (run ())) );
    ( "bounds",
      "Theorems 2/3/4/5 bound validation on FC and EBF servers",
      fun ~quick:_ -> Bound_validation.(print (run ())) );
    ( "e2e",
      "Corollary 1: end-to-end delay through K SFQ servers",
      fun ~quick:_ -> End_to_end.(print (run ())) );
    ( "fair-airport",
      "Appendix B: Fair Airport delay + fairness",
      fun ~quick:_ -> Fair_airport_exp.(print (run ())) );
    ( "residual",
      "Sec 2.3: shaped priority traffic => FC residual server",
      fun ~quick:_ -> Priority_residual.(print (run ())) );
    ( "tie-break",
      "Sec 2.3: tie-breaking rule ablation",
      fun ~quick:_ -> Tie_break_ablation.(print (run ())) );
    ( "gsfq",
      "Sec 2.3: generalized SFQ with per-packet rates (eq. 36)",
      fun ~quick:_ -> Gsfq_video.(print (run ())) );
    ( "fig-1-topology",
      "Fig 1(a) on the full host/switch topology (E20)",
      fun ~quick:_ -> Fig1_topology.(print (run ())) );
    ( "busy-rule",
      "Ablation: busy-period rule (idle-poll vs on-empty shortcut)",
      fun ~quick:_ -> Busy_rule_ablation.(print (run ())) );
    ( "e2e-ebf",
      "Theorem 5 / Corollary 1: stochastic end-to-end tail over EBF servers",
      fun ~quick:_ -> E2e_ebf.(print (run ())) );
  ]

let list_cmd () =
  List.iter (fun (id, doc, _) -> Printf.printf "%-14s %s\n" id doc) experiments

let run_one ~quick id =
  match List.find_opt (fun (i, _, _) -> i = id) experiments with
  | Some (_, _, f) ->
    f ~quick;
    0
  | None ->
    Printf.eprintf "unknown experiment %S; try `sfq_demo list`\n" id;
    1

let run_all ~quick = List.iter (fun (_, _, f) -> f ~quick) experiments

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller workloads (for smoke tests).")

let list_t = Term.(const list_cmd $ const ())
let list_cmd_t = Cmd.v (Cmd.info "list" ~doc:"List experiment ids") list_t

let run_t =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  Term.(const (fun quick id -> Stdlib.exit (run_one ~quick id)) $ quick $ id)

let run_cmd_t = Cmd.v (Cmd.info "run" ~doc:"Run one experiment") run_t

let all_t = Term.(const (fun quick -> run_all ~quick) $ quick)
let all_cmd_t = Cmd.v (Cmd.info "all" ~doc:"Run every experiment") all_t

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "sfq-demo" ~doc:"SFQ paper experiment driver" in
  exit (Cmd.eval (Cmd.group ~default info [ list_cmd_t; run_cmd_t; all_cmd_t ]))
