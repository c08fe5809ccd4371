(* Network-scale properties (E27, DESIGN.md §13).

   Two layers over Net_sweep.run_scenario:

   - a qcheck property: for ANY topology shape, discipline, buffer
     budget, drop policy, churn window and load — including overload
     and routes torn down mid-flight — packet conservation holds at
     every quiesce checkpoint the engine probes and exactly at the
     final drain: injected = delivered + dropped + closed, nothing
     left in flight, and every per-hop structural monitor silent;

   - directed Thm 8/9 checks on the paper's Fig. 1(a) three-host star
     and a 3-hop tandem line: the composed end-to-end bound
     EAT + Σ βⁿ + Σ τⁿ (Corollary 1 shape, per-hop β from Thm 4 with
     δ=0) holds for every delivery of every reserved CBR flow, for
     float SFQ and the PIFO rank program — and a mutant oracle that
     forgets any single hop's β is killed.
     On the single-flow line the bound is exactly tight (slack 0), so
     dropping a hop leaves the mutant short by that hop's full l/C:
     the kill is guaranteed, not probabilistic. *)

open Sfq_netsim
open Sfq_experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Directed Thm 8/9: composed bound holds on star3 and line3           *)

let fig1a_star = Topo.Star { leaves = 3 }
let tandem = Topo.Line { hops = 3 }

let oracle_discs = [ Disc.Sfq; Disc.Pifo_sfq ]

let test_composed_bound_holds () =
  List.iter
    (fun spec ->
      List.iter
        (fun disc ->
          let s = Net_sweep.directed ~disc ~spec () in
          let o = Net_sweep.run_scenario s in
          List.iter
            (fun (v : Sfq_oracle.Monitor.violation) ->
              Alcotest.failf "%s: %s at %g: %s" s.Net_sweep.label
                v.Sfq_oracle.Monitor.monitor v.Sfq_oracle.Monitor.at
                v.Sfq_oracle.Monitor.what)
            o.Net_sweep.violations;
          check_bool
            (s.Net_sweep.label ^ ": oracle actually checked deliveries")
            true
            (o.Net_sweep.e2e_checked > 0);
          check_int (s.Net_sweep.label ^ ": no losses on an idle network") 0
            o.Net_sweep.e2e_lost;
          check_bool (s.Net_sweep.label ^ ": bound not violated (slack >= 0)") true
            (o.Net_sweep.min_slack >= 0.0);
          check_int (s.Net_sweep.label ^ ": drained") 0 o.Net_sweep.in_flight)
        oracle_discs)
    [ fig1a_star; tandem ]

(* The tightness witness behind the mutant guarantee: one reserved CBR
   flow alone on the line has sum_other = 0 at every hop, so the
   composed bound collapses to EAT + Σ l/C + Σ τ — the exact fluid
   departure time. Measured slack must be (numerically) zero. *)
let test_line_bound_exactly_tight () =
  let s = Net_sweep.directed ~disc:Disc.Sfq ~spec:tandem () in
  let o = Net_sweep.run_scenario s in
  check_bool "line3 slack is exactly zero" true
    (Float.abs o.Net_sweep.min_slack <= 1e-9)

(* Mutant kill: an oracle that forgets hop i's β term claims a bound
   short by at least l/C for that hop; on the exactly-tight line every
   delivery violates it. The hop index is seeded, and all residues are
   exercised so no single hop's service time can hide in another's. *)
let test_mutant_oracle_killed () =
  let nhops = 3 in
  let root = 0x5eed in
  for i = 0 to nhops - 1 do
    let skip = Sfq_par.Seed.derive ~root ~index:i mod nhops in
    List.iter
      (fun disc ->
        let s = Net_sweep.directed ~disc ~skip_hop:skip ~spec:tandem () in
        let o = Net_sweep.run_scenario s in
        let e2e =
          List.filter
            (fun (v : Sfq_oracle.Monitor.violation) ->
              v.Sfq_oracle.Monitor.monitor = "e2e-delay")
            o.Net_sweep.violations
        in
        check_bool
          (Printf.sprintf "%s skip=%d: mutant reported a violation" s.Net_sweep.label
             skip)
          true (e2e <> []))
      oracle_discs
  done;
  (* and on the contended star: three simultaneous CBR flows make the
     hub serve the last one a full backlog late, past any skip-mutant
     bound *)
  let s = Net_sweep.directed ~disc:Disc.Sfq ~skip_hop:1 ~spec:fig1a_star () in
  let o = Net_sweep.run_scenario s in
  check_bool "star3 skip=1: mutant reported a violation" true
    (List.exists
       (fun (v : Sfq_oracle.Monitor.violation) ->
         v.Sfq_oracle.Monitor.monitor = "e2e-delay")
       o.Net_sweep.violations)

(* ------------------------------------------------------------------ *)
(* QCheck: conservation over random topologies x disciplines x buffers *)

let q test =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x2e7 |])
    ~speed_level:`Quick test

type net_case = {
  c_spec : Topo.spec;
  c_disc : Disc.spec;
  c_buffer : Sfq_base.Buffered.config option;
  c_churn : bool;
  c_flows : int;
  c_window : int;
  c_pkts : int;
  c_load : float;
  c_seed : int;
}

let spec_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Topo.Star { leaves = n }) (int_range 1 6);
        map (fun n -> Topo.Line { hops = n }) (int_range 1 4);
        map
          (fun (a, d) -> Topo.Tree { arity = a; depth = d })
          (pair (int_range 2 3) (int_range 1 2));
        map
          (fun (l, r) -> Topo.Dumbbell { left = l; right = r })
          (pair (int_range 1 3) (int_range 1 3));
      ])

(* Every scheduler family the netsim grid runs, including both bound
   kinds and the no-oracle disciplines. *)
let disc_gen =
  QCheck.Gen.oneofl
    [
      Disc.Sfq;
      Disc.Scfq;
      Disc.Pifo_sfq;
      Disc.Pifo_scfq;
      Disc.Drr { quantum = 8192.0 };
      Disc.Fifo;
    ]

let buffer_gen =
  QCheck.Gen.(
    let policy =
      oneofl Sfq_base.Buffered.[ Drop_tail; Drop_front; Longest_queue ]
    in
    opt
      (map
         (fun (pf, (ag, policy)) ->
           Sfq_base.Buffered.config ~per_flow:pf ~aggregate:ag ~policy ())
         (pair (int_range 1 6) (pair (int_range 4 48) policy))))

let case_gen =
  QCheck.Gen.(
    map
      (fun (spec, disc, buffer, (churn, flows, window), (pkts, load, seed)) ->
        {
          c_spec = spec;
          c_disc = disc;
          c_buffer = buffer;
          c_churn = churn;
          c_flows = flows;
          c_window = window;
          c_pkts = pkts;
          c_load = load;
          c_seed = seed;
        })
      (tup5 spec_gen disc_gen buffer_gen
         (tup3 bool (int_range 4 60) (int_range 2 12))
         (tup3 (int_range 1 4)
            (map (fun l -> float_of_int l /. 8.0) (int_range 2 12))
            (int_range 0 0xFFFF))))

let print_case c =
  Printf.sprintf "%s/%s buffer=%s churn=%b flows=%d window=%d pkts=%d load=%g seed=%d"
    (Topo.spec_name c.c_spec) (Disc.name c.c_disc)
    (match c.c_buffer with None -> "none" | Some _ -> "finite")
    c.c_churn c.c_flows c.c_window c.c_pkts c.c_load c.c_seed

(* The engine probes injected = delivered + dropped + closed + in-flight
   at four mid-run quiesce checkpoints and after the final drain (any
   breach lands in [violations] as "net-conservation"); per-hop monitors
   check per-server conservation and flow-FIFO; the outcome repeats the
   final identity. All of it must hold for every random cell. *)
let prop_conservation =
  QCheck.Test.make ~count:60
    ~name:"net conservation: injected = delivered + dropped + closed at every quiesce"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      let s =
        Net_sweep.scenario
          ~label:(Printf.sprintf "prop/%s" (print_case c))
          ~spec:c.c_spec ~disc:c.c_disc ?buffer:c.c_buffer ~churn:c.c_churn
          ~flows:c.c_flows ~window:c.c_window ~pkts_per_flow:c.c_pkts
          ~load:c.c_load ~seed:c.c_seed ()
      in
      let o = Net_sweep.run_scenario s in
      List.iter
        (fun (v : Sfq_oracle.Monitor.violation) ->
          QCheck.Test.fail_reportf "%s: %s at %g: %s" s.Net_sweep.label
            v.Sfq_oracle.Monitor.monitor v.Sfq_oracle.Monitor.at
            v.Sfq_oracle.Monitor.what)
        o.Net_sweep.violations;
      o.Net_sweep.in_flight = 0
      && o.Net_sweep.injected
         = o.Net_sweep.delivered + o.Net_sweep.dropped + o.Net_sweep.closed)

(* Drops must actually occur across the generated space — a conservation
   law that never sees a drop is vacuous on the dropped term. *)
let test_buffered_cells_do_drop () =
  let s =
    Net_sweep.scenario ~label:"prop/drop-witness"
      ~spec:(Topo.Star { leaves = 2 })
      ~disc:Disc.Sfq
      ~buffer:
        (Sfq_base.Buffered.config ~per_flow:2 ~aggregate:4
           ~policy:Sfq_base.Buffered.Drop_tail ())
      ~flows:24 ~window:8 ~pkts_per_flow:4 ~load:1.5 ~seed:7 ()
  in
  let o = Net_sweep.run_scenario s in
  check_int "drop-witness: no violations" 0 (List.length o.Net_sweep.violations);
  check_bool "drop-witness: finite buffers dropped packets" true
    (o.Net_sweep.dropped > 0);
  check_int "drop-witness: conservation with drops" o.Net_sweep.injected
    (o.Net_sweep.delivered + o.Net_sweep.dropped + o.Net_sweep.closed)

let () =
  Alcotest.run "net_prop"
    [
      ( "thm8-9",
        [
          Alcotest.test_case "composed bound holds (star3, line3)" `Quick
            test_composed_bound_holds;
          Alcotest.test_case "line bound exactly tight" `Quick
            test_line_bound_exactly_tight;
          Alcotest.test_case "hop-forgetting mutant killed" `Quick
            test_mutant_oracle_killed;
        ] );
      ( "conservation",
        [
          q prop_conservation;
          Alcotest.test_case "finite buffers exercise drops" `Quick
            test_buffered_cells_do_drop;
        ] );
    ]
