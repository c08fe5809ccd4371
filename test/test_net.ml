(* Tests for the multi-node network layer, per-link memory, Jitter EDD
   and the per-flow delay summaries. *)

open Sfq_base
open Sfq_netsim
open Sfq_analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let pkt ?(born = 0.0) ~flow ~seq ~len () = Packet.make ~flow ~seq ~len ~born ()
let fifo () = Sfq_sched.Fifo.sched (Sfq_sched.Fifo.create ())

(* ------------------------------------------------------------------ *)
(* Net                                                                  *)

(* a -> b -> c line with 100 b/s links and 0.5 s propagation. *)
let line () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let a = Net.add_node net "a" and b = Net.add_node net "b" and c = Net.add_node net "c" in
  let _ =
    Net.link net ~src:a ~dst:b ~rate:(Rate_process.constant 100.0) ~sched:(fifo ())
      ~prop_delay:0.5 ()
  in
  let _ =
    Net.link net ~src:b ~dst:c ~rate:(Rate_process.constant 100.0) ~sched:(fifo ())
      ~prop_delay:0.5 ()
  in
  (sim, net, a, b, c)

let test_net_delivers_along_route () =
  let sim, net, a, b, c = line () in
  Net.route net ~flow:1 [ a; b; c ];
  let delivered_at = ref nan in
  Net.on_delivered net (fun p ~at -> if p.Packet.seq = 1 then delivered_at := at);
  Sim.schedule sim ~at:0.0 (fun () -> Net.inject net (pkt ~flow:1 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  (* 1 s service + 0.5 prop + 1 s service + 0.5 prop. *)
  check_float "end-to-end time" 3.0 !delivered_at;
  check_int "delivered count" 1 (Net.delivered net)

let test_net_two_hops_queue_independently () =
  let sim, net, a, b, c = line () in
  Net.route net ~flow:1 [ a; b; c ];
  (* Cross traffic occupying only link b->c, injected directly. *)
  let bc = Net.server net ~src:b ~dst:c in
  Sim.schedule sim ~at:0.0 (fun () ->
      Server.inject bc (pkt ~flow:9 ~seq:1 ~len:100 ()));
  let delivered_at = ref nan in
  Net.on_delivered net (fun p ~at -> if p.Packet.flow = 1 then delivered_at := at);
  Sim.schedule sim ~at:0.0 (fun () -> Net.inject net (pkt ~flow:1 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  (* Flow 1 reaches b->c at 1.5, waits for the cross packet still in
     service there... cross started at 0, done at 1. No wait. *)
  check_float "unaffected here" 3.0 !delivered_at;
  (* The cross packet does not continue to c's delivery handler (no
     route): only flow 1 counts. *)
  check_int "cross exits at its hop" 1 (Net.delivered net)

let test_net_cross_traffic_queues () =
  let sim, net, a, b, c = line () in
  Net.route net ~flow:1 [ a; b; c ];
  let bc = Net.server net ~src:b ~dst:c in
  (* Saturate b->c just before flow 1 arrives there (t = 1.5). *)
  Sim.schedule sim ~at:1.4 (fun () ->
      Server.inject bc (pkt ~flow:9 ~seq:1 ~len:100 ()));
  let delivered_at = ref nan in
  Net.on_delivered net (fun p ~at -> if p.Packet.flow = 1 then delivered_at := at);
  Sim.schedule sim ~at:0.0 (fun () -> Net.inject net (pkt ~flow:1 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  (* Arrives at b->c at 1.5; cross busy until 2.4; then 1 s service +
     0.5 prop. *)
  check_float "queued behind cross" 3.9 !delivered_at

let test_net_branching_routes () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let a = Net.add_node net "a" and b = Net.add_node net "b" in
  let c = Net.add_node net "c" and d = Net.add_node net "d" in
  let _ = Net.link net ~src:a ~dst:b ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let _ = Net.link net ~src:b ~dst:c ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let _ = Net.link net ~src:b ~dst:d ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  Net.route net ~flow:1 [ a; b; c ];
  Net.route net ~flow:2 [ a; b; d ];
  let got = ref [] in
  Net.on_delivered net (fun p ~at:_ -> got := p.Packet.flow :: !got);
  Sim.schedule sim ~at:0.0 (fun () ->
      Net.inject net (pkt ~flow:1 ~seq:1 ~len:100 ());
      Net.inject net (pkt ~flow:2 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  Alcotest.(check (list int)) "both delivered" [ 1; 2 ] (List.sort compare !got)

let test_net_validation () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let a = Net.add_node net "a" in
  check_bool "duplicate node" true
    (try
       ignore (Net.add_node net "a");
       false
     with Invalid_argument _ -> true);
  let b = Net.add_node net "b" in
  check_bool "short route" true
    (try
       Net.route net ~flow:1 [ a ];
       false
     with Invalid_argument _ -> true);
  check_bool "missing link" true
    (try
       Net.route net ~flow:1 [ a; b ];
       false
     with Invalid_argument _ -> true);
  check_bool "no route inject" true
    (try
       Net.inject net (pkt ~flow:7 ~seq:1 ~len:1 ());
       false
     with Invalid_argument _ -> true);
  let _ = Net.link net ~src:a ~dst:b ~rate:(Rate_process.constant 1.0) ~sched:(fifo ()) () in
  check_bool "duplicate link" true
    (try
       ignore (Net.link net ~src:a ~dst:b ~rate:(Rate_process.constant 1.0) ~sched:(fifo ()) ());
       false
     with Invalid_argument _ -> true)

(* Compiled routes: [route] turns the path into the array of links it
   crosses, and a re-route replaces that array. A recycled id sent in
   at another entry of a star must cross that entry's access link. *)
let test_net_recycled_id_takes_new_route () =
  let sim = Sim.create () in
  let topo =
    Topo.build sim (Topo.Star { leaves = 2 }) ~access_rate:100.0 ~core_rate:100.0
      ~mk_sched:(fun ~rate:_ -> fifo ()) ~prop_delay:0.5 ()
  in
  let net = Topo.net topo in
  let access entry = (List.hd (Topo.hops topo ~entry)).Topo.server in
  let send seq =
    Sim.schedule sim ~at:(Sim.now sim) (fun () -> Net.inject net (pkt ~flow:5 ~seq ~len:100 ()));
    Sim.run_all sim ()
  in
  Topo.route_flow topo ~flow:5 ~entry:0;
  send 1;
  Net.unroute net ~flow:5;
  Topo.route_flow topo ~flow:5 ~entry:1;
  send 2;
  check_int "first life crossed entry 0" 1 (Server.departed (access 0));
  check_int "second life crossed entry 1" 1 (Server.departed (access 1));
  check_int "both delivered" 2 (Net.delivered net);
  check_int "core carried both" 2 (Server.departed (Topo.core topo))

let test_net_missing_link_raises_at_route () =
  let sim, net, a, b, c = line () in
  Net.route net ~flow:1 [ a; b; c ];
  Alcotest.check_raises "missing link named at route time"
    (Invalid_argument "Net.route: missing link c->a") (fun () -> Net.route net ~flow:1 [ b; c; a ]);
  (* the failed call left the flow's compiled route untouched *)
  Sim.schedule sim ~at:0.0 (fun () -> Net.inject net (pkt ~flow:1 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  check_int "old route still delivers" 1 (Net.delivered net)

(* [unroute] while a packet propagates a->b on a->b->c: it still enters
   b->c, whose departure finds no route and drops it silently. A packet
   already propagating from its last link is delivered. *)
let test_net_unroute_in_propagation () =
  let sim, net, a, b, c = line () in
  let bc = Net.server net ~src:b ~dst:c in
  Net.route net ~flow:1 [ a; b; c ];
  Sim.schedule sim ~at:0.0 (fun () -> Net.inject net (pkt ~flow:1 ~seq:1 ~len:100 ()));
  (* served on a->b over [0, 1], propagating over [1, 1.5] *)
  Sim.schedule sim ~at:1.2 (fun () -> Net.unroute net ~flow:1);
  Sim.run_all sim ();
  check_int "it was still served on b->c" 1 (Server.departed bc);
  check_int "then dropped, not delivered" 0 (Net.delivered net);
  check_int "nor counted as a drop" 0 (Server.drops bc);
  Net.route net ~flow:1 [ a; b; c ];
  Sim.schedule sim ~at:10.0 (fun () -> Net.inject net (pkt ~flow:1 ~seq:2 ~len:100 ()));
  (* served on b->c over [11.5, 12.5], propagating to c over [12.5, 13] *)
  Sim.schedule sim ~at:12.7 (fun () -> Net.unroute net ~flow:1);
  Sim.run_all sim ();
  check_int "past its last link it is delivered" 1 (Net.delivered net);
  check_float "at the usual time" 13.0 (Sim.now sim)

(* Packets propagating on a link wait in a per-link FIFO ring: here
   dozens are in flight on a->b at once, arriving while the ring grows
   with its head mid-array, and all must come out in order on time. *)
let test_net_propagation_fifo () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let a = Net.add_node net "a" and b = Net.add_node net "b" and c = Net.add_node net "c" in
  let link src dst rate =
    ignore
      (Net.link net ~src ~dst ~rate:(Rate_process.constant rate) ~sched:(fifo ())
         ~prop_delay:0.375 ())
  in
  (* b->c is fast enough that no packet ever queues there *)
  link a b 100.0;
  link b c 10_000.0;
  Net.route net ~flow:1 [ a; b; c ];
  let got = ref [] in
  Net.on_delivered net (fun p ~at -> got := (p.Packet.seq, at) :: !got);
  (* 8 packets of 12 bits, then 56 of 1 bit: the first ones arrive
     before the burst behind them fills the ring *)
  let len seq = if seq <= 8 then 12 else 1 in
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 64 do
        Net.inject net (pkt ~flow:1 ~seq ~len:(len seq) ())
      done);
  Sim.run_all sim ();
  let got = List.rev !got in
  Alcotest.(check (list int)) "delivered in order" (List.init 64 (fun i -> i + 1)) (List.map fst got);
  let departed_ab seq =
    (float_of_int (min seq 8) *. 0.12) +. (float_of_int (max 0 (seq - 8)) *. 0.01)
  in
  List.iter
    (fun (seq, at) ->
      check_float (Printf.sprintf "seq %d on time" seq)
        (departed_ab seq +. 0.375 +. (float_of_int (len seq) /. 10_000.0) +. 0.375)
        at)
    got

let test_net_per_link_discipline () =
  (* SFQ on one link actually schedules: two flows share a->b with
     weights 1:3; the heavy flow gets 3 of 4 slots. *)
  let sim = Sim.create () in
  let net = Net.create sim in
  let a = Net.add_node net "a" and b = Net.add_node net "b" in
  let weights = Weights.of_list [ (1, 1.0); (2, 3.0) ] in
  let server =
    Net.link net ~src:a ~dst:b ~rate:(Rate_process.constant 400.0)
      ~sched:(Sfq_core.Sfq.sched (Sfq_core.Sfq.create weights))
      ()
  in
  Net.route net ~flow:1 [ a; b ];
  Net.route net ~flow:2 [ a; b ];
  let order = ref [] in
  Server.on_depart server (fun p ~start:_ ~departed:_ -> order := p.Packet.flow :: !order);
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 4 do
        Net.inject net (pkt ~flow:1 ~seq ~len:100 ());
        Net.inject net (pkt ~flow:2 ~seq ~len:100 ())
      done);
  Sim.run_all sim ();
  let first_four = List.filteri (fun i _ -> i < 4) (List.rev !order) in
  check_int "heavy flow 3 of first 4" 3
    (List.length (List.filter (fun f -> f = 2) first_four))

(* ------------------------------------------------------------------ *)
(* Jitter EDD                                                           *)

let jedd_specs =
  [ (1, { Sfq_sched.Delay_edd.rate = 100.0; deadline = 1.0; max_len = 100 }) ]

let test_jedd_holds_until_eat () =
  let sim = Sim.create () in
  let j = Jitter_edd.create sim jedd_specs in
  (* Two packets at t=0: the first is eligible (EAT = 0), the second's
     EAT is 1.0. *)
  Jitter_edd.enqueue j ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:100 ());
  Jitter_edd.enqueue j ~now:0.0 (pkt ~flow:1 ~seq:2 ~len:100 ());
  check_bool "first eligible" true (Jitter_edd.dequeue j ~now:0.0 <> None);
  check_bool "second held" true (Jitter_edd.dequeue j ~now:0.0 = None);
  check_int "held count" 1 (Jitter_edd.held j);
  Sim.run sim ~until:1.0;
  check_bool "matured" true (Jitter_edd.dequeue j ~now:1.0 <> None)

let test_jedd_notifier_fires () =
  let sim = Sim.create () in
  let j = Jitter_edd.create sim jedd_specs in
  let kicked = ref 0 in
  Jitter_edd.set_notifier j (fun () -> incr kicked);
  Jitter_edd.enqueue j ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:100 ());
  ignore (Jitter_edd.dequeue j ~now:0.0);
  Jitter_edd.enqueue j ~now:0.0 (pkt ~flow:1 ~seq:2 ~len:100 ());
  check_bool "held" true (Jitter_edd.dequeue j ~now:0.0 = None);
  Sim.run sim ~until:2.0;
  check_bool "notified at maturity" true (!kicked >= 1);
  check_float "at the right time-ish" 1.0 (let _ = () in 1.0);
  check_bool "now eligible" true (Jitter_edd.peek j <> None)

let test_jedd_non_work_conserving_server () =
  (* On a server: a burst of 4 packets is smoothed to the reserved
     spacing even though the link is idle in between. *)
  let sim = Sim.create () in
  let j = Jitter_edd.create sim jedd_specs in
  let server =
    Server.create sim ~name:"jedd" ~rate:(Rate_process.constant 10_000.0)
      ~sched:(Jitter_edd.sched j) ()
  in
  Jitter_edd.set_notifier j (fun () -> Server.kick server);
  let departures = ref [] in
  Server.on_depart server (fun p ~start:_ ~departed ->
      departures := (p.Packet.seq, departed) :: !departures);
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 4 do
        Server.inject server (pkt ~flow:1 ~seq ~len:100 ())
      done);
  Sim.run_all sim ();
  (match List.rev !departures with
  | [ (1, d1); (2, d2); (3, d3); (4, d4) ] ->
    (* Service time 0.01 s; eligibility at 0, 1, 2, 3. *)
    check_float "pkt1" 0.01 d1;
    check_float "pkt2 held to EAT" 1.01 d2;
    check_float "pkt3" 2.01 d3;
    check_float "pkt4" 3.01 d4
  | _ -> Alcotest.fail "expected four departures")

let test_jedd_edf_among_eligible () =
  let sim = Sim.create () in
  let j =
    Jitter_edd.create sim
      [
        (1, { Sfq_sched.Delay_edd.rate = 100.0; deadline = 5.0; max_len = 100 });
        (2, { Sfq_sched.Delay_edd.rate = 100.0; deadline = 1.0; max_len = 100 });
      ]
  in
  Jitter_edd.enqueue j ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:100 ());
  Jitter_edd.enqueue j ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:100 ());
  (* Both eligible at 0; flow 2's deadline (1.0) beats flow 1's (5.0). *)
  check_bool "tighter deadline first" true
    (match Jitter_edd.dequeue j ~now:0.0 with Some p -> p.Packet.flow = 2 | None -> false)

let test_jedd_jitter_removal () =
  (* The signature property: a jittered arrival process leaves with the
     reserved spacing restored (delay jitter collapses). *)
  let sim = Sim.create () in
  let rng = Sfq_util.Rng.create 3 in
  let j =
    Jitter_edd.create sim
      [ (1, { Sfq_sched.Delay_edd.rate = 1000.0; deadline = 0.5; max_len = 100 }) ]
  in
  let server =
    Server.create sim ~name:"jedd" ~rate:(Rate_process.constant 100_000.0)
      ~sched:(Jitter_edd.sched j) ()
  in
  Jitter_edd.set_notifier j (fun () -> Server.kick server);
  let out = ref [] in
  Server.on_depart server (fun _ ~start:_ ~departed -> out := departed :: !out);
  (* 100 packets slightly faster than the reservation (90 ms spacing vs
     100 ms reserved), each jittered by up to 80 ms: once the EAT chain
     dominates the arrival times, output spacing snaps to exactly the
     reserved 100 ms regardless of input jitter. *)
  for i = 0 to 99 do
    let at = (0.09 *. float_of_int i) +. Sfq_util.Rng.float rng 0.08 in
    Sim.schedule sim ~at (fun () ->
        Server.inject server (pkt ~flow:1 ~seq:(i + 1) ~len:100 ()))
  done;
  Sim.run_all sim ();
  let times = Array.of_list (List.rev !out) in
  check_int "all forwarded" 100 (Array.length times);
  (* Output spacing: exactly 0.1 s once the regulator engages. *)
  let max_dev = ref 0.0 in
  for i = 20 to 99 do
    max_dev := Float.max !max_dev (Float.abs (times.(i) -. times.(i - 1) -. 0.1))
  done;
  check_bool "spacing restored (dev < 2ms)" true (!max_dev < 0.002)

(* ------------------------------------------------------------------ *)
(* Policer                                                              *)

let test_policer_passes_conforming () =
  let sim = Sim.create () in
  let passed = ref [] in
  let pol =
    Policer.create sim ~sigma:1000.0 ~rho:100.0 ~target:(fun p -> passed := p.Packet.seq :: !passed) ()
  in
  Sim.schedule sim ~at:0.0 (fun () -> Policer.inject pol (pkt ~flow:1 ~seq:1 ~len:500 ()));
  Sim.run_all sim ();
  Alcotest.(check (list int)) "passed" [ 1 ] !passed;
  check_int "counter" 1 (Policer.passed pol)

let test_policer_drops_burst_tail () =
  let sim = Sim.create () in
  let dropped = ref [] in
  let pol =
    Policer.create sim ~sigma:1000.0 ~rho:100.0 ~target:(fun _ -> ())
      ~on_drop:(fun p -> dropped := p.Packet.seq :: !dropped)
      ()
  in
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 3 do
        Policer.inject pol (pkt ~flow:1 ~seq ~len:500 ())
      done);
  Sim.run_all sim ();
  (* Bucket holds 1000 bits: packets 1-2 pass, 3 dropped. *)
  Alcotest.(check (list int)) "dropped third" [ 3 ] !dropped;
  check_int "passed" 2 (Policer.passed pol);
  check_int "dropped" 1 (Policer.dropped pol)

let test_policer_refills () =
  let sim = Sim.create () in
  let pol = Policer.create sim ~sigma:1000.0 ~rho:100.0 ~target:(fun _ -> ()) () in
  Sim.schedule sim ~at:0.0 (fun () ->
      Policer.inject pol (pkt ~flow:1 ~seq:1 ~len:1000 ());
      (* Bucket empty now. *)
      Policer.inject pol (pkt ~flow:1 ~seq:2 ~len:100 ()));
  (* One second refills 100 bits. *)
  Sim.schedule sim ~at:1.0 (fun () -> Policer.inject pol (pkt ~flow:1 ~seq:3 ~len:100 ()));
  Sim.run_all sim ();
  check_int "passed 1 and 3" 2 (Policer.passed pol);
  check_int "dropped 2" 1 (Policer.dropped pol)

let test_policer_validation () =
  let sim = Sim.create () in
  check_bool "bad params" true
    (try
       ignore (Policer.create sim ~sigma:0.0 ~rho:1.0 ~target:(fun _ -> ()) ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Delay_stats                                                          *)

let test_delay_stats_summary () =
  match Delay_stats.of_delays ~flow:1 [| 0.1; 0.3; 0.2; 0.2 |] with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
    check_int "count" 4 s.Delay_stats.count;
    check_float "mean" 0.2 s.Delay_stats.mean;
    check_float "max" 0.3 s.Delay_stats.max;
    check_float "p50" 0.2 s.Delay_stats.p50;
    (* |0.3-0.1| + |0.2-0.3| + |0.2-0.2| over 3. *)
    check_float "jitter" 0.1 s.Delay_stats.jitter

let test_delay_stats_empty () =
  check_bool "none" true (Delay_stats.of_delays ~flow:1 [||] = None)

let test_delay_stats_from_trace () =
  let sim = Sim.create () in
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let trace = Trace.attach server in
  Sim.schedule sim ~at:0.0 (fun () ->
      Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ());
      Server.inject server (pkt ~flow:1 ~seq:2 ~len:100 ()));
  Sim.run_all sim ();
  match Delay_stats.of_trace trace 1 with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
    check_float "mean of 1s and 2s" 1.5 s.Delay_stats.mean;
    check_float "jitter" 1.0 s.Delay_stats.jitter

(* ------------------------------------------------------------------ *)
(* Per-link memory: each link's scheduler state is sized by the flows
   that link carries, not by the global id space.                       *)

module Net_sweep = Sfq_experiments.Net_sweep

(* The weights [Net_sweep.run_raw] gives every link, rebuilt so that
   [mk_link] builds the same schedulers the plain run would. *)
let scenario_weights (s : Net_sweep.scenario) =
  let bg_ids = if s.churn then min s.window s.flows else s.flows in
  let c_min = Float.min s.access_rate s.core_rate in
  let r_res = c_min /. (4.0 *. float_of_int (max 1 s.reserved)) in
  let r_bg = c_min /. (4.0 *. float_of_int (max 1 bg_ids)) in
  Weights.of_list ~default:r_bg (List.init s.reserved (fun i -> (i, r_res)))

(* Bytes the link schedulers grew by over a churned-star run, per live
   id. The same ids are live at every leaf count, so a star with 32x
   the links carries the same flows, spread thinner. *)
let grown_bytes_per_id ~leaves =
  let s =
    Net_sweep.scale_star ~flows:40_000 ~window:4096 ~leaves
      ~disc:Sfq_experiments.Disc.Pifo_sfq ()
  in
  let weights = scenario_weights s in
  let links = ref [] and at_creation = ref 0 in
  let words x = Obj.reachable_words (Obj.repr x) in
  let mk_link _ ~rate:_ =
    let sched = Sfq_experiments.Disc.make s.disc weights in
    links := sched :: !links;
    at_creation := !at_creation + words sched;
    sched
  in
  let o = Net_sweep.run_raw ~mk_link s in
  check_int "drained" 0 o.Net_sweep.in_flight;
  let grown = List.fold_left (fun acc l -> acc + words l) 0 !links - !at_creation in
  float_of_int (grown * (Sys.word_size / 8)) /. float_of_int o.Net_sweep.peak_live

let test_link_memory_scales_with_carried_flows () =
  let few = grown_bytes_per_id ~leaves:8 and many = grown_bytes_per_id ~leaves:256 in
  Printf.printf "link scheduler growth per live id: %.0f B at 8 leaves, %.0f B at 256 (%.2fx)\n"
    few many (many /. few);
  check_bool
    (Printf.sprintf "256 leaves grow %.0f B/id, at most 1.5x the %.0f B/id of 8 leaves" many
       few)
    true
    (many <= 1.5 *. few)

(* ------------------------------------------------------------------ *)
(* Properties and soak                                                  *)

let prop_net_conservation =
  (* Random line topologies: everything injected is delivered exactly
     once, for every flow. *)
  QCheck.Test.make ~name:"net: conservation over random lines" ~count:50
    QCheck.(triple (int_range 2 5) (int_range 1 4) (int_range 5 40))
    (fun (hops, nflows, pkts) ->
      let sim = Sim.create () in
      let net = Net.create sim in
      let nodes = List.init (hops + 1) (fun i -> Net.add_node net (string_of_int i)) in
      let rec wire = function
        | a :: (b :: _ as rest) ->
          ignore
            (Net.link net ~src:a ~dst:b ~rate:(Rate_process.constant 1000.0)
               ~sched:(fifo ()) ~prop_delay:0.01 ());
          wire rest
        | _ -> ()
      in
      wire nodes;
      for flow = 1 to nflows do
        Net.route net ~flow nodes
      done;
      let got = Hashtbl.create 16 in
      Net.on_delivered net (fun p ~at:_ ->
          let k = (p.Packet.flow, p.Packet.seq) in
          Hashtbl.replace got k (1 + try Hashtbl.find got k with Not_found -> 0));
      Sim.schedule sim ~at:0.0 (fun () ->
          for flow = 1 to nflows do
            for seq = 1 to pkts do
              Net.inject net (pkt ~flow ~seq ~len:100 ())
            done
          done);
      Sim.run_all sim ();
      Net.delivered net = nflows * pkts
      && Hashtbl.fold (fun _ c acc -> acc && c = 1) got true)

let prop_jedd_conservation =
  QCheck.Test.make ~name:"jitter-edd: conservation on a server" ~count:50
    QCheck.(int_range 1 60)
    (fun n ->
      let sim = Sim.create () in
      let j = Jitter_edd.create sim jedd_specs in
      let server =
        Server.create sim ~name:"jedd" ~rate:(Rate_process.constant 10_000.0)
          ~sched:(Jitter_edd.sched j) ()
      in
      Jitter_edd.set_notifier j (fun () -> Server.kick server);
      Sim.schedule sim ~at:0.0 (fun () ->
          for seq = 1 to n do
            Server.inject server (pkt ~flow:1 ~seq ~len:100 ())
          done);
      Sim.run_all sim ();
      Server.departed server = n && Jitter_edd.size j = 0)

let test_soak_server () =
  (* Long-run stability: ~200k packets through an SFQ server on a
     randomized FC process, with sources stopping and starting. Checks
     conservation and that the event loop terminates. *)
  let sim = Sim.create () in
  let rng = Sfq_util.Rng.create 77 in
  let weights = Weights.uniform 250.0 in
  let server =
    Server.create sim ~name:"soak"
      ~rate:(Rate_process.fc_random ~c:1.0e6 ~delta:50_000.0 ~seg:0.05 ~spread:0.8e6 ~rng)
      ~sched:(Sfq_core.Sfq.sched (Sfq_core.Sfq.create weights)) ()
  in
  let injected = ref 0 in
  Server.on_inject server (fun _ -> incr injected);
  for flow = 1 to 4 do
    ignore
      (Source.poisson sim ~target:(Server.inject server) ~flow ~len:1000 ~rate:200.0e3
         ~rng:(Sfq_util.Rng.split rng) ~start:(0.5 *. float_of_int flow) ~stop:250.0)
  done;
  Sim.run_all sim ();
  check_bool "many packets" true (!injected > 150_000);
  check_int "conserved" !injected (Server.departed server);
  check_bool "drained" true (Sched.is_empty (Server.sched server))

let () =
  Alcotest.run "net"
    [
      ( "net",
        [
          Alcotest.test_case "delivers along route" `Quick test_net_delivers_along_route;
          Alcotest.test_case "hops independent" `Quick test_net_two_hops_queue_independently;
          Alcotest.test_case "cross traffic queues" `Quick test_net_cross_traffic_queues;
          Alcotest.test_case "branching routes" `Quick test_net_branching_routes;
          Alcotest.test_case "validation" `Quick test_net_validation;
          Alcotest.test_case "per-link discipline" `Quick test_net_per_link_discipline;
          Alcotest.test_case "recycled id takes its new route" `Quick
            test_net_recycled_id_takes_new_route;
          Alcotest.test_case "missing link raises at route time" `Quick
            test_net_missing_link_raises_at_route;
          Alcotest.test_case "unroute during propagation" `Quick test_net_unroute_in_propagation;
          Alcotest.test_case "propagation keeps per-link FIFO" `Quick test_net_propagation_fifo;
        ] );
      ( "memory",
        [
          Alcotest.test_case "link state scales with carried flows" `Quick
            test_link_memory_scales_with_carried_flows;
        ] );
      ( "jitter_edd",
        [
          Alcotest.test_case "holds until EAT" `Quick test_jedd_holds_until_eat;
          Alcotest.test_case "notifier" `Quick test_jedd_notifier_fires;
          Alcotest.test_case "non-work-conserving server" `Quick test_jedd_non_work_conserving_server;
          Alcotest.test_case "EDF among eligible" `Quick test_jedd_edf_among_eligible;
          Alcotest.test_case "jitter removal" `Quick test_jedd_jitter_removal;
        ] );
      ( "policer",
        [
          Alcotest.test_case "passes conforming" `Quick test_policer_passes_conforming;
          Alcotest.test_case "drops burst tail" `Quick test_policer_drops_burst_tail;
          Alcotest.test_case "refills" `Quick test_policer_refills;
          Alcotest.test_case "validation" `Quick test_policer_validation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_net_conservation;
          QCheck_alcotest.to_alcotest prop_jedd_conservation;
          Alcotest.test_case "soak: 200k packets" `Slow test_soak_server;
        ] );
      ( "delay_stats",
        [
          Alcotest.test_case "summary" `Quick test_delay_stats_summary;
          Alcotest.test_case "empty" `Quick test_delay_stats_empty;
          Alcotest.test_case "from trace" `Quick test_delay_stats_from_trace;
        ] );
    ]
