(* Tests for the multi-node network layer, per-link memory and the
   per-flow delay summaries. *)

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

let test_net_shared_compiled_route () =
  let sim, net, a, b, c = line () in
  let r = Net.compile net [ a; b; c ] in
  Net.set_route net ~flow:1 r;
  Net.set_route net ~flow:2 r;
  Sim.schedule sim ~at:0.0 (fun () ->
      Net.inject net (pkt ~flow:1 ~seq:1 ~len:100 ());
      Net.inject net (pkt ~flow:2 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  check_int "both flows delivered" 2 (Net.delivered net);
  let _, other, _, _, _ = line () in
  Alcotest.check_raises "foreign route"
    (Invalid_argument "Net.set_route: route compiled for another network") (fun () ->
      Net.set_route other ~flow:1 r)

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

(* A small cell shaped like the tree-buffered benchmark workload: 4x3
   tree, drop-front buffers, 8 packets per flow. *)
let tree_cell ?(flows = 256) () =
  Net_sweep.scenario ~label:"tree-buffered-small"
    ~spec:(Topo.Tree { arity = 4; depth = 3 })
    ~disc:Sfq_experiments.Disc.Pifo_sfq ~flows ~pkts_per_flow:8 ~load:1.1
    ~access_rate:262_144.0
    ~buffer:(Buffered.config ~per_flow:8 ~aggregate:1024 ~policy:Buffered.Drop_front ())
    ~reserved:4 ~seed:7 ()

(* Pins on link-scheduler growth, just above today's counts (7.04 and
   178.35 B per live id, 2832 B per added link, 21.98 B per added
   flow). The counts are exact: the runs are deterministic and
   [Obj.reachable_words] counts words, not pages. *)
let pin_8 = 7.5
let pin_256 = 185.0
let pin_link = 2900.0
let pin_tree = 23.0

(* Bytes the link schedulers grew by over a run of [s], the number of
   links, and the run's outcome. *)
let link_growth (s : Net_sweep.scenario) =
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
  (grown * (Sys.word_size / 8), List.length !links, o)

(* A churned 40k-flow star: the same ids are live at every leaf count,
   so a star with 32x the links carries the same flows, spread
   thinner. Returns the growth, the links and the peak of live ids. *)
let churned_star_growth ~leaves =
  let grown, links, o =
    link_growth
      (Net_sweep.scale_star ~flows:40_000 ~window:4096 ~leaves
         ~disc:Sfq_experiments.Disc.Pifo_sfq ())
  in
  (grown, links, o.Net_sweep.peak_live)

(* Link state grows with the flows that can still move a rank, not with
   the id space nor with the flows ever carried. Link schedulers sized
   by flow id grew 1314 B per live id at 8 leaves and 9821 at 256; with
   slots freed only on close, 233 and 335. A stale flow's slot now comes
   back before the flow closes, so the per-id pins sit just above
   today's 7 and 178 B. What remains at 256 leaves is per-link fixed
   cost, bounded per added link. *)
let test_link_memory_scales_with_carried_flows () =
  let g8, links8, live8 = churned_star_growth ~leaves:8
  and g256, links256, live256 = churned_star_growth ~leaves:256 in
  let per_id g live = float_of_int g /. float_of_int live in
  let few = per_id g8 live8 and many = per_id g256 live256 in
  let per_link = float_of_int (g256 - g8) /. float_of_int (links256 - links8) in
  Printf.printf
    "link scheduler growth per live id: %.2f B at 8 leaves, %.2f B at 256; %.1f B per added \
     link\n"
    few many per_link;
  check_bool (Printf.sprintf "8 leaves grow %.2f B/id <= %g" few pin_8) true (few <= pin_8);
  check_bool (Printf.sprintf "256 leaves grow %.2f B/id <= %g" many pin_256) true
    (many <= pin_256);
  check_bool
    (Printf.sprintf "each added link grows %.1f B <= %g" per_link pin_link)
    true (per_link <= pin_link)

(* An unchurned tree shaped like the tree-buffered budget cell: its
   flows never close. While slots came back only on close, every link
   kept one for every flow it ever carried, 387 B per added flow. *)
let test_unchurned_tree_memory () =
  let grown flows =
    let g, _, _ = link_growth (tree_cell ~flows ()) in
    g
  in
  let small = grown 1024 and large = grown 4096 in
  let per_flow = float_of_int (large - small) /. float_of_int (4096 - 1024) in
  Printf.printf "unchurned tree link growth: %d B at 1024 flows, %d B at 4096: %.2f B per added flow\n"
    small large per_flow;
  check_bool
    (Printf.sprintf "%.2f B per added flow <= %g" per_flow pin_tree)
    true (per_flow <= pin_tree)

(* ------------------------------------------------------------------ *)
(* Exact-count budgets: what one delivered packet costs the host path
   on small cells shaped like the star-churn and tree-buffered
   benchmark workloads. Word, call and event counts are deterministic,
   so a budget just above today's count fails on one extra allocation
   per packet, or one extra simulator event per hop. Minor words are
   read with [Gc.minor_words], which counts the words allocated since
   the last minor collection too; the [Gc.minor] fences make the
   promoted count cover exactly the run. *)

type budget = {
  minor : float;
  promoted : float;
  calls : float;
  events : float;
  high_water : int;
}

let star_cell () = Net_sweep.scale_star ~flows:20_000 ~window:256 ~seed:7 ()

(* Every call into a link scheduler, counted. *)
let counting calls (s : Sched.t) =
  {
    s with
    Sched.enqueue =
      (fun ~now p ->
        incr calls;
        s.Sched.enqueue ~now p);
    dequeue =
      (fun ~now ->
        incr calls;
        s.Sched.dequeue ~now);
    peek =
      (fun () ->
        incr calls;
        s.Sched.peek ());
    size =
      (fun () ->
        incr calls;
        s.Sched.size ());
    backlog =
      (fun f ->
        incr calls;
        s.Sched.backlog f);
    evict =
      (fun ~now v f ->
        incr calls;
        s.Sched.evict ~now v f);
    close_flow =
      (fun ~now f ->
        incr calls;
        s.Sched.close_flow ~now f);
  }

let check_budget name (s : Net_sweep.scenario) (b : budget) () =
  Gc.minor ();
  let m0 = Gc.minor_words () and _, p0, _ = Gc.counters () in
  let o = Net_sweep.run_scenario s in
  Gc.minor ();
  let m1 = Gc.minor_words () and _, p1, _ = Gc.counters () in
  let calls = ref 0 in
  let weights = scenario_weights s in
  let mk_link _ ~rate:_ = counting calls (Sfq_experiments.Disc.make s.disc weights) in
  let counted = Net_sweep.run_raw ~mk_link s in
  check_bool "the counted run is the same run" true
    (Net_sweep.outcome_digest counted = Net_sweep.outcome_digest o);
  let pkts = float_of_int o.Net_sweep.delivered in
  let minor = (m1 -. m0) /. pkts
  and promoted = (p1 -. p0) /. pkts
  and calls = float_of_int !calls /. pkts
  and events = float_of_int o.Net_sweep.events /. pkts in
  Printf.printf "%s: %d delivered, %.4f minor words, %.4f promoted words, %.4f sched calls, \
                 %.4f sim events per packet, high water %d\n"
    name o.Net_sweep.delivered minor promoted calls events o.Net_sweep.high_water;
  let within what got limit =
    check_bool (Printf.sprintf "%s: %s %.4f <= %g per packet" name what got limit) true
      (got <= limit)
  in
  within "minor words" minor b.minor;
  within "promoted words" promoted b.promoted;
  within "scheduler calls" calls b.calls;
  within "sim events" events b.events;
  check_bool
    (Printf.sprintf "%s: registry high water %d <= %d" name o.Net_sweep.high_water
       b.high_water)
    true
    (o.Net_sweep.high_water <= b.high_water)

let test_star_budget =
  check_budget "star-churn cell" (star_cell ())
    { minor = 32.0; promoted = 1.2; calls = 5.41; events = 4.63; high_water = 260 }

let test_tree_budget =
  check_budget "tree-buffered cell" (tree_cell ())
    { minor = 102.5; promoted = 48.0; calls = 26.0; events = 8.18; high_water = 260 }

(* ------------------------------------------------------------------ *)
(* The composed end-to-end oracle, driven by hand.                     *)

module E2e = Sfq_oracle.E2e_oracle

(* 1024-bit packets at a 1024 b/s reservation: one second apart in
   EAT. *)
let oracle ?(betas = [ 0.5; 0.25 ]) ?(taus = [ 0.125; 0.0625 ]) () =
  E2e.create ~name:"e2e" ~rate:(fun _ -> 1024.0) ~betas:(fun _ -> betas)
    ~taus:(fun _ -> taus) ()

let inject o ?rate ~seq at = E2e.inject o (Packet.make ?rate ~flow:3 ~seq ~len:1024 ~born:at ()) ~at
let deliver o ~seq at = E2e.deliver o (pkt ~flow:3 ~seq ~len:1024 ()) ~at

let violation o =
  match E2e.result o with Some v -> v.Sfq_oracle.Monitor.what | None -> "none"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_oracle_fifo_losses () =
  let o = oracle () in
  for seq = 1 to 20 do
    inject o ~seq (float_of_int seq)
  done;
  (* 4 and 9 are skipped by later deliveries; 20 never arrives. *)
  for seq = 1 to 19 do
    if seq <> 4 && seq <> 9 then deliver o ~seq (float_of_int seq +. 0.5)
  done;
  E2e.finalize o ~until:100.0;
  check_int "checked" 17 (E2e.checked o);
  check_int "lost" 3 (E2e.lost o);
  Alcotest.(check string) "no violation" "none" (violation o)

let test_oracle_ring_wraps () =
  let o = oracle () in
  let next = ref 1 and delivered = ref 1 in
  let inject_n n =
    for _ = 1 to n do
      inject o ~seq:!next (float_of_int !next);
      incr next
    done
  and deliver_n n =
    for _ = 1 to n do
      deliver o ~seq:!delivered (float_of_int !delivered);
      incr delivered
    done
  in
  (* Move the ring's head, then queue a backlog of 34 across the wrap. *)
  inject_n 10;
  deliver_n 6;
  inject_n 30;
  deliver_n 20;
  inject_n 5;
  deliver_n 19;
  E2e.finalize o ~until:100.0;
  check_int "checked" 45 (E2e.checked o);
  check_int "lost" 0 (E2e.lost o);
  Alcotest.(check string) "no violation" "none" (violation o)

let test_oracle_never_injected () =
  let o = oracle () in
  deliver o ~seq:1 1.0;
  check_int "checked" 0 (E2e.checked o);
  check_bool "reported" true (contains (violation o) "never injected")

let test_oracle_out_of_order () =
  let o = oracle () in
  List.iter (fun seq -> inject o ~seq 0.0) [ 1; 2; 3 ];
  deliver o ~seq:2 1.5;
  deliver o ~seq:1 1.75;
  check_int "checked" 1 (E2e.checked o);
  check_int "lost" 1 (E2e.lost o);
  check_bool "reported" true (contains (violation o) "out of order (next pending 3)")

let test_oracle_min_slack () =
  let o = oracle () in
  (* EATs: 0, max(0.5, 0 + 1) = 1, max(3, 1 + 1) = 3, max(4, 3 + 1) = 4;
     each bound is EAT + (0.5 + 0.25) + (0.125 + 0.0625). *)
  inject o ~seq:1 0.0;
  inject o ~seq:2 0.5;
  inject o ~seq:3 3.0;
  deliver o ~seq:1 0.5;
  deliver o ~seq:2 1.75;
  deliver o ~seq:3 3.5;
  let bound eat =
    Sfq_core.Bounds.e2e_departure ~eat_first:eat ~betas:[ 0.5; 0.25 ] ~taus:[ 0.125; 0.0625 ]
  in
  check_bool "min slack is seq 2's, bit for bit" true (E2e.min_slack o = bound 1.0 -. 1.75);
  check_float "hand-computed" 0.1875 (E2e.min_slack o);
  Alcotest.(check string) "no violation" "none" (violation o);
  inject o ~seq:4 4.0;
  deliver o ~seq:4 5.0;
  check_float "late by 1/16 s" (-0.0625) (E2e.min_slack o);
  check_bool "reported" true (contains (violation o) "composed bound")

let test_oracle_packet_rate () =
  let o = oracle ~betas:[] ~taus:[] () in
  (* At 2048 b/s the second packet's EAT is 0.5, not the flow rate's 1. *)
  inject o ~rate:2048.0 ~seq:1 0.0;
  inject o ~rate:2048.0 ~seq:2 0.0;
  deliver o ~seq:1 0.0;
  deliver o ~seq:2 0.75;
  check_float "bound from the packet's rate" (-0.25) (E2e.min_slack o);
  check_bool "reported" true (contains (violation o) "composed bound")

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
          Alcotest.test_case "flows share a compiled route" `Quick
            test_net_shared_compiled_route;
        ] );
      ( "memory",
        [
          Alcotest.test_case "link state scales with carried flows" `Quick
            test_link_memory_scales_with_carried_flows;
          Alcotest.test_case "unchurned tree: link state per added flow" `Quick
            test_unchurned_tree_memory;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "star-churn cell per packet" `Quick test_star_budget;
          Alcotest.test_case "tree-buffered cell per packet" `Quick test_tree_budget;
        ] );
      ( "e2e_oracle",
        [
          Alcotest.test_case "FIFO delivery with three losses" `Quick test_oracle_fifo_losses;
          Alcotest.test_case "backlog wraps the ring" `Quick test_oracle_ring_wraps;
          Alcotest.test_case "never-injected delivery" `Quick test_oracle_never_injected;
          Alcotest.test_case "out-of-order delivery" `Quick test_oracle_out_of_order;
          Alcotest.test_case "min slack is the bound's" `Quick test_oracle_min_slack;
          Alcotest.test_case "Packet.rate overrides ~rate" `Quick test_oracle_packet_rate;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_net_conservation;
          Alcotest.test_case "soak: 200k packets" `Slow test_soak_server;
        ] );
      ( "delay_stats",
        [
          Alcotest.test_case "summary" `Quick test_delay_stats_summary;
          Alcotest.test_case "empty" `Quick test_delay_stats_empty;
          Alcotest.test_case "from trace" `Quick test_delay_stats_from_trace;
        ] );
    ]
