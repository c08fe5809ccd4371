(* Tests for the network simulator substrate: event queue, rate
   processes (FC/EBF by construction), servers, traffic sources, the
   MPEG model, TCP Reno and tandem wiring. *)

open Sfq_base
open Sfq_netsim
open Sfq_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let pkt ?(born = 0.0) ~flow ~seq ~len () = Packet.make ~flow ~seq ~len ~born ()

let fifo () = Sfq_sched.Fifo.sched (Sfq_sched.Fifo.create ())

(* ------------------------------------------------------------------ *)
(* Sim                                                                  *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:2.0 (fun () -> log := 2 :: !log);
  Sim.schedule sim ~at:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~at:3.0 (fun () -> log := 3 :: !log);
  Sim.run_all sim ();
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 3.0 (Sim.now sim)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~at:1.0 (fun () -> log := i :: !log)
  done;
  Sim.run_all sim ();
  Alcotest.(check (list int)) "schedule order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_past_rejected () =
  let sim = Sim.create () in
  Sim.schedule sim ~at:1.0 (fun () -> ());
  Sim.run_all sim ();
  check_bool "raises" true
    (try
       Sim.schedule sim ~at:0.5 (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  List.iter (fun at -> Sim.schedule sim ~at (fun () -> incr fired)) [ 1.0; 2.0; 3.0 ];
  Sim.run sim ~until:2.0;
  check_int "two fired" 2 !fired;
  check_float "clock" 2.0 (Sim.now sim);
  check_int "one pending" 1 (Sim.pending sim);
  Sim.run sim ~until:10.0;
  check_int "all fired" 3 !fired;
  check_float "clock advanced to until" 10.0 (Sim.now sim)

let test_sim_cascade () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then Sim.schedule_after sim ~delay:0.1 tick
  in
  Sim.schedule sim ~at:0.0 tick;
  Sim.run_all sim ();
  check_int "cascaded" 10 !count;
  check_int "events_fired" 10 (Sim.events_fired sim)

let test_sim_same_instant_reschedule () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:1.0 (fun () ->
      log := "a" :: !log;
      Sim.schedule sim ~at:1.0 (fun () -> log := "b" :: !log));
  Sim.run_all sim ();
  Alcotest.(check (list string)) "same instant ok" [ "a"; "b" ] (List.rev !log)

(* Pops through the non-allocating root accessors and an unboxed
   clock: with every event pre-scheduled, [run_all] allocates nothing
   per pop (the shared callback allocates nothing either). *)
let test_sim_run_all_zero_alloc () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let tick () = incr fired in
  let n = 100_000 in
  for i = 1 to n do
    Sim.schedule sim ~at:(float_of_int (i / 3)) tick
  done;
  let before = Gc.minor_words () in
  Sim.run_all sim ();
  let words = Gc.minor_words () -. before in
  check_int "all fired" n !fired;
  check_float "clock at the last event" (float_of_int (n / 3)) (Sim.now sim);
  check_float "minor words over 100k pops" 0.0 words

(* The callback's only reference is the queue's; [@inline never] keeps
   this frame from holding it. *)
let[@inline never] schedule_tracked sim w ~at fired =
  let payload = ref 0 in
  Weak.set w 0 (Some payload);
  Sim.schedule sim ~at (fun () ->
      incr payload;
      incr fired)

(* A fired callback is garbage: the queue clears its slot, so the
   simulator, still alive with an event pending, does not keep the
   callback or what it captured reachable. *)
let test_sim_releases_fired_callbacks () =
  let sim = Sim.create () and w = Weak.create 1 and fired = ref 0 in
  schedule_tracked sim w ~at:1.0 fired;
  Sim.schedule sim ~at:2.0 (fun () -> incr fired);
  Sim.run sim ~until:1.5;
  check_int "first fired" 1 !fired;
  Gc.full_major ();
  check_bool "fired callback collected" false (Weak.check w 0);
  check_int "second still pending" 1 (Sim.pending sim)

(* A registered timer armed from its own callback with a constant
   delay: arming computes the firing time into the queue's unboxed key
   array, so a cycle allocates nothing. *)
let test_sim_timer_zero_alloc () =
  let sim = Sim.create () and fired = ref 0 and tm = ref Sim.no_timer in
  let n = 100_000 in
  let tick () =
    incr fired;
    if !fired <= n then Sim.arm_after sim !tm ~delay:0.5
  in
  tm := Sim.timer sim tick;
  Sim.arm sim !tm ~at:0.0;
  Sim.run sim ~until:0.0;
  let before = Gc.minor_words () in
  Sim.run_all sim ();
  let words = Gc.minor_words () -. before in
  check_int "all fired" (n + 1) !fired;
  check_float "clock at the last cycle" (0.5 *. float_of_int n) (Sim.now sim);
  check_float "minor words over 100k arm-and-fire cycles" 0.0 words

let test_sim_timer_pending_twice () =
  let sim = Sim.create () and log = ref [] in
  let tm = Sim.timer sim (fun () -> log := Sim.now sim :: !log) in
  Sim.arm sim tm ~at:2.0;
  Sim.arm sim tm ~at:1.0;
  Sim.arm_after sim tm ~delay:2.0;
  check_int "three pending" 3 (Sim.pending sim);
  Sim.run_all sim ();
  Alcotest.(check (list (float 0.0))) "once per arm, in time order" [ 1.0; 2.0; 2.0 ]
    (List.rev !log)

let test_sim_timer_misuse () =
  let sim = Sim.create () and other = Sim.create () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  let tm = Sim.timer other ignore in
  check_bool "another simulation's timer" true (raises (fun () -> Sim.arm sim tm ~at:1.0));
  check_bool "no_timer" true (raises (fun () -> Sim.arm_after sim Sim.no_timer ~delay:1.0));
  Sim.run other ~until:1.0;
  check_bool "in the past" true (raises (fun () -> Sim.arm other tm ~at:0.5));
  check_bool "negative delay" true (raises (fun () -> Sim.arm_after other tm ~delay:(-1.0)));
  check_int "nothing queued" 0 (Sim.pending sim + Sim.pending other)

(* Model test: random mixes of one-shot and timer events, where every
   firing runs the next group of a random script (re-arming timers that
   may still be pending, and scheduling at the current instant), fire
   in exactly the order of a list sorted by (time, sequence), each
   [schedule] and [arm] taking the next sequence number. *)
type sim_op =
  | Sched of float  (* schedule at now + d *)
  | Sched_after of float
  | Arm of int * float  (* arm timer k at now + d *)
  | Arm_after of int * float

let timers_in_model = 3

(* Fire log: (time, label, pending after the pop). One-shots are
   labelled 0, 1, 2, ... in scheduling order, timer k is -(k + 1). *)
let sim_real ops0 script =
  let sim = Sim.create () and log = ref [] and step = ref 0 and label = ref 0 in
  let timers = Array.make timers_in_model Sim.no_timer in
  let rec fire l () =
    log := (Sim.now sim, l, Sim.pending sim) :: !log;
    let k = !step in
    incr step;
    if k < Array.length script then List.iter run_op script.(k)
  and one_shot () =
    let l = !label in
    incr label;
    fire l
  and run_op = function
    | Sched d -> Sim.schedule sim ~at:(Sim.now sim +. d) (one_shot ())
    | Sched_after d -> Sim.schedule_after sim ~delay:d (one_shot ())
    | Arm (k, d) -> Sim.arm sim timers.(k) ~at:(Sim.now sim +. d)
    | Arm_after (k, d) -> Sim.arm_after sim timers.(k) ~delay:d
  in
  Array.iteri (fun k _ -> timers.(k) <- Sim.timer sim (fire (-(k + 1)))) timers;
  List.iter run_op ops0;
  Sim.run_all sim ();
  (List.rev !log, Sim.events_fired sim)

let sim_model ops0 script =
  let pending = ref [] and seq = ref 0 and label = ref 0 and now = ref 0.0 in
  let log = ref [] and step = ref 0 in
  let push at l =
    pending := (at, !seq, l) :: !pending;
    incr seq
  in
  let run_op = function
    | Sched d | Sched_after d ->
      push (!now +. d) !label;
      incr label
    | Arm (k, d) | Arm_after (k, d) -> push (!now +. d) (-(k + 1))
  in
  List.iter run_op ops0;
  while !pending <> [] do
    let sorted = List.sort compare !pending in
    let at, _, l = List.hd sorted in
    pending := List.tl sorted;
    now := at;
    log := (at, l, List.length !pending) :: !log;
    let k = !step in
    incr step;
    if k < Array.length script then List.iter run_op script.(k)
  done;
  List.rev !log

let prop_sim_matches_model =
  let open QCheck in
  let dt = Gen.oneofl [ 0.0; 0.0; 0.25; 1.0; 1.5; 3.0 ] in
  let op =
    Gen.(
      frequency
        [
          (1, map (fun d -> Sched d) dt);
          (1, map (fun d -> Sched_after d) dt);
          (2, map2 (fun k d -> Arm (k, d)) (int_bound (timers_in_model - 1)) dt);
          (2, map2 (fun k d -> Arm_after (k, d)) (int_bound (timers_in_model - 1)) dt);
        ])
  in
  let gen =
    Gen.(
      pair (list_size (int_range 1 8) op) (array_size (int_bound 60) (list_size (int_bound 2) op)))
  in
  Test.make ~name:"fires in (time, sequence) order of a sorted model" ~count:300 (make gen)
    (fun (ops0, script) ->
      let real, fired = sim_real ops0 script in
      let model = sim_model ops0 script in
      real = model && fired = List.length model)

(* ------------------------------------------------------------------ *)
(* Rate_process                                                         *)

let test_rp_constant () =
  let rp = Rate_process.constant 100.0 in
  check_float "rate" 100.0 (Rate_process.rate_at rp 5.0);
  check_float "work" 500.0 (Rate_process.work rp ~t1:1.0 ~t2:6.0);
  check_float "serve" 2.0 (Rate_process.time_to_serve rp ~from:1.0 ~amount:100.0);
  check_float "nominal" 100.0 (Rate_process.nominal_rate rp);
  check_bool "delta 0" true (Rate_process.nominal_delta rp = Some 0.0)

let test_rp_of_segments () =
  (* 10 b/s for 1s, then 100 b/s forever. *)
  let rp = Rate_process.of_segments [ (1.0, 10.0) ] ~tail:100.0 in
  check_float "phase 1 rate" 10.0 (Rate_process.rate_at rp 0.5);
  check_float "phase 2 rate" 100.0 (Rate_process.rate_at rp 1.5);
  check_float "work across boundary" (10.0 +. 50.0) (Rate_process.work rp ~t1:0.0 ~t2:1.5);
  (* Serving 60 bits from t=0: 10 in the first second, 50 more in 0.5s. *)
  check_float "serve across boundary" 1.5 (Rate_process.time_to_serve rp ~from:0.0 ~amount:60.0)

let test_rp_zero_rate_segment () =
  let rp = Rate_process.of_segments [ (1.0, 0.0) ] ~tail:10.0 in
  (* Nothing served during the dead second. *)
  check_float "waits out zero" 2.0 (Rate_process.time_to_serve rp ~from:0.0 ~amount:10.0)

let test_rp_on_off () =
  let rp = Rate_process.on_off ~on_rate:10.0 ~on:1.0 ~off:1.0 () in
  check_float "on" 10.0 (Rate_process.rate_at rp 0.5);
  check_float "off" 0.0 (Rate_process.rate_at rp 1.5);
  check_float "on again" 10.0 (Rate_process.rate_at rp 2.5);
  check_float "work over cycle" 10.0 (Rate_process.work rp ~t1:0.0 ~t2:2.0)

let test_rp_square_fc () =
  let rp = Rate_process.square ~c:100.0 ~swing:50.0 ~period:2.0 in
  check_float "high" 150.0 (Rate_process.rate_at rp 0.5);
  check_float "low" 50.0 (Rate_process.rate_at rp 1.5);
  check_bool "nominal delta" true (Rate_process.nominal_delta rp = Some 50.0);
  (* FC check on a grid: W(t1,t2) >= c(t2-t1) - delta. *)
  let ok = ref true in
  for i = 0 to 40 do
    for j = i + 1 to 40 do
      let t1 = 0.25 *. float_of_int i and t2 = 0.25 *. float_of_int j in
      let w = Rate_process.work rp ~t1 ~t2 in
      if w < (100.0 *. (t2 -. t1)) -. 50.0 -. 1e-6 then ok := false
    done
  done;
  check_bool "FC(100, 50) holds on grid" true !ok

let test_rp_validation () =
  check_bool "constant <= 0" true
    (try ignore (Rate_process.constant 0.0); false with Invalid_argument _ -> true);
  check_bool "square swing" true
    (try ignore (Rate_process.square ~c:1.0 ~swing:1.0 ~period:1.0); false
     with Invalid_argument _ -> true);
  check_bool "negative from" true
    (try ignore (Rate_process.work (Rate_process.constant 1.0) ~t1:(-1.0) ~t2:0.0); false
     with Invalid_argument _ -> true)

let prop_fc_random_respects_delta =
  (* The defining property: the drawdown of C·t − W(t) never exceeds
     delta, on any sampled interval, for any seed. *)
  QCheck.Test.make ~name:"fc_random satisfies Definition 1" ~count:60
    QCheck.(pair (int_range 1 10_000) (int_range 1 5))
    (fun (seed, spread_factor) ->
      let c = 100.0 in
      let delta = 200.0 in
      let rng = Rng.create seed in
      let rp =
        Rate_process.fc_random ~c ~delta ~seg:0.5
          ~spread:(20.0 *. float_of_int spread_factor)
          ~rng
      in
      let ok = ref true in
      for i = 0 to 60 do
        for j = i + 1 to 60 do
          let t1 = 0.5 *. float_of_int i and t2 = 0.5 *. float_of_int j in
          let w = Rate_process.work rp ~t1 ~t2 in
          if w < (c *. (t2 -. t1)) -. delta -. 1e-6 then ok := false
        done
      done;
      !ok)

let test_rp_ebf_positive_rates () =
  let rng = Rng.create 3 in
  let rp = Rate_process.ebf ~c:100.0 ~scale:80.0 ~seg:0.1 ~rng in
  for i = 0 to 200 do
    check_bool "positive" true (Rate_process.rate_at rp (0.1 *. float_of_int i) > 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Server                                                               *)

let test_server_serves_at_rate () =
  let sim = Sim.create () in
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let departures = ref [] in
  Server.on_depart server (fun p ~start ~departed ->
      departures := (p.Packet.seq, start, departed) :: !departures);
  Sim.schedule sim ~at:0.0 (fun () ->
      Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ());
      Server.inject server (pkt ~flow:1 ~seq:2 ~len:50 ()));
  Sim.run_all sim ();
  (match List.rev !departures with
  | [ (1, s1, d1); (2, s2, d2) ] ->
    check_float "start 1" 0.0 s1;
    check_float "depart 1" 1.0 d1;
    check_float "start 2 back-to-back" 1.0 s2;
    check_float "depart 2" 1.5 d2
  | _ -> Alcotest.fail "expected two departures");
  check_float "work done" 150.0 (Server.work_done server);
  check_int "departed" 2 (Server.departed server)

let test_server_work_conserving_idle_gap () =
  let sim = Sim.create () in
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let departed = ref [] in
  Server.on_depart server (fun p ~start:_ ~departed:d -> departed := (p.Packet.seq, d) :: !departed);
  Sim.schedule sim ~at:0.0 (fun () -> Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ()));
  Sim.schedule sim ~at:5.0 (fun () -> Server.inject server (pkt ~flow:1 ~seq:2 ~len:100 ()));
  Sim.run_all sim ();
  (match List.rev !departed with
  | [ (1, d1); (2, d2) ] ->
    check_float "first" 1.0 d1;
    check_float "second starts on arrival" 6.0 d2
  | _ -> Alcotest.fail "expected two")

let test_server_priority_bypass () =
  let sim = Sim.create () in
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let order = ref [] in
  Server.on_depart server (fun p ~start:_ ~departed:_ -> order := p.Packet.flow :: !order);
  Sim.schedule sim ~at:0.0 (fun () ->
      Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ());
      (* queued behind flow 1 in FIFO, but priority jumps it *)
      Server.inject server (pkt ~flow:2 ~seq:1 ~len:100 ());
      Server.inject_priority server (pkt ~flow:3 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  (* Flow 1 is already in service (non-preemptive); the priority packet
     goes next. *)
  Alcotest.(check (list int)) "priority order" [ 1; 3; 2 ] (List.rev !order)

let test_server_buffer_drop () =
  let sim = Sim.create () in
  let server =
    Server.create sim ~name:"s" ~rate:(Rate_process.constant 1.0) ~sched:(fifo ())
      ~flow_buffer_limit:2 ()
  in
  let drops = ref [] in
  Server.on_drop server (fun p -> drops := p.Packet.seq :: !drops);
  Sim.schedule sim ~at:0.0 (fun () ->
      (* seq 1 enters service immediately; 2 and 3 fill the buffer;
         4 is dropped. *)
      for seq = 1 to 4 do
        Server.inject server (pkt ~flow:1 ~seq ~len:1 ())
      done);
  Sim.run sim ~until:0.5;
  check_int "one drop" 1 (Server.drops server);
  Alcotest.(check (list int)) "dropped seq 4" [ 4 ] !drops

let test_server_inject_handler_fires () =
  let sim = Sim.create () in
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant 1.0) ~sched:(fifo ()) () in
  let seen = ref 0 in
  Server.on_inject server (fun _ -> incr seen);
  Sim.schedule sim ~at:0.0 (fun () ->
      Server.inject server (pkt ~flow:1 ~seq:1 ~len:1 ());
      Server.inject_priority server (pkt ~flow:2 ~seq:1 ~len:1 ()));
  Sim.run sim ~until:0.1;
  check_int "both arrivals seen" 2 !seen

let test_server_variable_rate_service () =
  (* 10 b/s for 1 s then 100 b/s: a 60-bit packet injected at 0 ends at
     1.5 s. *)
  let sim = Sim.create () in
  let rp = Rate_process.of_segments [ (1.0, 10.0) ] ~tail:100.0 in
  let server = Server.create sim ~name:"s" ~rate:rp ~sched:(fifo ()) () in
  let departed = ref 0.0 in
  Server.on_depart server (fun _ ~start:_ ~departed:d -> departed := d);
  Sim.schedule sim ~at:0.0 (fun () -> Server.inject server (pkt ~flow:1 ~seq:1 ~len:60 ()));
  Sim.run_all sim ();
  check_float "completion across segments" 1.5 !departed

(* One completion closure per server: the packet in service and its
   start time live in the server. What a back-to-back service still
   allocates is 2 words each for the FIFO's [Some p], the packet length
   boxed as the rate process's [amount], the finish time it returns and
   the clock of the new instant. A closure per service (header, code
   pointer, info word, server, packet, start) would add 6 more. *)
let test_server_no_closure_per_service () =
  let sim = Sim.create () in
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant 1024.0) ~sched:(fifo ()) () in
  let n = 50_000 in
  let pkts = Array.init n (fun i -> pkt ~flow:1 ~seq:(i + 1) ~len:64 ()) in
  Sim.schedule sim ~at:0.0 (fun () -> Array.iter (Server.inject server) pkts);
  Sim.run sim ~until:0.0;
  let before = Gc.minor_words () in
  Sim.run_all sim ();
  let words = Gc.minor_words () -. before in
  check_int "all served" n (Server.departed server);
  check_float "back to back" (float_of_int n /. 16.0) (Sim.now sim);
  check_bool "at most 8 words per service" true (words <= 8.0 *. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Sources                                                              *)

let collect_arrivals sim =
  let log = ref [] in
  let target p = log := (Sim.now sim, p.Packet.flow, p.Packet.seq) :: !log in
  (target, fun () -> List.rev !log)

let test_source_cbr () =
  let sim = Sim.create () in
  let target, got = collect_arrivals sim in
  let c = Source.cbr sim ~target ~flow:1 ~len:100 ~rate:100.0 ~start:0.0 ~stop:3.5 in
  Sim.run_all sim ();
  (* Interval 1s: packets at 0,1,2,3. *)
  check_int "count" 4 (List.length (got ()));
  check_int "sent counter" 4 c.Source.sent;
  (match got () with
  | (t1, _, s1) :: (t2, _, s2) :: _ ->
    check_float "first at start" 0.0 t1;
    check_int "seq 1" 1 s1;
    check_float "spacing" 1.0 t2;
    check_int "seq 2" 2 s2
  | _ -> Alcotest.fail "expected packets")

let test_source_poisson_mean_rate () =
  let sim = Sim.create () in
  let target, got = collect_arrivals sim in
  let rng = Rng.create 11 in
  ignore (Source.poisson sim ~target ~flow:1 ~len:100 ~rate:100.0 ~rng ~start:0.0 ~stop:1000.0);
  Sim.run_all sim ();
  let n = List.length (got ()) in
  (* Expect ~1000 packets (one per second on average). *)
  check_bool "mean rate within 10%" true (n > 900 && n < 1100)

let test_source_on_off () =
  let sim = Sim.create () in
  let target, got = collect_arrivals sim in
  ignore
    (Source.on_off sim ~target ~flow:1 ~len:100 ~peak_rate:100.0 ~on:2.0 ~off:3.0 ~start:0.0
       ~stop:4.9);
  Sim.run_all sim ();
  let times = List.map (fun (t, _, _) -> t) (got ()) in
  (* Two packets in the first on-period (0,1), silence during [2,5). *)
  check_bool "burst then gap" true
    (List.for_all (fun t -> t <= 1.0 +. 1e-9 || t >= 4.0) times)

let test_source_burst () =
  let sim = Sim.create () in
  let target, got = collect_arrivals sim in
  ignore (Source.burst sim ~target ~flow:1 ~len:10 ~burst_size:3 ~interval:1.0 ~start:0.0 ~stop:1.5);
  Sim.run_all sim ();
  check_int "two bursts of 3" 6 (List.length (got ()))

let test_source_leaky_bucket_conformance () =
  let sim = Sim.create () in
  let target, got = collect_arrivals sim in
  let sigma = 500.0 and rho = 100.0 and len = 100 in
  ignore
    (Source.leaky_bucket sim ~target ~flow:1 ~len ~sigma ~rho ~flush_every:0.25 ~start:0.0
       ~stop:50.0);
  Sim.run_all sim ();
  let arrivals = List.map (fun (t, _, _) -> t) (got ()) in
  check_bool "non-empty" true (arrivals <> []);
  (* Conformance: bits in any window [t1,t2] <= sigma + rho (t2-t1). *)
  let arr = Array.of_list arrivals in
  let n = Array.length arr in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let bits = float_of_int ((j - i + 1) * len) in
      if bits > sigma +. (rho *. (arr.(j) -. arr.(i))) +. 1e-6 then ok := false
    done
  done;
  check_bool "(sigma, rho) conformance" true !ok

let test_source_greedy_budget () =
  let sim = Sim.create () in
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let c = Source.greedy sim ~server ~flow:1 ~len:100 ~total:10 ~window:3 ~start:0.0 () in
  Sim.run_all sim ();
  check_int "exactly total" 10 c.Source.sent;
  check_int "all served" 10 (Server.departed server);
  check_bool "finish time = 10 pkts at 1s each" true
    (match c.Source.finished_at with Some t -> Float.abs (t -. 10.0) < 1e-9 | None -> false)

let test_source_greedy_keeps_backlog () =
  let sim = Sim.create () in
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  ignore (Source.greedy sim ~server ~flow:1 ~len:100 ~total:100 ~window:4 ~start:0.0 ());
  (* Mid-run the flow must be backlogged (window > 1 outstanding). *)
  Sim.run sim ~until:0.35;
  check_bool "backlogged mid-run" true ((Server.sched server).Sched.backlog 1 > 0)

let test_source_validation () =
  let sim = Sim.create () in
  let target _ = () in
  check_bool "cbr rate" true
    (try
       ignore (Source.cbr sim ~target ~flow:1 ~len:10 ~rate:0.0 ~start:0.0 ~stop:1.0);
       false
     with Invalid_argument _ -> true);
  check_bool "len" true
    (try
       ignore (Source.cbr sim ~target ~flow:1 ~len:0 ~rate:1.0 ~start:0.0 ~stop:1.0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Mpeg                                                                 *)

let test_mpeg_average_rate () =
  let sim = Sim.create () in
  let bits = ref 0 in
  let target p = bits := !bits + p.Packet.len in
  let rng = Rng.create 21 in
  let stats =
    Mpeg.vbr sim ~target ~flow:1 ~avg_rate:1.21e6 ~rng ~start:0.0 ~stop:30.0 ()
  in
  Sim.run_all sim ();
  let rate = float_of_int !bits /. 30.0 in
  check_bool "within 15% of 1.21 Mb/s" true (rate > 1.0e6 && rate < 1.45e6);
  check_int "frames ~ 30fps*30s" 899 stats.Mpeg.frames

let test_mpeg_deterministic_sigma0 () =
  (* With sigma = 0 frame sizes follow the exact GOP pattern. *)
  let run () =
    let sim = Sim.create () in
    let ns = ref [] in
    let target p = ns := p.Packet.seq :: !ns in
    let rng = Rng.create 1 in
    ignore (Mpeg.vbr sim ~target ~flow:1 ~avg_rate:1.0e6 ~sigma:0.0 ~rng ~start:0.0 ~stop:2.0 ());
    Sim.run_all sim ();
    !ns
  in
  check_bool "deterministic" true (run () = run ())

let test_mpeg_i_frames_bigger () =
  (* With sigma = 0 the I frame of each GOP carries ~5x a B frame. *)
  let sim = Sim.create () in
  let per_frame = Hashtbl.create 32 in
  let frame_of t = int_of_float (t *. 30.0 +. 1e-9) in
  let target p =
    let f = frame_of (Sim.now sim) in
    Hashtbl.replace per_frame f ((try Hashtbl.find per_frame f with Not_found -> 0) + p.Packet.len)
  in
  let rng = Rng.create 1 in
  ignore (Mpeg.vbr sim ~target ~flow:1 ~avg_rate:1.0e6 ~sigma:0.0 ~rng ~start:0.0 ~stop:0.45 ());
  Sim.run_all sim ();
  let size f = try Hashtbl.find per_frame f with Not_found -> 0 in
  check_bool "I > B" true (size 0 > 4 * size 1)

(* ------------------------------------------------------------------ *)
(* Tcp                                                                  *)

let test_tcp_delivers_in_order () =
  let sim = Sim.create () in
  let server =
    Server.create sim ~name:"s" ~rate:(Rate_process.constant 1.0e6) ~sched:(fifo ()) ()
  in
  let t = Tcp.reno sim ~server ~flow:1 ~pkt_len:8000 ~start:0.0 () in
  Sim.run sim ~until:2.0;
  check_bool "delivered plenty" true (Tcp.delivered t > 50);
  (* The delivery series is strictly increasing. *)
  let rec increasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check_bool "monotone" true (increasing (Tcp.delivery_series t))

let test_tcp_saturates_link () =
  let sim = Sim.create () in
  let server =
    Server.create sim ~name:"s" ~rate:(Rate_process.constant 1.0e6) ~sched:(fifo ())
      ~flow_buffer_limit:50 ()
  in
  let t = Tcp.reno sim ~server ~flow:1 ~pkt_len:8000 ~start:0.0 () in
  Sim.run sim ~until:5.0;
  (* 1 Mb/s / 8000 b = 125 pps; in ~5 s it should approach 600. *)
  check_bool "throughput near capacity" true (Tcp.delivered t > 450)

let test_tcp_recovers_from_loss () =
  let sim = Sim.create () in
  let server =
    Server.create sim ~name:"s" ~rate:(Rate_process.constant 1.0e5) ~sched:(fifo ())
      ~flow_buffer_limit:5 ()
  in
  let t = Tcp.reno sim ~server ~flow:1 ~pkt_len:8000 ~start:0.0 () in
  Sim.run sim ~until:10.0;
  let halfway = Tcp.delivered t in
  Sim.run sim ~until:20.0;
  check_bool "drops occurred" true (Server.drops server > 0);
  check_bool "retransmits counted" true (Tcp.retransmits t > 0);
  (* Recovery means sustained progress after the loss episodes, not a
     particular throughput: the second half must deliver too. *)
  check_bool "keeps delivering after losses" true (Tcp.delivered t > halfway + 20)

let test_tcp_delivered_before () =
  let sim = Sim.create () in
  let server =
    Server.create sim ~name:"s" ~rate:(Rate_process.constant 1.0e6) ~sched:(fifo ()) ()
  in
  let t = Tcp.reno sim ~server ~flow:1 ~pkt_len:8000 ~start:0.0 () in
  Sim.run sim ~until:2.0;
  let early = Tcp.delivered_before t 1.0 in
  let late = Tcp.delivered_before t 2.0 in
  check_bool "monotone window counts" true (0 < early && early < late);
  check_int "total consistent" (Tcp.delivered t) late

let test_tcp_two_flows_share_fifo () =
  let sim = Sim.create () in
  let server =
    Server.create sim ~name:"s" ~rate:(Rate_process.constant 1.0e6) ~sched:(fifo ())
      ~flow_buffer_limit:20 ()
  in
  let t1 = Tcp.reno sim ~server ~flow:1 ~pkt_len:8000 ~start:0.0 () in
  let t2 = Tcp.reno sim ~server ~flow:2 ~pkt_len:8000 ~start:0.0 () in
  Sim.run sim ~until:5.0;
  check_bool "both progress" true (Tcp.delivered t1 > 100 && Tcp.delivered t2 > 100)

(* ------------------------------------------------------------------ *)
(* Tandem and Trace                                                     *)

let test_tandem_wiring () =
  let sim = Sim.create () in
  let s1 = Server.create sim ~name:"s1" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let s2 = Server.create sim ~name:"s2" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let tandem = Tandem.chain sim ~servers:[ s1; s2 ] ~prop_delays:[ 0.5 ] () in
  let exits = ref [] in
  Tandem.on_exit tandem (fun p ~departed -> exits := (p.Packet.seq, departed) :: !exits);
  Sim.schedule sim ~at:0.0 (fun () -> Tandem.inject tandem (pkt ~flow:1 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  (match !exits with
  | [ (1, d) ] ->
    (* 1s at hop 1 + 0.5 prop + 1s at hop 2. *)
    check_float "end-to-end time" 2.5 d
  | _ -> Alcotest.fail "expected one exit")

let test_tandem_forward_filter () =
  let sim = Sim.create () in
  let s1 = Server.create sim ~name:"s1" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let s2 = Server.create sim ~name:"s2" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let tandem =
    Tandem.chain sim ~servers:[ s1; s2 ] ~prop_delays:[ 0.0 ]
      ~forward:(fun p -> p.Packet.flow = 1)
      ()
  in
  Sim.schedule sim ~at:0.0 (fun () ->
      Server.inject s1 (pkt ~flow:1 ~seq:1 ~len:100 ());
      Server.inject s1 (pkt ~flow:9 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  check_int "only flow 1 forwarded" 1 (Server.departed s2);
  ignore tandem

let test_tandem_validation () =
  let sim = Sim.create () in
  let s1 = Server.create sim ~name:"s1" ~rate:(Rate_process.constant 1.0) ~sched:(fifo ()) () in
  check_bool "mismatched delays" true
    (try
       ignore (Tandem.chain sim ~servers:[ s1 ] ~prop_delays:[ 0.1 ] ());
       false
     with Invalid_argument _ -> true);
  check_bool "empty chain" true
    (try
       ignore (Tandem.chain sim ~servers:[] ~prop_delays:[] ());
       false
     with Invalid_argument _ -> true)

let test_trace_records () =
  let sim = Sim.create () in
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant 100.0) ~sched:(fifo ()) () in
  let trace = Trace.attach server in
  Sim.schedule sim ~at:0.0 (fun () ->
      Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ());
      Server.inject server (pkt ~flow:1 ~seq:2 ~len:100 ()));
  Sim.run_all sim ();
  check_int "count" 2 (Trace.count trace);
  (match Trace.of_flow trace 1 with
  | [ r1; r2 ] ->
    check_float "arrived" 0.0 r1.Trace.arrived;
    check_float "start" 0.0 r1.Trace.start;
    check_float "departed" 1.0 r1.Trace.departed;
    check_float "second queued" 1.0 r2.Trace.start;
    check_float "second departed" 2.0 r2.Trace.departed
  | _ -> Alcotest.fail "expected two records");
  check_float "max delay" 2.0 (Trace.max_delay trace 1);
  Alcotest.(check (array (float 1e-9))) "delays" [| 1.0; 2.0 |] (Trace.delays trace 1)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "netsim"
    [
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_sim_same_time_fifo;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "run until" `Quick test_sim_run_until;
          Alcotest.test_case "cascade" `Quick test_sim_cascade;
          Alcotest.test_case "same-instant reschedule" `Quick test_sim_same_instant_reschedule;
          Alcotest.test_case "run_all allocates nothing per pop" `Quick
            test_sim_run_all_zero_alloc;
          Alcotest.test_case "fired callbacks are released" `Quick
            test_sim_releases_fired_callbacks;
          Alcotest.test_case "timer cycles allocate nothing" `Quick test_sim_timer_zero_alloc;
          Alcotest.test_case "timer pending several times" `Quick test_sim_timer_pending_twice;
          Alcotest.test_case "timer misuse rejected" `Quick test_sim_timer_misuse;
          q prop_sim_matches_model;
        ] );
      ( "rate_process",
        [
          Alcotest.test_case "constant" `Quick test_rp_constant;
          Alcotest.test_case "of_segments" `Quick test_rp_of_segments;
          Alcotest.test_case "zero-rate segment" `Quick test_rp_zero_rate_segment;
          Alcotest.test_case "on_off" `Quick test_rp_on_off;
          Alcotest.test_case "square is FC" `Quick test_rp_square_fc;
          Alcotest.test_case "validation" `Quick test_rp_validation;
          Alcotest.test_case "ebf positive" `Quick test_rp_ebf_positive_rates;
          q prop_fc_random_respects_delta;
        ] );
      ( "server",
        [
          Alcotest.test_case "serves at rate" `Quick test_server_serves_at_rate;
          Alcotest.test_case "work conserving" `Quick test_server_work_conserving_idle_gap;
          Alcotest.test_case "priority bypass" `Quick test_server_priority_bypass;
          Alcotest.test_case "buffer drop" `Quick test_server_buffer_drop;
          Alcotest.test_case "inject handler" `Quick test_server_inject_handler_fires;
          Alcotest.test_case "variable-rate service" `Quick test_server_variable_rate_service;
          Alcotest.test_case "no closure per service" `Quick test_server_no_closure_per_service;
        ] );
      ( "sources",
        [
          Alcotest.test_case "cbr" `Quick test_source_cbr;
          Alcotest.test_case "poisson mean" `Quick test_source_poisson_mean_rate;
          Alcotest.test_case "on_off" `Quick test_source_on_off;
          Alcotest.test_case "burst" `Quick test_source_burst;
          Alcotest.test_case "leaky bucket conformance" `Quick test_source_leaky_bucket_conformance;
          Alcotest.test_case "greedy budget" `Quick test_source_greedy_budget;
          Alcotest.test_case "greedy backlog" `Quick test_source_greedy_keeps_backlog;
          Alcotest.test_case "validation" `Quick test_source_validation;
        ] );
      ( "mpeg",
        [
          Alcotest.test_case "average rate" `Quick test_mpeg_average_rate;
          Alcotest.test_case "deterministic" `Quick test_mpeg_deterministic_sigma0;
          Alcotest.test_case "I frames bigger" `Quick test_mpeg_i_frames_bigger;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "in order" `Quick test_tcp_delivers_in_order;
          Alcotest.test_case "saturates link" `Quick test_tcp_saturates_link;
          Alcotest.test_case "recovers from loss" `Quick test_tcp_recovers_from_loss;
          Alcotest.test_case "delivered_before" `Quick test_tcp_delivered_before;
          Alcotest.test_case "two flows" `Quick test_tcp_two_flows_share_fifo;
        ] );
      ( "tandem+trace",
        [
          Alcotest.test_case "wiring" `Quick test_tandem_wiring;
          Alcotest.test_case "forward filter" `Quick test_tandem_forward_filter;
          Alcotest.test_case "validation" `Quick test_tandem_validation;
          Alcotest.test_case "trace records" `Quick test_trace_records;
        ] );
    ]
