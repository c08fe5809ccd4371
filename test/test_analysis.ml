(* Tests for the measurement layer: service logs, busy intervals,
   interval intersection and the empirical fairness index. *)

open Sfq_base
open Sfq_netsim
open Sfq_analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let pkt ~flow ~seq ~len () = Packet.make ~flow ~seq ~len ~born:0.0 ()
let fifo () = Sfq_sched.Fifo.sched (Sfq_sched.Fifo.create ())

(* A constant-rate FIFO server with a service log. *)
let logged_server sim rate =
  let server = Server.create sim ~name:"s" ~rate:(Rate_process.constant rate) ~sched:(fifo ()) () in
  (server, Service_log.attach server)

(* ------------------------------------------------------------------ *)
(* Service_log                                                          *)

let test_completions_recorded () =
  let sim = Sim.create () in
  let server, log = logged_server sim 100.0 in
  Sim.schedule sim ~at:0.0 (fun () ->
      Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ());
      Server.inject server (pkt ~flow:2 ~seq:1 ~len:50 ()));
  Sim.run_all sim ();
  check_int "two completions" 2 (Sfq_util.Vec.length (Service_log.completions log));
  Alcotest.(check (list int)) "flows" [ 1; 2 ] (Service_log.flows log)

let test_busy_intervals () =
  let sim = Sim.create () in
  let server, log = logged_server sim 100.0 in
  Sim.schedule sim ~at:0.0 (fun () -> Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ()));
  Sim.schedule sim ~at:5.0 (fun () -> Server.inject server (pkt ~flow:1 ~seq:2 ~len:100 ()));
  Sim.run_all sim ();
  (match Service_log.busy_intervals log 1 ~until:10.0 with
  | [ (a1, b1); (a2, b2) ] ->
    check_float "first opens" 0.0 a1;
    check_float "first closes" 1.0 b1;
    check_float "second opens" 5.0 a2;
    check_float "second closes" 6.0 b2
  | l -> Alcotest.fail (Printf.sprintf "expected 2 intervals, got %d" (List.length l)))

let test_busy_interval_still_open () =
  let sim = Sim.create () in
  let server, log = logged_server sim 1.0 in
  Sim.schedule sim ~at:0.0 (fun () -> Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ()));
  Sim.run sim ~until:10.0;
  (match Service_log.busy_intervals log 1 ~until:10.0 with
  | [ (0.0, 10.0) ] -> ()
  | _ -> Alcotest.fail "expected one open interval closed at until")

let test_service_window_semantics () =
  (* A packet counts only if it starts AND finishes in the window. *)
  let sim = Sim.create () in
  let server, log = logged_server sim 100.0 in
  Sim.schedule sim ~at:0.0 (fun () ->
      Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ());
      (* served [0,1] *)
      Server.inject server (pkt ~flow:1 ~seq:2 ~len:100 ()) (* served [1,2] *));
  Sim.run_all sim ();
  check_float "full window" 200.0 (Service_log.service log 1 ~t1:0.0 ~t2:2.0);
  check_float "second only" 100.0 (Service_log.service log 1 ~t1:0.5 ~t2:2.0);
  check_float "neither (split)" 0.0 (Service_log.service log 1 ~t1:0.5 ~t2:1.5)

(* ------------------------------------------------------------------ *)
(* Fairness                                                             *)

let test_intersect_intervals () =
  let a = [ (0.0, 2.0); (4.0, 6.0) ] and b = [ (1.0, 5.0) ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "intersection"
    [ (1.0, 2.0); (4.0, 5.0) ]
    (Fairness.intersect_intervals a b);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "disjoint" [] (Fairness.intersect_intervals [ (0.0, 1.0) ] [ (2.0, 3.0) ])

let test_exact_h_alternating_is_tight () =
  (* FIFO alternating equal packets: max gap is one packet of
     normalized service. *)
  let sim = Sim.create () in
  let server, log = logged_server sim 100.0 in
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 5 do
        Server.inject server (pkt ~flow:1 ~seq ~len:100 ());
        Server.inject server (pkt ~flow:2 ~seq ~len:100 ())
      done);
  Sim.run_all sim ();
  let h = Fairness.exact_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until:(Sim.now sim) in
  check_float "one packet" 100.0 h

let test_exact_h_starved_flow () =
  (* FIFO serving all of flow 1 then all of flow 2: H = full backlog. *)
  let sim = Sim.create () in
  let server, log = logged_server sim 100.0 in
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 4 do
        Server.inject server (pkt ~flow:1 ~seq ~len:100 ())
      done;
      for seq = 1 to 4 do
        Server.inject server (pkt ~flow:2 ~seq ~len:100 ())
      done);
  Sim.run_all sim ();
  let h = Fairness.exact_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until:(Sim.now sim) in
  check_float "four packets" 400.0 h

let test_exact_h_no_overlap_is_zero () =
  let sim = Sim.create () in
  let server, log = logged_server sim 100.0 in
  Sim.schedule sim ~at:0.0 (fun () -> Server.inject server (pkt ~flow:1 ~seq:1 ~len:100 ()));
  Sim.schedule sim ~at:10.0 (fun () -> Server.inject server (pkt ~flow:2 ~seq:1 ~len:100 ()));
  Sim.run_all sim ();
  check_float "never both backlogged" 0.0
    (Fairness.exact_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until:(Sim.now sim))

let test_approx_close_to_exact () =
  let sim = Sim.create () in
  let server, log = logged_server sim 100.0 in
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 20 do
        Server.inject server (pkt ~flow:1 ~seq ~len:100 ());
        Server.inject server (pkt ~flow:2 ~seq ~len:50 ())
      done);
  Sim.run_all sim ();
  let exact = Fairness.exact_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until:(Sim.now sim) in
  let approx = Fairness.approx_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until:(Sim.now sim) in
  (* The streaming index may over- or under-shoot by at most one packet
     of each flow. *)
  check_bool "within one packet" true (Float.abs (exact -. approx) <= 150.0 +. 1e-9)

let test_weights_scale_h () =
  (* Doubling both rates halves the normalized index. *)
  let run r =
    let sim = Sim.create () in
    let server, log = logged_server sim 100.0 in
    Sim.schedule sim ~at:0.0 (fun () ->
        for seq = 1 to 4 do
          Server.inject server (pkt ~flow:1 ~seq ~len:100 ())
        done;
        for seq = 1 to 4 do
          Server.inject server (pkt ~flow:2 ~seq ~len:100 ())
        done);
    Sim.run_all sim ();
    Fairness.exact_h log ~f:1 ~m:2 ~r_f:r ~r_m:r ~until:(Sim.now sim)
  in
  check_float "halved" (run 1.0 /. 2.0) (run 2.0)

let test_throughput () =
  let sim = Sim.create () in
  let server, log = logged_server sim 100.0 in
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 10 do
        Server.inject server (pkt ~flow:1 ~seq ~len:100 ())
      done);
  Sim.run_all sim ();
  check_float "full rate" 100.0 (Fairness.throughput log 1 ~t1:0.0 ~t2:10.0)

let test_max_pairwise () =
  let sim = Sim.create () in
  let server, log = logged_server sim 100.0 in
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 3 do
        List.iter (fun flow -> Server.inject server (pkt ~flow ~seq ~len:100 ())) [ 1; 2; 3 ]
      done);
  Sim.run_all sim ();
  let rates = [ (1, 1.0); (2, 1.0); (3, 1.0) ] in
  let hmax = Fairness.max_pairwise_h log ~rates ~until:(Sim.now sim) ~exact:true in
  let h12 = Fairness.exact_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until:(Sim.now sim) in
  check_bool "max dominates" true (hmax >= h12)

(* ------------------------------------------------------------------ *)
(* Manually-recorded logs and the approx/exact cross-check               *)

let test_manual_log_matches_attached () =
  (* Replaying the depart/inject stream through the manual API must
     yield the same accounting as Service_log.attach. *)
  let log = Service_log.create () in
  Service_log.note_arrival log ~at:0.0 1;
  Service_log.note_arrival log ~at:0.0 1;
  Service_log.note_completion log ~flow:1 ~start:0.0 ~finish:1.0 ~len:100;
  Service_log.note_completion log ~flow:1 ~start:1.0 ~finish:2.0 ~len:100;
  Service_log.note_arrival log ~at:5.0 1;
  Service_log.note_completion log ~flow:1 ~start:5.0 ~finish:6.0 ~len:100;
  (match Service_log.busy_intervals log 1 ~until:10.0 with
  | [ (a1, b1); (a2, b2) ] ->
    check_float "first opens" 0.0 a1;
    check_float "first closes" 2.0 b1;
    check_float "second opens" 5.0 a2;
    check_float "second closes" 6.0 b2
  | l -> Alcotest.fail (Printf.sprintf "expected 2 intervals, got %d" (List.length l)));
  check_float "window" 300.0 (Service_log.service log 1 ~t1:0.0 ~t2:6.0)

(* A random two-flow FIFO run, recorded through the manual API:
   arrivals at generated gaps, one fixed-rate server, service in
   arrival order. *)
let fifo_log_ops_gen =
  QCheck.Gen.(
    list_size (2 -- 60)
      (triple (1 -- 2) (map (fun n -> 100 * (1 + (n mod 10))) small_nat) (0 -- 20)))

let build_fifo_log ops =
  let cap = 100.0 in
  let clock = ref 0.0 in
  let arrivals =
    List.map
      (fun (flow, len, gap_tenths) ->
        clock := !clock +. (float_of_int gap_tenths /. 10.0);
        (!clock, flow, len))
      ops
  in
  let free = ref 0.0 in
  let completions =
    List.map
      (fun (at, flow, len) ->
        let start = Float.max at !free in
        let finish = start +. (float_of_int len /. cap) in
        free := finish;
        (finish, start, flow, len))
      arrivals
  in
  let log = Service_log.create () in
  let events =
    List.map (fun (at, flow, _) -> (at, `Arrive flow)) arrivals
    @ List.map
        (fun (finish, start, flow, len) -> (finish, `Complete (flow, start, len)))
        completions
  in
  let events =
    List.stable_sort
      (fun (a, ea) (b, eb) ->
        match compare a b with
        | 0 -> (
          match (ea, eb) with `Arrive _, `Complete _ -> -1 | `Complete _, `Arrive _ -> 1 | _ -> 0)
        | c -> c)
      events
  in
  List.iter
    (fun (at, e) ->
      match e with
      | `Arrive flow -> Service_log.note_arrival log ~at flow
      | `Complete (flow, start, len) ->
        Service_log.note_completion log ~flow ~start ~finish:at ~len)
    events;
  (log, !free)

let prop_approx_within_one_packet_of_exact =
  (* The streaming drawdown index may over- or under-shoot the exact
     supremum by at most one packet of each flow (fairness.mli). *)
  QCheck.Test.make ~name:"fairness: |approx_h - exact_h| <= lmax_f/r + lmax_m/r"
    ~count:150
    (QCheck.make fifo_log_ops_gen
       ~print:QCheck.Print.(list (triple int int int)))
    (fun ops ->
      let log, until = build_fifo_log ops in
      let lmax flow =
        List.fold_left
          (fun acc (f, len, _) ->
            if f = flow then Float.max acc (float_of_int len) else acc)
          0.0 ops
      in
      let e = Fairness.exact_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until in
      let a = Fairness.approx_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until in
      Float.abs (a -. e) <= lmax 1 +. lmax 2 +. 1e-9)

let test_approx_exact_agree_alternating () =
  (* Two equal-rate flows served in strict alternation from a common
     backlog: both measures are exactly one packet of normalized
     service. *)
  let log = Service_log.create () in
  for _ = 1 to 5 do
    Service_log.note_arrival log ~at:0.0 1;
    Service_log.note_arrival log ~at:0.0 2
  done;
  for k = 0 to 9 do
    let flow = if k mod 2 = 0 then 1 else 2 in
    Service_log.note_completion log ~flow ~start:(float_of_int k)
      ~finish:(float_of_int (k + 1)) ~len:100
  done;
  let e = Fairness.exact_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until:10.0 in
  let a = Fairness.approx_h log ~f:1 ~m:2 ~r_f:1.0 ~r_m:1.0 ~until:10.0 in
  check_float "exact is one packet" 100.0 e;
  check_float "approx agrees" e a

(* Random four-flow logs through the manual API: arrivals, service of a
   backlogged flow at a fixed rate, removals and idle gaps, measured at
   an [until] that may leave intervals open. Rates that are not powers
   of two make every sum order-sensitive. *)
let random_log_gen =
  QCheck.Gen.(
    pair
      (list_size (0 -- 80)
         (frequency
            [
              (4, map (fun f -> `Arrive f) (1 -- 4));
              (4, map2 (fun f l -> `Serve (f, l)) (1 -- 4) (oneofl [ 100; 200; 500; 1000 ]));
              (1, map (fun f -> `Remove f) (1 -- 4));
              (1, map (fun g -> `Gap g) (1 -- 30));
            ]))
      (0 -- 20))

let build_random_log (steps, extra) =
  let log = Service_log.create () and backlog = Array.make 5 0 and t = ref 0.0 in
  List.iter
    (function
      | `Arrive f ->
        backlog.(f) <- backlog.(f) + 1;
        Service_log.note_arrival log ~at:!t f
      | `Serve (f, len) ->
        if backlog.(f) > 0 then begin
          backlog.(f) <- backlog.(f) - 1;
          let start = !t in
          t := start +. (float_of_int len /. 300.0);
          Service_log.note_completion log ~flow:f ~start ~finish:!t ~len
        end
      | `Remove f ->
        if backlog.(f) > 0 then begin
          backlog.(f) <- backlog.(f) - 1;
          Service_log.note_removal log ~at:!t f
        end
      | `Gap g -> t := !t +. (float_of_int g /. 7.0))
    steps;
  (log, !t +. (float_of_int extra /. 3.0))

let random_rates = [| 0.3; 1.0; 3.0; 7.0 |]
let positive_h_cases = ref 0

let prop_exact_h_matches_model =
  QCheck.Test.make ~count:500 ~name:"fairness: exact_h bit-identical to the list model"
    (QCheck.make random_log_gen)
    (fun input ->
      let log, until = build_random_log input in
      let positive = ref false in
      for f = 1 to 4 do
        for m = 1 to 4 do
          let r_f = random_rates.(f - 1) and r_m = random_rates.(m - 1) in
          let got = Fairness.exact_h log ~f ~m ~r_f ~r_m ~until
          and want = Oracle_model.exact_h log ~f ~m ~r_f ~r_m ~until in
          if got > 0.0 then positive := true;
          if Int64.bits_of_float got <> Int64.bits_of_float want then
            QCheck.Test.fail_reportf "flows (%d,%d): exact_h %h, model %h" f m got want
        done
      done;
      if !positive then incr positive_h_cases;
      true)

(* The property above is vacuous unless the logs give nonzero H. *)
let test_exact_h_cases_positive () =
  Printf.printf "exact_h > 0 for some pair in %d of 500 logs\n" !positive_h_cases;
  check_bool "some logs give H > 0" true (!positive_h_cases > 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "analysis"
    [
      ( "service_log",
        [
          Alcotest.test_case "completions" `Quick test_completions_recorded;
          Alcotest.test_case "busy intervals" `Quick test_busy_intervals;
          Alcotest.test_case "open interval" `Quick test_busy_interval_still_open;
          Alcotest.test_case "window semantics" `Quick test_service_window_semantics;
          Alcotest.test_case "manual recording" `Quick test_manual_log_matches_attached;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "intersect" `Quick test_intersect_intervals;
          Alcotest.test_case "alternating tight" `Quick test_exact_h_alternating_is_tight;
          Alcotest.test_case "starved flow" `Quick test_exact_h_starved_flow;
          Alcotest.test_case "no overlap" `Quick test_exact_h_no_overlap_is_zero;
          Alcotest.test_case "approx vs exact" `Quick test_approx_close_to_exact;
          Alcotest.test_case "approx/exact alternating" `Quick
            test_approx_exact_agree_alternating;
          q prop_approx_within_one_packet_of_exact;
          Alcotest.test_case "weights scale" `Quick test_weights_scale_h;
          Alcotest.test_case "throughput" `Quick test_throughput;
          Alcotest.test_case "max pairwise" `Quick test_max_pairwise;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xe4 |])
            prop_exact_h_matches_model;
          Alcotest.test_case "exact_h model cases non-vacuous" `Quick
            test_exact_h_cases_positive;
        ] );
    ]
