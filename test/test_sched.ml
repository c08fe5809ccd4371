(* Tests for sfq.sched: Tag_queue, Flow_queues, FIFO, WRR, DRR, the GPS
   fluid clock, WFQ (both clocks), FQS, SCFQ, EAT, Virtual Clock and
   Delay EDD — plus generic conservation/per-flow-FIFO properties run
   against every discipline. *)

open Sfq_base
open Sfq_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let pkt ?rate ~flow ~seq ~len () = Packet.make ?rate ~flow ~seq ~len ~born:0.0 ()

let flow_seq p = (p.Packet.flow, p.Packet.seq)

(* ------------------------------------------------------------------ *)
(* Tag_queue                                                            *)

let test_tag_queue_order () =
  let q = Tag_queue.create () in
  Tag_queue.push q ~tag:3.0 (pkt ~flow:1 ~seq:1 ~len:1 ());
  Tag_queue.push q ~tag:1.0 (pkt ~flow:2 ~seq:1 ~len:1 ());
  Tag_queue.push q ~tag:2.0 (pkt ~flow:3 ~seq:1 ~len:1 ());
  let pop () = match Tag_queue.pop q with Some (_, p) -> p.Packet.flow | None -> -1 in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list int)) "tag order" [ 2; 3; 1 ] [ first; second; third ]

let test_tag_queue_fifo_ties () =
  let q = Tag_queue.create () in
  Tag_queue.push q ~tag:1.0 (pkt ~flow:1 ~seq:1 ~len:1 ());
  Tag_queue.push q ~tag:1.0 (pkt ~flow:2 ~seq:1 ~len:1 ());
  check_bool "arrival tie-break" true
    (match Tag_queue.pop q with Some (_, p) -> p.Packet.flow = 1 | None -> false)

let test_tag_queue_low_rate_tie () =
  let w = function 1 -> 100.0 | _ -> 1.0 in
  let q = Tag_queue.create ~tie:(Tag_queue.Low_rate w) () in
  Tag_queue.push q ~tag:1.0 (pkt ~flow:1 ~seq:1 ~len:1 ());
  Tag_queue.push q ~tag:1.0 (pkt ~flow:2 ~seq:1 ~len:1 ());
  check_bool "low-rate flow preferred on tie" true
    (match Tag_queue.pop q with Some (_, p) -> p.Packet.flow = 2 | None -> false)

let test_tag_queue_high_rate_tie () =
  let w = function 1 -> 100.0 | _ -> 1.0 in
  let q = Tag_queue.create ~tie:(Tag_queue.High_rate w) () in
  Tag_queue.push q ~tag:1.0 (pkt ~flow:2 ~seq:1 ~len:1 ());
  Tag_queue.push q ~tag:1.0 (pkt ~flow:1 ~seq:1 ~len:1 ());
  check_bool "high-rate flow preferred on tie" true
    (match Tag_queue.pop q with Some (_, p) -> p.Packet.flow = 1 | None -> false)

let test_tag_queue_backlog () =
  let q = Tag_queue.create () in
  Tag_queue.push q ~tag:1.0 (pkt ~flow:1 ~seq:1 ~len:1 ());
  Tag_queue.push q ~tag:2.0 (pkt ~flow:1 ~seq:2 ~len:1 ());
  check_int "backlog" 2 (Tag_queue.backlog q 1);
  ignore (Tag_queue.pop q);
  check_int "after pop" 1 (Tag_queue.backlog q 1);
  check_int "other flow" 0 (Tag_queue.backlog q 2)

let test_tag_queue_peek () =
  let q = Tag_queue.create () in
  Tag_queue.push q ~tag:2.0 (pkt ~flow:1 ~seq:1 ~len:1 ());
  Tag_queue.push q ~tag:1.0 (pkt ~flow:2 ~seq:1 ~len:1 ());
  (match Tag_queue.peek q with
  | Some (tag, p) ->
    check_float "peek tag" 1.0 tag;
    check_int "peek flow" 2 p.Packet.flow
  | None -> Alcotest.fail "expected peek");
  check_int "size unchanged" 2 (Tag_queue.size q)

(* ------------------------------------------------------------------ *)
(* Flow_queues                                                          *)

let test_flow_queues_fifo () =
  let fq = Flow_queues.create () in
  Flow_queues.push fq (pkt ~flow:1 ~seq:1 ~len:1 ());
  Flow_queues.push fq (pkt ~flow:1 ~seq:2 ~len:1 ());
  Flow_queues.push fq (pkt ~flow:2 ~seq:1 ~len:1 ());
  check_int "size" 3 (Flow_queues.size fq);
  check_int "backlog" 2 (Flow_queues.backlog fq 1);
  check_bool "head" true
    (match Flow_queues.head fq 1 with Some p -> p.Packet.seq = 1 | None -> false);
  check_bool "pop fifo" true
    (match Flow_queues.pop fq 1 with Some p -> p.Packet.seq = 1 | None -> false);
  check_bool "flow 2 nonempty" false (Flow_queues.flow_is_empty fq 2);
  check_bool "pop empty flow" true (Flow_queues.pop fq 3 = None)

(* ------------------------------------------------------------------ *)
(* Flow_heap                                                            *)

let test_flow_heap_ring_wraparound () =
  (* The per-flow ring starts at 8 slots; popping 5 then refilling
     makes the live region wrap the physical array, and the next
     doubling has to unwrap it. Drain order must stay push order. *)
  let fh = Flow_heap.create () in
  let pushed = ref [] in
  let popped = ref [] in
  let next = ref 0 in
  let push n =
    for _ = 1 to n do
      incr next;
      pushed := !next :: !pushed;
      Flow_heap.push fh ~flow:7 ~key:(float_of_int !next) ~tie:0.0 !next
    done
  in
  let pop n =
    for _ = 1 to n do
      match Flow_heap.pop fh with
      | Some e -> popped := e.Flow_heap.value :: !popped
      | None -> Alcotest.fail "unexpected empty"
    done
  in
  push 8;
  pop 5;
  push 12;
  check_int "size" 15 (Flow_heap.size fh);
  check_int "backlog" 15 (Flow_heap.backlog fh 7);
  pop 15;
  check_bool "empty" true (Flow_heap.is_empty fh);
  Alcotest.(check (list int)) "fifo across wrap + growth" (List.rev !pushed)
    (List.rev !popped)

let flow_heap_ops_gen =
  (* [Some (flow, key increment)] pushes, [None] pops. Increments keep
     per-flow keys non-decreasing, as the precondition requires. *)
  QCheck.Gen.(list_size (1 -- 120) (option (pair (1 -- 3) (0 -- 5))))

let flow_heap_ops_print =
  QCheck.Print.(list (option (pair int int)))

let prop_flow_heap_single_flow_fifo =
  QCheck.Test.make ~name:"flow_heap: single flow is a FIFO" ~count:200
    (QCheck.make flow_heap_ops_gen ~print:flow_heap_ops_print)
    (fun ops ->
      let fh = Flow_heap.create () in
      let model = Queue.create () in
      let key = ref 0 in
      let uid = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some (_, inc) ->
            key := !key + inc;
            incr uid;
            Flow_heap.push fh ~flow:1 ~key:(float_of_int !key) ~tie:0.0 !uid;
            Queue.push !uid model
          | None -> (
            match (Flow_heap.pop fh, Queue.is_empty model) with
            | None, true -> ()
            | Some e, false ->
              if e.Flow_heap.value <> Queue.pop model then ok := false
            | _ -> ok := false))
        ops;
      !ok && Flow_heap.size fh = Queue.length model)

(* Ops for the global-order model: push (flow, key increment), pop, and
   eviction from the front or the back of a flow's queue. An eviction
   names flow 0 half the time, which stands for the flow [peek] names:
   its entry is the heap root, the case [heap_remove] takes without a
   scan. *)
type flow_heap_op = Push of int * int | Pop | Evict_front of int | Evict_back of int

let flow_heap_model_gen =
  QCheck.Gen.(
    let victim = oneof [ return 0; 1 -- 3 ] in
    list_size (1 -- 120)
      (frequency
         [
           (4, map2 (fun flow inc -> Push (flow, inc)) (1 -- 3) (0 -- 5));
           (2, return Pop);
           (1, map (fun f -> Evict_front f) victim);
           (1, map (fun f -> Evict_back f) victim);
         ]))

let flow_heap_model_print =
  QCheck.Print.list (function
    | Push (flow, inc) -> Printf.sprintf "push %d +%d" flow inc
    | Pop -> "pop"
    | Evict_front f -> Printf.sprintf "evict_front %d" f
    | Evict_back f -> Printf.sprintf "evict_back %d" f)

let prop_flow_heap_matches_global_heap =
  (* Pop order must be ascending (key, tie, uid) over everything
     queued — exactly what one global heap over all entries gives —
     and an eviction takes the named flow's oldest (front) or newest
     (back) entry, whichever heap slot the flow sits in. *)
  QCheck.Test.make ~name:"flow_heap: pops = global (key, tie, uid) order" ~count:200
    (QCheck.make flow_heap_model_gen ~print:flow_heap_model_print)
    (fun ops ->
      let fh = Flow_heap.create () in
      let keys = Hashtbl.create 4 in
      let model = ref [] in
      let uid = ref (-1) in
      let ok = ref true in
      (* the popped or evicted entry must be [expect], which then
         leaves the model *)
      let take got expect =
        match (got, expect) with
        | None, None -> ()
        | Some e, Some ((k, _, u) as entry) ->
          if e.Flow_heap.key <> k || e.Flow_heap.uid <> u
             || e.Flow_heap.value <> u
             || e.Flow_heap.aux <> k +. 1.0
          then ok := false
          else model := List.filter (fun x -> x <> entry) !model
        | _ -> ok := false
      in
      let victim f =
        if f <> 0 then f
        else match Flow_heap.peek fh with Some e -> e.Flow_heap.flow | None -> 1
      in
      (* a flow's entries in uid order: its queue, front first *)
      let queue_of flow =
        List.sort (fun (_, _, a) (_, _, b) -> compare a b)
          (List.filter (fun (_, tie, _) -> tie = float_of_int flow) !model)
      in
      List.iter
        (fun op ->
          match op with
          | Push (flow, inc) ->
            let k = (try Hashtbl.find keys flow with Not_found -> 0) + inc in
            Hashtbl.replace keys flow k;
            incr uid;
            let key = float_of_int k and tie = float_of_int flow in
            Flow_heap.push fh ~flow ~key ~aux:(key +. 1.0) ~tie !uid;
            model := (key, tie, !uid) :: !model
          | Pop ->
            let expect =
              match List.sort compare !model with [] -> None | min :: _ -> Some min
            in
            take (Flow_heap.pop fh) expect
          | Evict_front f ->
            let flow = victim f in
            let expect = match queue_of flow with [] -> None | front :: _ -> Some front in
            take (Flow_heap.evict_front fh flow) expect
          | Evict_back f ->
            let flow = victim f in
            let expect =
              match List.rev (queue_of flow) with [] -> None | back :: _ -> Some back
            in
            take (Flow_heap.evict_back fh flow) expect)
        ops;
      !ok && Flow_heap.size fh = List.length !model)

(* ------------------------------------------------------------------ *)
(* Generic discipline properties                                       *)

(* Scenario: a list of (flow, len) injected at t = 0.1 * i, with all
   dequeues at the end. Checks: conservation (exact multiset) and
   per-flow FIFO. *)
let conservation_scenario sched ops =
  let seqs = Hashtbl.create 8 in
  let injected = ref [] in
  List.iteri
    (fun i (flow, len) ->
      let seq = (try Hashtbl.find seqs flow with Not_found -> 0) + 1 in
      Hashtbl.replace seqs flow seq;
      let p = Packet.make ~flow ~seq ~len ~born:(0.1 *. float_of_int i) () in
      injected := flow_seq p :: !injected;
      sched.Sched.enqueue ~now:p.Packet.born p)
    ops;
  let drained = Sched.drain sched ~now:1000.0 in
  let out = List.map flow_seq drained in
  let conserved = List.sort compare out = List.sort compare !injected in
  let per_flow_fifo =
    let last = Hashtbl.create 8 in
    List.for_all
      (fun (flow, seq) ->
        let prev = try Hashtbl.find last flow with Not_found -> 0 in
        Hashtbl.replace last flow seq;
        seq = prev + 1)
      out
  in
  conserved && per_flow_fifo

let disciplines () =
  let w = Weights.of_list ~default:1.0 [ (1, 1.0); (2, 2.0); (3, 0.5); (4, 4.0) ] in
  [
    ("fifo", Fifo.sched (Fifo.create ()));
    ("wrr", Wrr.sched (Wrr.create w));
    ("drr", Drr.sched (Drr.create ~quantum:700.0 w));
    ("wfq-fluid", Wfq.sched (Wfq.create ~capacity:1000.0 w));
    ("wfq-real", Wfq.sched (Wfq.create ~capacity:1000.0 ~clock:`Real w));
    ("fqs", Fqs.sched (Fqs.create ~capacity:1000.0 w));
    ("scfq", Scfq.sched (Scfq.create w));
    ("virtual-clock", Virtual_clock.sched (Virtual_clock.create w));
    ("sfq", Sfq_core.Sfq.sched (Sfq_core.Sfq.create w));
    ("fair-airport", Sfq_core.Fair_airport.sched (Sfq_core.Fair_airport.create w));
  ]

let ops_gen =
  QCheck.Gen.(
    list_size (1 -- 60) (pair (1 -- 4) (map (fun n -> 1 + (n mod 1000)) small_nat)))

let prop_conservation name make_sched =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: conservation + per-flow FIFO" name)
    ~count:150
    (QCheck.make ops_gen ~print:QCheck.Print.(list (pair int int)))
    (fun ops -> conservation_scenario (make_sched ()) ops)

let conservation_tests =
  List.map
    (fun (name, _) ->
      prop_conservation name (fun () -> List.assoc name (disciplines ())))
    (disciplines ())

(* Peek agrees with the next dequeue for every discipline. *)
let prop_peek_consistent name =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: peek = next dequeue" name)
    ~count:100
    (QCheck.make ops_gen ~print:QCheck.Print.(list (pair int int)))
    (fun ops ->
      let sched = List.assoc name (disciplines ()) in
      let seqs = Hashtbl.create 8 in
      List.iteri
        (fun i (flow, len) ->
          let seq = (try Hashtbl.find seqs flow with Not_found -> 0) + 1 in
          Hashtbl.replace seqs flow seq;
          sched.Sched.enqueue ~now:(0.1 *. float_of_int i)
            (Packet.make ~flow ~seq ~len ~born:0.0 ()))
        ops;
      let rec check () =
        let peeked = sched.Sched.peek () in
        let popped = sched.Sched.dequeue ~now:1000.0 in
        match (peeked, popped) with
        | None, None -> true
        | Some a, Some b -> flow_seq a = flow_seq b && check ()
        | _ -> false
      in
      check ())

let peek_tests =
  (* Fair Airport's peek is documented as best-effort under pending
     regulator releases; exclude it here (its own suite covers it). *)
  List.filter_map
    (fun (name, _) -> if name = "fair-airport" then None else Some (prop_peek_consistent name))
    (disciplines ())

(* ------------------------------------------------------------------ *)
(* WRR                                                                  *)

let test_wrr_round_robin () =
  let w = Weights.uniform 1.0 in
  let s = Wrr.create w in
  List.iter
    (fun (flow, seq) -> Wrr.enqueue s ~now:0.0 (pkt ~flow ~seq ~len:10 ()))
    [ (1, 1); (1, 2); (2, 1); (2, 2) ];
  let order = List.map (fun p -> p.Packet.flow) (Sched.drain (Wrr.sched s) ~now:0.0) in
  Alcotest.(check (list int)) "alternates" [ 1; 2; 1; 2 ] order

let test_wrr_credits_proportional () =
  let w = Weights.of_list [ (1, 3.0); (2, 1.0) ] in
  let s = Wrr.create w in
  for seq = 1 to 6 do
    Wrr.enqueue s ~now:0.0 (pkt ~flow:1 ~seq ~len:10 ())
  done;
  for seq = 1 to 2 do
    Wrr.enqueue s ~now:0.0 (pkt ~flow:2 ~seq ~len:10 ())
  done;
  let order = List.map (fun p -> p.Packet.flow) (Sched.drain (Wrr.sched s) ~now:0.0) in
  (* Flow 1 sends 3 per round, flow 2 sends 1. *)
  Alcotest.(check (list int)) "3:1 rounds" [ 1; 1; 1; 2; 1; 1; 1; 2 ] order

let test_wrr_skips_empty () =
  let s = Wrr.create (Weights.uniform 1.0) in
  Wrr.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
  check_bool "deq" true (Wrr.dequeue s ~now:0.0 <> None);
  check_bool "empty" true (Wrr.dequeue s ~now:0.0 = None);
  Wrr.enqueue s ~now:1.0 (pkt ~flow:2 ~seq:1 ~len:10 ());
  check_bool "next flow served" true
    (match Wrr.dequeue s ~now:1.0 with Some p -> p.Packet.flow = 2 | None -> false)

(* ------------------------------------------------------------------ *)
(* DRR                                                                  *)

let test_drr_equal_weights_byte_fair () =
  (* Flow 1 sends 500-bit packets, flow 2 sends 1000-bit packets; with
     equal weights DRR must serve roughly equal BYTES per round, i.e.
     two flow-1 packets per flow-2 packet. *)
  let w = Weights.uniform 1.0 in
  let s = Drr.create ~quantum:1000.0 w in
  for seq = 1 to 8 do
    Drr.enqueue s ~now:0.0 (pkt ~flow:1 ~seq ~len:500 ())
  done;
  for seq = 1 to 4 do
    Drr.enqueue s ~now:0.0 (pkt ~flow:2 ~seq ~len:1000 ())
  done;
  let order = List.map (fun p -> p.Packet.flow) (Sched.drain (Drr.sched s) ~now:0.0) in
  Alcotest.(check (list int)) "2:1 packets = equal bytes"
    [ 1; 1; 2; 1; 1; 2; 1; 1; 2; 1; 1; 2 ]
    order

let test_drr_deficit_carries_over () =
  (* Quantum 600 < packet 1000: flow needs two rounds per packet. *)
  let w = Weights.uniform 1.0 in
  let s = Drr.create ~quantum:600.0 w in
  Drr.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:1000 ());
  Drr.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:100 ());
  let order =
    List.map (fun p -> (p.Packet.flow, p.Packet.seq)) (Sched.drain (Drr.sched s) ~now:0.0)
  in
  (* Flow 1's head does not fit in 600; flow 2's does; flow 1 sends on
     its second visit. *)
  Alcotest.(check (list (pair int int))) "carry-over" [ (2, 1); (1, 1) ] order

let test_drr_deficit_reset_on_empty () =
  let w = Weights.uniform 1.0 in
  let s = Drr.create ~quantum:1000.0 w in
  Drr.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:100 ());
  ignore (Drr.dequeue s ~now:0.0);
  check_float "deficit reset" 0.0 (Drr.deficit s 1)

let test_drr_weighted_quantum () =
  let w = Weights.of_list [ (1, 2.0); (2, 1.0) ] in
  let s = Drr.create ~quantum:1000.0 w in
  for seq = 1 to 4 do
    Drr.enqueue s ~now:0.0 (pkt ~flow:1 ~seq ~len:1000 ());
    Drr.enqueue s ~now:0.0 (pkt ~flow:2 ~seq ~len:1000 ())
  done;
  let order = List.map (fun p -> p.Packet.flow) (Sched.drain (Drr.sched s) ~now:0.0) in
  Alcotest.(check (list int)) "2:1 service" [ 1; 1; 2; 1; 1; 2; 2; 2 ] order

let test_drr_invalid_quantum () =
  Alcotest.check_raises "quantum" (Invalid_argument "Drr.create: quantum must be positive")
    (fun () -> ignore (Drr.create ~quantum:0.0 (Weights.uniform 1.0)))

let prop_drr_deficit_bounded =
  (* Whenever a flow is backlogged, 0 <= deficit < quantum*w + lmax. *)
  QCheck.Test.make ~name:"drr: deficit invariant" ~count:150
    (QCheck.make ops_gen ~print:QCheck.Print.(list (pair int int)))
    (fun ops ->
      let w = Weights.uniform 1.0 in
      let s = Drr.create ~quantum:800.0 w in
      let seqs = Hashtbl.create 8 in
      List.iter
        (fun (flow, len) ->
          let seq = (try Hashtbl.find seqs flow with Not_found -> 0) + 1 in
          Hashtbl.replace seqs flow seq;
          Drr.enqueue s ~now:0.0 (pkt ~flow ~seq ~len ()))
        ops;
      let ok = ref true in
      let rec drain () =
        (match Drr.dequeue s ~now:0.0 with
        | Some _ ->
          List.iter
            (fun flow ->
              let d = Drr.deficit s flow in
              if d < 0.0 || d >= 800.0 +. 1000.0 then ok := false)
            [ 1; 2; 3; 4 ];
          drain ()
        | None -> ())
      in
      drain ();
      !ok)

let prop_drr_deficit_bounded_weighted =
  (* The mli's promise with non-uniform weights: whenever flow f is
     backlogged, 0 <= deficit f < quantum*w_f + lmax; and a drained
     flow's counter is reset to 0. *)
  QCheck.Test.make ~name:"drr: weighted deficit invariant" ~count:150
    (QCheck.make ops_gen ~print:QCheck.Print.(list (pair int int)))
    (fun ops ->
      let weights = [ (1, 0.5); (2, 1.0); (3, 2.0); (4, 4.0) ] in
      let quantum = 600.0 in
      let s = Drr.create ~quantum (Weights.of_list ~default:1.0 weights) in
      let seqs = Hashtbl.create 8 in
      List.iter
        (fun (flow, len) ->
          let seq = (try Hashtbl.find seqs flow with Not_found -> 0) + 1 in
          Hashtbl.replace seqs flow seq;
          Drr.enqueue s ~now:0.0 (pkt ~flow ~seq ~len ()))
        ops;
      let ok = ref true in
      let rec drain () =
        match Drr.dequeue s ~now:0.0 with
        | Some _ ->
          List.iter
            (fun (flow, wf) ->
              let d = Drr.deficit s flow in
              if Drr.backlog s flow > 0 && (d < 0.0 || d >= (quantum *. wf) +. 1000.0)
              then ok := false)
            weights;
          drain ()
        | None -> ()
      in
      drain ();
      List.iter (fun (flow, _) -> if Drr.deficit s flow <> 0.0 then ok := false) weights;
      !ok)

(* ------------------------------------------------------------------ *)
(* GPS fluid clock                                                      *)

let test_gps_single_flow_slope () =
  (* One backlogged flow of weight r: dv/dt = C/r. *)
  let w = Weights.uniform 2.0 in
  let gps = Gps.create ~capacity:10.0 w in
  let _ = Gps.on_arrival gps ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:100 ()) in
  (* Flow stays fluid-backlogged until v = 100/2 = 50, i.e. t = 10. *)
  check_float "v(1)" 5.0 (Gps.vtime gps ~now:1.0);
  check_float "v(4)" 20.0 (Gps.vtime gps ~now:4.0)

let test_gps_two_flow_slope () =
  let w = Weights.uniform 1.0 in
  let gps = Gps.create ~capacity:10.0 w in
  let _ = Gps.on_arrival gps ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:1000 ()) in
  let _ = Gps.on_arrival gps ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:1000 ()) in
  (* Two unit-weight flows: dv/dt = 10/2 = 5. *)
  check_float "v(2)" 10.0 (Gps.vtime gps ~now:2.0)

let test_gps_departure_changes_slope () =
  let w = Weights.uniform 1.0 in
  let gps = Gps.create ~capacity:10.0 w in
  let _ = Gps.on_arrival gps ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ()) in
  let _ = Gps.on_arrival gps ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:100 ()) in
  (* Both backlogged: slope 5 until v = 10 (flow 1 leaves) at t = 2;
     then slope 10: v(3) = 20. *)
  check_float "v(3)" 20.0 (Gps.vtime gps ~now:3.0);
  check_int "one flow left" 1 (Gps.backlogged_flows gps)

let test_gps_busy_period_reset () =
  let w = Weights.uniform 1.0 in
  let gps = Gps.create ~capacity:10.0 w in
  let _, f1 = Gps.on_arrival gps ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ()) in
  check_float "first finish" 10.0 f1;
  (* Fluid empties at t=1; next arrival at t=5 starts a new busy
     period with v=0 and fresh tags. *)
  let s2, f2 = Gps.on_arrival gps ~now:5.0 (pkt ~flow:1 ~seq:2 ~len:10 ()) in
  check_float "start resets" 0.0 s2;
  check_float "finish resets" 10.0 f2

let test_gps_tags_eq_1_2 () =
  (* Eqs. 1-2: S = max(v(A), F_prev); F = S + l/r. *)
  let w = Weights.uniform 2.0 in
  let gps = Gps.create ~capacity:4.0 w in
  let s1, f1 = Gps.on_arrival gps ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:8 ()) in
  check_float "S1" 0.0 s1;
  check_float "F1" 4.0 f1;
  (* Same instant, same flow: S = F_prev. *)
  let s2, f2 = Gps.on_arrival gps ~now:0.0 (pkt ~flow:1 ~seq:2 ~len:8 ()) in
  check_float "S2 = F1" 4.0 s2;
  check_float "F2" 8.0 f2

let test_gps_example2_vtime () =
  (* Example 2 with C = 10 (packets of 1000 bits, weight 1000): flow f
     dumps C+1 packets at 0; v(1) must be C. *)
  let c = 10.0 in
  let w = Weights.uniform 1000.0 in
  let gps = Gps.create ~capacity:(c *. 1000.0) w in
  for seq = 1 to 11 do
    let _ = Gps.on_arrival gps ~now:0.0 (pkt ~flow:1 ~seq ~len:1000 ()) in
    ()
  done;
  check_float "v(1) = C" c (Gps.vtime gps ~now:1.0)

(* ------------------------------------------------------------------ *)
(* WFQ / FQS ordering                                                   *)

let test_wfq_orders_by_finish () =
  (* Two flows, weight 1 and 2, same-length packets at t=0: the
     heavier flow's finish tags are half as large. *)
  let w = Weights.of_list [ (1, 1.0); (2, 2.0) ] in
  let s = Wfq.create ~capacity:3.0 w in
  Wfq.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:6 ());
  Wfq.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:6 ());
  Wfq.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:2 ~len:6 ());
  (* F: flow1 -> 6; flow2 -> 3, 6. Order: 2.1, then tie (6,6) by
     arrival: 1.1 before 2.2. *)
  let order = List.map flow_seq (Sched.drain (Wfq.sched s) ~now:0.0) in
  Alcotest.(check (list (pair int int))) "finish order" [ (2, 1); (1, 1); (2, 2) ] order

let test_fqs_orders_by_start () =
  let w = Weights.of_list [ (1, 1.0); (2, 2.0) ] in
  let s = Fqs.create ~capacity:3.0 w in
  Fqs.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:6 ());
  Fqs.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:6 ());
  Fqs.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:2 ~len:6 ());
  (* S: flow1 -> 0; flow2 -> 0, 3. FQS order: 1.1 (arrival tie), 2.1,
     2.2. *)
  let order = List.map flow_seq (Sched.drain (Fqs.sched s) ~now:0.0) in
  Alcotest.(check (list (pair int int))) "start order" [ (1, 1); (2, 1); (2, 2) ] order

let test_wfq_real_clock_example2 () =
  (* v(1) = C under the practical clock too. *)
  let c = 10.0 in
  let w = Weights.uniform 1000.0 in
  let s = Wfq.create ~capacity:(c *. 1000.0) ~clock:`Real w in
  for seq = 1 to 11 do
    Wfq.enqueue s ~now:0.0 (pkt ~flow:1 ~seq ~len:1000 ())
  done;
  check_float "v(1) = C" c (Wfq.vtime s ~now:1.0)

let test_wfq_real_clock_resets_on_idle () =
  let w = Weights.uniform 1.0 in
  let s = Wfq.create ~capacity:10.0 ~clock:`Real w in
  Wfq.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
  ignore (Wfq.dequeue s ~now:0.5);
  (* Server polls an empty queue at 1.0: clock restarts. *)
  check_bool "drain empty" true (Wfq.dequeue s ~now:1.0 = None);
  check_float "v resets" 0.0 (Wfq.vtime s ~now:2.0)

(* ------------------------------------------------------------------ *)
(* SCFQ                                                                 *)

let test_scfq_tags_and_vtime () =
  let w = Weights.uniform 2.0 in
  let s = Scfq.create w in
  Scfq.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:8 ());
  Scfq.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:4 ());
  check_float "v initially 0" 0.0 (Scfq.vtime s);
  (* F: flow1 -> 4, flow2 -> 2. Pop flow2 first; v becomes its finish
     tag. *)
  (match Scfq.dequeue s ~now:0.0 with
  | Some p -> check_int "flow2 first" 2 p.Packet.flow
  | None -> Alcotest.fail "expected packet");
  check_float "v = finish of in-service" 2.0 (Scfq.vtime s)

let test_scfq_arrival_inherits_vtime () =
  let w = Weights.uniform 1.0 in
  let s = Scfq.create w in
  Scfq.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
  ignore (Scfq.dequeue s ~now:0.0);
  (* v = 10 now; a new flow's packet starts at v, not 0. *)
  Scfq.enqueue s ~now:0.1 (pkt ~flow:2 ~seq:1 ~len:10 ());
  (match Scfq.dequeue s ~now:0.1 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected packet");
  check_float "v = 10 + 10" 20.0 (Scfq.vtime s)

let test_scfq_busy_period_reset () =
  let w = Weights.uniform 1.0 in
  let s = Scfq.create w in
  Scfq.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
  ignore (Scfq.dequeue s ~now:0.0);
  check_bool "idle poll" true (Scfq.dequeue s ~now:1.0 = None);
  check_float "v reset" 0.0 (Scfq.vtime s)

(* SCFQ shares SFQ's fairness measure (Golestani's bound): check it as
   a property on random workloads over a variable-rate server. *)
let prop_scfq_fairness =
  QCheck.Test.make ~name:"scfq: H within l_f/r_f + l_m/r_m on variable-rate servers"
    ~count:40
    QCheck.(pair (int_range 1 1000) (int_range 20 60))
    (fun (seed, n) ->
      let open Sfq_netsim in
      let open Sfq_analysis in
      let rng = Sfq_util.Rng.create seed in
      let r = 10.0 in
      let weights = Weights.uniform r in
      let sim = Sim.create () in
      let rate = Rate_process.fc_random ~c:50.0 ~delta:400.0 ~seg:2.0 ~spread:40.0 ~rng in
      let server =
        Server.create sim ~name:"scfq" ~rate ~sched:(Scfq.sched (Scfq.create weights)) ()
      in
      let log = Service_log.attach server in
      let lmax = ref 0 in
      Sim.schedule sim ~at:0.0 (fun () ->
          for seq = 1 to n do
            let l1 = 100 + Sfq_util.Rng.int rng 900 in
            let l2 = 100 + Sfq_util.Rng.int rng 900 in
            lmax := Stdlib.max !lmax (Stdlib.max l1 l2);
            Server.inject server (pkt ~flow:1 ~seq ~len:l1 ());
            Server.inject server (pkt ~flow:2 ~seq ~len:l2 ())
          done);
      Sim.run_all sim ();
      let h = Fairness.exact_h log ~f:1 ~m:2 ~r_f:r ~r_m:r ~until:(Sim.now sim) in
      h <= (2.0 *. float_of_int !lmax /. r) +. 1e-6)

(* DRR long-run byte fairness: equal weights, random lengths, full
   drain — total service differs by at most one quantum + one max
   packet per flow. *)
let prop_drr_byte_fairness =
  QCheck.Test.make ~name:"drr: long-run byte fairness" ~count:100
    QCheck.(pair (list_of_size Gen.(10 -- 60) (int_range 1 1000))
              (list_of_size Gen.(10 -- 60) (int_range 1 1000)))
    (fun (lens1, lens2) ->
      let quantum = 700.0 in
      let s = Drr.create ~quantum (Weights.uniform 1.0) in
      List.iteri (fun i len -> Drr.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:(i + 1) ~len ())) lens1;
      List.iteri (fun i len -> Drr.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:(i + 1) ~len ())) lens2;
      (* Track cumulative bytes served per flow while BOTH remain
         backlogged; the imbalance is bounded by quantum + lmax. *)
      let w1 = ref 0 and w2 = ref 0 in
      let q1 = ref (List.length lens1) and q2 = ref (List.length lens2) in
      let ok = ref true in
      let rec drain () =
        match Drr.dequeue s ~now:0.0 with
        | None -> ()
        | Some p ->
          if p.Packet.flow = 1 then begin
            w1 := !w1 + p.Packet.len;
            decr q1
          end
          else begin
            w2 := !w2 + p.Packet.len;
            decr q2
          end;
          if !q1 > 0 && !q2 > 0 then begin
            if abs (!w1 - !w2) > int_of_float quantum + 1000 then ok := false
          end;
          drain ()
      in
      drain ();
      !ok)

(* ------------------------------------------------------------------ *)
(* EAT                                                                  *)

let test_eat_chain () =
  let e = Eat.create () in
  (* eq. 37: EAT(p1) = A(p1); then floor = EAT + l/r. *)
  check_float "first = arrival" 1.0 (Eat.on_arrival e ~now:1.0 ~flow:1 ~len:10 ~rate:10.0);
  (* Second arrives early: EAT = floor = 2.0. *)
  check_float "early arrival floored" 2.0
    (Eat.on_arrival e ~now:1.5 ~flow:1 ~len:10 ~rate:10.0);
  (* Third arrives late: EAT = arrival. *)
  check_float "late arrival" 10.0 (Eat.on_arrival e ~now:10.0 ~flow:1 ~len:10 ~rate:10.0)

let test_eat_flows_independent () =
  let e = Eat.create () in
  ignore (Eat.on_arrival e ~now:0.0 ~flow:1 ~len:100 ~rate:1.0);
  check_float "flow 2 unaffected" 0.0 (Eat.on_arrival e ~now:0.0 ~flow:2 ~len:1 ~rate:1.0)

let test_eat_reset () =
  let e = Eat.create () in
  ignore (Eat.on_arrival e ~now:0.0 ~flow:1 ~len:100 ~rate:1.0);
  Eat.reset_flow e 1;
  check_float "fresh after reset" 5.0 (Eat.on_arrival e ~now:5.0 ~flow:1 ~len:1 ~rate:1.0)

let test_eat_invalid_rate () =
  let e = Eat.create () in
  Alcotest.check_raises "rate" (Invalid_argument "Eat.on_arrival: rate must be positive")
    (fun () -> ignore (Eat.on_arrival e ~now:0.0 ~flow:1 ~len:1 ~rate:0.0))

(* ------------------------------------------------------------------ *)
(* Virtual Clock                                                        *)

let test_vc_orders_by_stamp () =
  let w = Weights.of_list [ (1, 1.0); (2, 2.0) ] in
  let s = Virtual_clock.create w in
  Virtual_clock.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:4 ());
  Virtual_clock.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:4 ());
  (* Stamps: flow1 -> 0+4/1 = 4; flow2 -> 0+4/2 = 2. *)
  let order = List.map (fun p -> p.Packet.flow) (Sched.drain (Virtual_clock.sched s) ~now:0.0) in
  Alcotest.(check (list int)) "stamp order" [ 2; 1 ] order

let test_vc_punishes_past_burst () =
  (* Flow 1 bursts 5 packets (stamps 1..5); flow 2 starts at t=0 too.
     After flow 1's burst is queued, flow 2's packets interleave ahead
     of flow 1's later stamps. *)
  let w = Weights.uniform 1.0 in
  let s = Virtual_clock.create w in
  for seq = 1 to 5 do
    Virtual_clock.enqueue s ~now:0.0 (pkt ~flow:1 ~seq ~len:1 ())
  done;
  Virtual_clock.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:1 ());
  let order = List.map flow_seq (Sched.drain (Virtual_clock.sched s) ~now:0.0) in
  (* Stamps: f1 -> 1,2,3,4,5; f2 -> 1 (tie with f1's first, arrival
     order favours f1). Flow 2's single packet beats f1's seq >= 2. *)
  Alcotest.(check (pair int int)) "second served is flow 2" (2, 1) (List.nth order 1)

let test_vc_rate_override () =
  let w = Weights.uniform 1.0 in
  let s = Virtual_clock.create w in
  Virtual_clock.enqueue s ~now:0.0 (pkt ~rate:4.0 ~flow:1 ~seq:1 ~len:4 ());
  Virtual_clock.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:2 ());
  (* Flow 1 stamp = 4/4 = 1 < flow 2 stamp = 2. *)
  let order = List.map (fun p -> p.Packet.flow) (Sched.drain (Virtual_clock.sched s) ~now:0.0) in
  Alcotest.(check (list int)) "override respected" [ 1; 2 ] order

(* ------------------------------------------------------------------ *)
(* Delay EDD                                                            *)

let specs =
  [
    (1, { Delay_edd.rate = 10.0; deadline = 1.0; max_len = 10 });
    (2, { Delay_edd.rate = 10.0; deadline = 5.0; max_len = 10 });
  ]

let test_edd_orders_by_deadline () =
  let s = Delay_edd.create specs in
  Delay_edd.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:10 ());
  Delay_edd.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
  (* Deadlines: flow2 -> 5; flow1 -> 1. *)
  let order = List.map (fun p -> p.Packet.flow) (Sched.drain (Delay_edd.sched s) ~now:0.0) in
  Alcotest.(check (list int)) "EDF" [ 1; 2 ] order;
  check_bool "recorded deadline" true (Delay_edd.deadline_of_last s 1 = Some 1.0)

let test_edd_deadline_uses_eat () =
  let s = Delay_edd.create specs in
  Delay_edd.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
  (* Second packet arrives immediately; EAT = 1.0, deadline 2.0. *)
  Delay_edd.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:2 ~len:10 ());
  ignore (Delay_edd.dequeue s ~now:0.0);
  ignore (Delay_edd.dequeue s ~now:0.0);
  check_bool "deadline = EAT + d" true (Delay_edd.deadline_of_last s 1 = Some 2.0)

let test_edd_undeclared_flow () =
  let s = Delay_edd.create specs in
  Alcotest.check_raises "undeclared" (Invalid_argument "Delay_edd: undeclared flow 9")
    (fun () -> Delay_edd.enqueue s ~now:0.0 (pkt ~flow:9 ~seq:1 ~len:10 ()))

let test_edd_schedulable_accepts () =
  (* Two flows at 10 b/s with generous deadlines on a 100 b/s server:
     clearly schedulable. *)
  check_bool "schedulable" true (Delay_edd.schedulable specs ~capacity:100.0 ())

let test_edd_schedulable_rejects_overload () =
  let bad = [ (1, { Delay_edd.rate = 60.0; deadline = 1.0; max_len = 10 });
              (2, { Delay_edd.rate = 60.0; deadline = 1.0; max_len = 10 }) ] in
  check_bool "over capacity" false (Delay_edd.schedulable bad ~capacity:100.0 ())

let test_edd_schedulable_rejects_tight_deadline () =
  (* Utilization is fine but the deadline is shorter than even one
     packet's transmission among competitors. *)
  let tight =
    [
      (1, { Delay_edd.rate = 40.0; deadline = 0.05; max_len = 100 });
      (2, { Delay_edd.rate = 40.0; deadline = 0.05; max_len = 100 });
    ]
  in
  check_bool "tight deadlines rejected" false
    (Delay_edd.schedulable tight ~capacity:100.0 ())

let test_edd_empty_schedulable () =
  check_bool "vacuous" true (Delay_edd.schedulable [] ~capacity:1.0 ())

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "sched"
    [
      ( "tag_queue",
        [
          Alcotest.test_case "order" `Quick test_tag_queue_order;
          Alcotest.test_case "fifo ties" `Quick test_tag_queue_fifo_ties;
          Alcotest.test_case "low-rate tie" `Quick test_tag_queue_low_rate_tie;
          Alcotest.test_case "high-rate tie" `Quick test_tag_queue_high_rate_tie;
          Alcotest.test_case "backlog" `Quick test_tag_queue_backlog;
          Alcotest.test_case "peek" `Quick test_tag_queue_peek;
        ] );
      ("flow_queues", [ Alcotest.test_case "fifo" `Quick test_flow_queues_fifo ]);
      ( "flow_heap",
        [
          Alcotest.test_case "ring wraparound" `Quick test_flow_heap_ring_wraparound;
          q prop_flow_heap_single_flow_fifo;
          q prop_flow_heap_matches_global_heap;
        ] );
      ("conservation", List.map q conservation_tests);
      ("peek", List.map q peek_tests);
      ( "wrr",
        [
          Alcotest.test_case "round robin" `Quick test_wrr_round_robin;
          Alcotest.test_case "credits proportional" `Quick test_wrr_credits_proportional;
          Alcotest.test_case "skips empty" `Quick test_wrr_skips_empty;
        ] );
      ( "drr",
        [
          Alcotest.test_case "byte fair" `Quick test_drr_equal_weights_byte_fair;
          Alcotest.test_case "deficit carries" `Quick test_drr_deficit_carries_over;
          Alcotest.test_case "deficit reset" `Quick test_drr_deficit_reset_on_empty;
          Alcotest.test_case "weighted quantum" `Quick test_drr_weighted_quantum;
          Alcotest.test_case "invalid quantum" `Quick test_drr_invalid_quantum;
          q prop_drr_deficit_bounded;
          q prop_drr_deficit_bounded_weighted;
          q prop_drr_byte_fairness;
        ] );
      ( "gps",
        [
          Alcotest.test_case "single flow slope" `Quick test_gps_single_flow_slope;
          Alcotest.test_case "two flow slope" `Quick test_gps_two_flow_slope;
          Alcotest.test_case "departure changes slope" `Quick test_gps_departure_changes_slope;
          Alcotest.test_case "busy period reset" `Quick test_gps_busy_period_reset;
          Alcotest.test_case "tags eqs 1-2" `Quick test_gps_tags_eq_1_2;
          Alcotest.test_case "example 2 vtime" `Quick test_gps_example2_vtime;
        ] );
      ( "wfq_fqs",
        [
          Alcotest.test_case "wfq finish order" `Quick test_wfq_orders_by_finish;
          Alcotest.test_case "fqs start order" `Quick test_fqs_orders_by_start;
          Alcotest.test_case "real clock example 2" `Quick test_wfq_real_clock_example2;
          Alcotest.test_case "real clock idle reset" `Quick test_wfq_real_clock_resets_on_idle;
        ] );
      ( "scfq",
        [
          Alcotest.test_case "tags and vtime" `Quick test_scfq_tags_and_vtime;
          Alcotest.test_case "arrival inherits vtime" `Quick test_scfq_arrival_inherits_vtime;
          Alcotest.test_case "busy period reset" `Quick test_scfq_busy_period_reset;
          q prop_scfq_fairness;
        ] );
      ( "eat",
        [
          Alcotest.test_case "chain" `Quick test_eat_chain;
          Alcotest.test_case "flows independent" `Quick test_eat_flows_independent;
          Alcotest.test_case "reset" `Quick test_eat_reset;
          Alcotest.test_case "invalid rate" `Quick test_eat_invalid_rate;
        ] );
      ( "virtual_clock",
        [
          Alcotest.test_case "stamp order" `Quick test_vc_orders_by_stamp;
          Alcotest.test_case "punishes burst" `Quick test_vc_punishes_past_burst;
          Alcotest.test_case "rate override" `Quick test_vc_rate_override;
        ] );
      ( "delay_edd",
        [
          Alcotest.test_case "EDF order" `Quick test_edd_orders_by_deadline;
          Alcotest.test_case "deadline uses EAT" `Quick test_edd_deadline_uses_eat;
          Alcotest.test_case "undeclared flow" `Quick test_edd_undeclared_flow;
          Alcotest.test_case "schedulable accepts" `Quick test_edd_schedulable_accepts;
          Alcotest.test_case "rejects overload" `Quick test_edd_schedulable_rejects_overload;
          Alcotest.test_case "rejects tight deadline" `Quick test_edd_schedulable_rejects_tight_deadline;
          Alcotest.test_case "empty schedulable" `Quick test_edd_empty_schedulable;
        ] );
    ]
