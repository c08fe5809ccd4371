(* Overload & churn robustness: the finite-buffer drop policies, the
   dynamic flow lifecycle, and the capacity hygiene of every structure
   recycling leans on.

   The directed cases pin each Buffered policy's exact victim choice;
   the qcheck properties check the laws that must survive any
   interleaving: budgets are never exceeded, drops only fire at a
   saturated budget, conservation (enqueued = departed + dropped +
   backlogged) holds for all nine disciplines under random
   churn/overload/rate-fluctuation workloads, and a closed-then-reopened
   flow re-enters at S = v(t) (eq. 4 with the finish tag forgotten). *)

open Sfq_util
open Sfq_base
open Sfq_sched
open Sfq_core
open Sfq_oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pkt ?(len = 1000) flow seq = Packet.make ~flow ~seq ~len ~born:0.0 ()

(* A buffered SFQ (equal weights) recording every drop. *)
let buffered ?per_flow ?aggregate ~policy () =
  let s = Sfq.create (Weights.of_list ~default:1.0 []) in
  let drops = ref [] in
  let on_drop ~now:_ ~reason p = drops := (reason, p) :: !drops in
  let b =
    Buffered.wrap ~on_drop (Buffered.config ?per_flow ?aggregate ~policy ()) (Sfq.sched s)
  in
  (Buffered.sched b, Sfq.sched s, drops)

let drop_list drops = List.rev !drops

(* ------------------------------------------------------------------ *)
(* Directed policy semantics *)

let test_drop_tail_per_flow () =
  let v, inner, drops = buffered ~per_flow:2 ~policy:Buffered.Drop_tail () in
  List.iter (fun s -> v.Sched.enqueue ~now:0.0 (pkt 1 s)) [ 1; 2; 3 ];
  check_int "flow stays at budget" 2 (inner.Sched.backlog 1);
  (match drop_list drops with
  | [ (Buffered.Rejected, p) ] -> check_int "arrival itself refused" 3 p.Packet.seq
  | _ -> Alcotest.fail "expected exactly one Rejected drop");
  (* below budget: no drop *)
  ignore (v.Sched.dequeue ~now:0.0);
  v.Sched.enqueue ~now:0.0 (pkt 1 4);
  check_int "re-admitted after service freed a slot" 1 (List.length !drops)

let test_drop_front_per_flow () =
  let v, inner, drops = buffered ~per_flow:2 ~policy:Buffered.Drop_front () in
  List.iter (fun s -> v.Sched.enqueue ~now:0.0 (pkt 1 s)) [ 1; 2; 3 ];
  check_int "flow stays at budget" 2 (inner.Sched.backlog 1);
  (match drop_list drops with
  | [ (Buffered.Evicted, p) ] -> check_int "oldest packet evicted" 1 p.Packet.seq
  | _ -> Alcotest.fail "expected exactly one Evicted drop");
  let seqs =
    List.init 2 (fun _ ->
        match v.Sched.dequeue ~now:0.0 with Some p -> p.Packet.seq | None -> -1)
  in
  Alcotest.(check (list int)) "survivors serve in order" [ 2; 3 ] seqs

let test_longest_queue_per_flow_rejects () =
  (* the arrival is its own flow's newest packet, so LQF refuses it *)
  let v, inner, drops = buffered ~per_flow:2 ~policy:Buffered.Longest_queue () in
  List.iter (fun s -> v.Sched.enqueue ~now:0.0 (pkt 1 s)) [ 1; 2; 3 ];
  check_int "flow stays at budget" 2 (inner.Sched.backlog 1);
  match drop_list drops with
  | [ (Buffered.Rejected, p) ] -> check_int "newest = the arrival" 3 p.Packet.seq
  | _ -> Alcotest.fail "expected exactly one Rejected drop"

let test_drop_front_aggregate_evicts_next_to_depart () =
  let v, inner, drops = buffered ~aggregate:2 ~policy:Buffered.Drop_front () in
  v.Sched.enqueue ~now:0.0 (pkt 1 1);
  v.Sched.enqueue ~now:0.0 (pkt 2 1);
  v.Sched.enqueue ~now:0.0 (pkt 3 1);
  check_int "aggregate stays at budget" 2 (inner.Sched.size ());
  (match drop_list drops with
  | [ (Buffered.Evicted, p) ] -> check_int "head-of-line flow pays" 1 p.Packet.flow
  | _ -> Alcotest.fail "expected exactly one Evicted drop");
  let flows =
    List.init 2 (fun _ ->
        match v.Sched.dequeue ~now:0.0 with Some p -> p.Packet.flow | None -> -1)
  in
  Alcotest.(check (list int)) "flow 1's slot went to flow 3" [ 2; 3 ] flows

let test_longest_queue_aggregate_evicts_newest_of_longest () =
  let v, inner, drops = buffered ~aggregate:3 ~policy:Buffered.Longest_queue () in
  v.Sched.enqueue ~now:0.0 (pkt 1 1);
  v.Sched.enqueue ~now:0.0 (pkt 1 2);
  v.Sched.enqueue ~now:0.0 (pkt 2 1);
  v.Sched.enqueue ~now:0.0 (pkt 2 2);
  check_int "aggregate stays at budget" 3 (inner.Sched.size ());
  (match drop_list drops with
  | [ (Buffered.Evicted, p) ] ->
    check_int "longest flow pays" 1 p.Packet.flow;
    check_int "with its newest packet" 2 p.Packet.seq
  | _ -> Alcotest.fail "expected exactly one Evicted drop");
  check_int "flow 1 trimmed" 1 (inner.Sched.backlog 1);
  check_int "flow 2's arrival admitted" 2 (inner.Sched.backlog 2)

let test_longest_queue_tie_goes_to_first_seen () =
  (* flows first seen in the order 3, 1, 2, all tied at backlog 2: the
     first-seen flow pays, whatever the ids' numeric order *)
  let v, inner, drops = buffered ~aggregate:6 ~policy:Buffered.Longest_queue () in
  List.iter (fun f -> v.Sched.enqueue ~now:0.0 (pkt f 1)) [ 3; 1; 2 ];
  List.iter (fun f -> v.Sched.enqueue ~now:0.0 (pkt f 2)) [ 2; 1; 3 ];
  v.Sched.enqueue ~now:0.0 (pkt 4 1);
  (match drop_list drops with
  | [ (Buffered.Evicted, p) ] ->
    check_int "first-seen flow pays the tie" 3 p.Packet.flow;
    check_int "with its newest packet" 2 p.Packet.seq
  | _ -> Alcotest.fail "expected exactly one Evicted drop");
  check_int "the newcomer is admitted" 1 (inner.Sched.backlog 4);
  (* a second overflow: flow 3 is now shorter, so the tie among 1 and 2
     goes to 1, seen before 2 *)
  v.Sched.enqueue ~now:0.0 (pkt 5 1);
  match drop_list drops with
  | [ _; (Buffered.Evicted, p) ] -> check_int "next first-seen among the longest" 1 p.Packet.flow
  | _ -> Alcotest.fail "expected a second Evicted drop"

(* Admitting a new flow costs the same at any number of flows seen: the
   first-seen list is a Vec, not a list copied by an append per new
   flow (which cost a cons cell per flow already seen). *)
let words_per_admit flows =
  let pkts = Array.init flows (fun f -> pkt f 1) in
  let b = Buffered.wrap (Buffered.config ~policy:Buffered.Longest_queue ()) (Fifo.sched (Fifo.create ())) in
  let v = Buffered.sched b in
  let before = Gc.minor_words () in
  Array.iter (v.Sched.enqueue ~now:0.0) pkts;
  (Gc.minor_words () -. before) /. float_of_int flows

let test_admit_cost_flat_in_flows_seen () =
  let small = words_per_admit 1024 and large = words_per_admit 16384 in
  check_bool
    (Printf.sprintf "16384 flows: %.1f words/admit within 1.5x of 1024 flows: %.1f" large small)
    true
    (large <= 1.5 *. small)

let test_no_evict_degrades_to_reject () =
  (* a discipline that cannot remove mid-queue packets (Sched.no_evict):
     eviction policies must refuse the arrival rather than lose a
     packet silently *)
  let f = Fifo.create () in
  let raw = { (Fifo.sched f) with Sched.evict = Sched.no_evict } in
  let drops = ref [] in
  let on_drop ~now:_ ~reason p = drops := (reason, p) :: !drops in
  let b =
    Buffered.wrap ~on_drop (Buffered.config ~per_flow:1 ~policy:Buffered.Drop_front ()) raw
  in
  let v = Buffered.sched b in
  v.Sched.enqueue ~now:0.0 (pkt 1 1);
  v.Sched.enqueue ~now:0.0 (pkt 1 2);
  check_int "nothing lost silently" 1 (Fifo.size f);
  match drop_list drops with
  | [ (Buffered.Rejected, p) ] -> check_int "arrival refused instead" 2 p.Packet.seq
  | _ -> Alcotest.fail "expected exactly one Rejected drop"

(* ------------------------------------------------------------------ *)
(* Lifecycle tag semantics (eq. 4 at reopen) *)

let test_close_forgets_finish_tag () =
  let s = Sfq.create (Weights.of_list ~default:1.0 []) in
  List.iter (fun q -> Sfq.enqueue s ~now:0.0 (pkt 1 q)) [ 1; 2; 3 ];
  Sfq.enqueue s ~now:0.0 (pkt 2 1);
  (* serve f1#1 (stag 0), f2#1 (stag 0), f1#2 (stag 1000) *)
  for _ = 1 to 3 do
    ignore (Sfq.dequeue s ~now:0.0)
  done;
  let v = Sfq.vtime s in
  check_bool "virtual time advanced" true (v > 0.0);
  let flushed = Sfq.close_flow s 1 in
  check_int "backlog flushed" 1 (List.length flushed);
  let stag, _ = Sfq.enqueue_tagged s ~now:0.0 (pkt 1 1) in
  check_bool "reopened flow enters at v(t), not its stale F"
    true (stag = v)

let test_evict_keeps_finish_tag_charged () =
  let s = Sfq.create (Weights.of_list ~default:1.0 []) in
  Sfq.enqueue s ~now:0.0 (pkt 1 1);
  Sfq.enqueue s ~now:0.0 (pkt 1 2);
  (match Sfq.evict s Sched.Newest 1 with
  | Some p -> check_int "newest evicted" 2 p.Packet.seq
  | None -> Alcotest.fail "evict found nothing");
  (* F stays at 2000: the evicted packet's virtual service remains
     charged, so the next start tag can only move later (eq. 4) *)
  let stag, _ = Sfq.enqueue_tagged s ~now:0.0 (pkt 1 3) in
  check_bool "tags did not roll back" true (stag >= 2000.0)

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let q test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x0d6 |]) ~speed_level:`Quick
    test

let prop_conservation_all_disciplines =
  QCheck.Test.make ~count:15
    ~name:"conservation holds for all disciplines under churn + overload"
    (Workload.arbitrary ~churn:true ~overload:true ~rate_fluct:true ())
    (fun w ->
      List.for_all
        (fun (c : Run.cell) -> (Run.run_cell c).Run.violations = [])
        (Suite.stress_cells ~pool:[ w ] ()))

(* Random op soup against a buffered SFQ: budgets are invariants, and a
   drop is only legal at the instant a budget is saturated. *)
let budget_ops_gen =
  QCheck.Gen.(
    triple (int_range 0 2)
      (pair (int_range 1 3) (int_range 1 6))
      (list_size (int_range 10 80) (pair (int_range 1 4) (int_range 0 2))))

let print_budget_ops (policy, (pf, ag), ops) =
  Printf.sprintf "policy=%d per_flow=%d aggregate=%d ops=[%s]" policy pf ag
    (String.concat "; " (List.map (fun (f, k) -> Printf.sprintf "(%d,%d)" f k) ops))

let prop_drop_only_at_saturated_budget =
  QCheck.Test.make ~count:200 ~name:"budgets never exceeded; drops only at saturation"
    (QCheck.make ~print:print_budget_ops budget_ops_gen)
    (fun (policy_ix, (pf, ag), ops) ->
      let policy =
        List.nth Buffered.[ Drop_tail; Drop_front; Longest_queue ] policy_ix
      in
      let v, inner, drops = buffered ~per_flow:pf ~aggregate:ag ~policy () in
      let seqs = Array.make 5 0 in
      let enqueued = ref 0 and departed = ref 0 in
      let ok = ref true in
      List.iter
        (fun (flow, kind) ->
          if kind = 2 then (
            match v.Sched.dequeue ~now:0.0 with
            | Some _ -> incr departed
            | None -> ())
          else begin
            let before = List.length !drops in
            let flow_full = inner.Sched.backlog flow >= pf in
            let agg_full = inner.Sched.size () >= ag in
            seqs.(flow) <- seqs.(flow) + 1;
            v.Sched.enqueue ~now:0.0 (pkt flow seqs.(flow));
            incr enqueued;
            if List.length !drops > before && not (flow_full || agg_full) then
              ok := false
          end;
          (* budgets are hard invariants at every step *)
          if inner.Sched.size () > ag then ok := false;
          for f = 1 to 4 do
            if inner.Sched.backlog f > pf then ok := false
          done)
        ops;
      !ok && !enqueued = !departed + List.length !drops + inner.Sched.size ())

let prop_reopen_at_vtime =
  QCheck.Test.make ~count:200 ~name:"close-then-reopen re-enters at S = v(t)"
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map string_of_int ops))
       QCheck.Gen.(list_size (int_range 1 40) (int_range 0 3)))
    (fun ops ->
      (* ops: 0-2 = enqueue to flow (op+1), 3 = dequeue *)
      let s = Sfq.create (Weights.of_list ~default:1.0 []) in
      let seqs = Array.make 4 0 in
      List.iter
        (fun op ->
          if op = 3 then ignore (Sfq.dequeue s ~now:0.0)
          else begin
            seqs.(op) <- seqs.(op) + 1;
            Sfq.enqueue s ~now:0.0 (pkt (op + 1) seqs.(op))
          end)
        ops;
      let v = Sfq.vtime s in
      ignore (Sfq.close_flow s 1);
      let stag, _ = Sfq.enqueue_tagged s ~now:0.0 (pkt 1 1) in
      stag = Float.max v 0.0)

(* ------------------------------------------------------------------ *)
(* Capacity hygiene: recycling must not pin burst-peak memory *)

let test_vec_compact_releases_capacity () =
  let v = Vec.create () in
  for i = 1 to 1000 do
    Vec.push v i
  done;
  check_bool "grew" true (Vec.capacity v >= 1000);
  Vec.clear v;
  check_bool "clear keeps the backing array" true (Vec.capacity v >= 1000);
  Vec.compact v;
  check_int "compact on empty drops it" 0 (Vec.capacity v);
  for i = 1 to 3 do
    Vec.push v i
  done;
  Vec.compact v;
  check_int "compact shrinks to length" 3 (Vec.capacity v);
  check_int "contents survive" 2 (Vec.get v 1);
  Vec.push v 4;
  check_int "still grows after compact" 4 (Vec.length v)

let test_fheap_capacity_and_removal () =
  let h = Fheap.create ~capacity:1 () in
  for i = 1 to 100 do
    Fheap.add h ~key:(float_of_int (100 - i)) ~tie:0.0 ~uid:i i
  done;
  check_bool "backing arrays grew" true (Fheap.capacity h >= 100);
  (* removal surgery keeps the order total *)
  (match Fheap.remove_matching h ~pred:(fun x -> x mod 7 = 0) with
  | Some (_, x) -> check_int "oldest match (smallest uid)" 7 x
  | None -> Alcotest.fail "expected a match");
  (match Fheap.remove_matching ~newest:true h ~pred:(fun x -> x mod 7 = 0) with
  | Some (_, x) -> check_int "newest match (largest uid)" 98 x
  | None -> Alcotest.fail "expected a match");
  let rec drain last n =
    match Fheap.pop h with
    | None -> n
    | Some (k, _) ->
      check_bool "pop order still ascending" true (k >= last);
      drain k (n + 1)
  in
  check_int "nothing lost or duplicated" 98 (drain neg_infinity 0);
  Fheap.clear h;
  check_int "clear empties" 0 (Fheap.length h)

let test_flow_heap_flush_releases_ring () =
  let fh = Flow_heap.create () in
  for i = 1 to 64 do
    Flow_heap.push fh ~flow:7 ~key:(float_of_int i) ~tie:0.0 i
  done;
  check_bool "burst grew the ring" true (Flow_heap.ring_capacity fh 7 >= 64);
  let flushed = Flow_heap.flush_flow fh 7 in
  check_int "all entries flushed" 64 (List.length flushed);
  check_bool "oldest first" true
    (List.mapi (fun i p -> p.Flow_heap.value = i + 1) flushed |> List.for_all Fun.id);
  check_int "ring released entirely" 0 (Flow_heap.ring_capacity fh 7);
  check_int "store empty" 0 (Flow_heap.size fh);
  (* the recycled id starts from scratch *)
  Flow_heap.push fh ~flow:7 ~key:0.0 ~tie:0.0 99;
  check_bool "fresh ring is small" true (Flow_heap.ring_capacity fh 7 < 64);
  match Flow_heap.pop fh with
  | Some p -> check_int "and serves" 99 p.Flow_heap.value
  | None -> Alcotest.fail "expected the repushed entry"

let test_iflow_heap_flush_recycles_small_ring () =
  (* a recycled id after flush_flow behaves as a fresh one: the same
     pushes give the same pops as on a new heap *)
  let script h =
    List.iter
      (fun (flow, key) -> Iflow_heap.push h ~flow ~key ~aux:key ~tie:0 ((flow * 100) + key))
      [ (7, 5); (3, 5); (7, 6); (3, 9); (7, 6) ];
    List.init 5 (fun _ ->
        let v = Iflow_heap.pop_exn h in
        (v, Iflow_heap.last_key h, Iflow_heap.last_flow h))
  in
  let h = Iflow_heap.create () in
  List.iter (fun k -> Iflow_heap.push h ~flow:7 ~key:k ~aux:0 ~tie:0 (-k)) [ 1; 2; 3 ];
  ignore (Iflow_heap.pop_exn h);
  let flushed = Iflow_heap.flush_flow h 7 in
  Alcotest.(check (list int)) "flushed oldest first" [ -2; -3 ]
    (List.map (fun p -> p.Iflow_heap.value) flushed);
  check_int "backlog 0 after the flush" 0 (Iflow_heap.backlog h 7);
  check_int "store empty" 0 (Iflow_heap.size h);
  check_int "the id holds no ring" 0 (Iflow_heap.ring_capacity h 7);
  (* the emptied 8-slot ring is handed to the next flow: no allocation *)
  let before = Gc.minor_words () in
  Iflow_heap.push h ~flow:7 ~key:9 ~aux:0 ~tie:0 9;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "re-pushing the recycled id allocates no ring" 0.0 words;
  check_int "it has the recycled 8-slot ring" 8 (Iflow_heap.ring_capacity h 7);
  check_int "and serves" 9 (Iflow_heap.pop_exn h);
  ignore (Iflow_heap.flush_flow h 7);
  let fresh = script (Iflow_heap.create ()) and recycled = script h in
  check_bool "same pop order as a new heap" true (fresh = recycled);
  check_int "FIFO within the flow: 7's equal keys in push order" 706
    (let v, _, _ = List.nth recycled 2 in
     v)

let test_iflow_heap_flush_releases_grown_ring () =
  let h = Iflow_heap.create () in
  for i = 1 to 64 do
    Iflow_heap.push h ~flow:7 ~key:i ~aux:0 ~tie:0 i
  done;
  check_bool "burst grew the ring" true (Iflow_heap.ring_capacity h 7 >= 64);
  check_int "all entries flushed" 64 (List.length (Iflow_heap.flush_flow h 7));
  check_int "grown ring released entirely" 0 (Iflow_heap.ring_capacity h 7);
  Iflow_heap.push h ~flow:7 ~key:0 ~aux:0 ~tie:0 99;
  check_int "the recycled id starts from a fresh ring" 8 (Iflow_heap.ring_capacity h 7);
  check_int "and serves" 99 (Iflow_heap.pop_exn h)

let test_iflow_heap_drain_hands_ring_back () =
  (* the pop or eviction that empties a flow's queue takes its ring
     away; the next new flow takes that ring without allocating *)
  let h = Iflow_heap.create () in
  List.iter (fun k -> Iflow_heap.push h ~flow:3 ~key:k ~aux:0 ~tie:0 k) [ 1; 2 ];
  check_int "a backlogged flow holds a ring" 8 (Iflow_heap.ring_capacity h 3);
  check_int "first pop" 1 (Iflow_heap.pop_exn h);
  check_int "it keeps the ring while an entry is left" 8 (Iflow_heap.ring_capacity h 3);
  check_int "second pop drains the flow" 2 (Iflow_heap.pop_exn h);
  check_int "the drained flow holds no ring" 0 (Iflow_heap.ring_capacity h 3);
  check_int "nor any backlog" 0 (Iflow_heap.backlog h 3);
  let before = Gc.minor_words () in
  Iflow_heap.push h ~flow:5 ~key:7 ~aux:0 ~tie:0 7;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "the next new flow takes that ring without allocating" 0.0
    words;
  check_int "an 8-slot ring" 8 (Iflow_heap.ring_capacity h 5);
  ignore (Iflow_heap.evict_front h 5);
  check_int "an evict_front that drains hands it back" 0 (Iflow_heap.ring_capacity h 5);
  Iflow_heap.push h ~flow:5 ~key:8 ~aux:0 ~tie:0 8;
  ignore (Iflow_heap.evict_back h 5);
  check_int "so does an evict_back" 0 (Iflow_heap.ring_capacity h 5);
  for i = 1 to 20 do
    Iflow_heap.push h ~flow:9 ~key:i ~aux:0 ~tie:0 i
  done;
  check_int "a burst grows a ring" 32 (Iflow_heap.ring_capacity h 9);
  for _ = 1 to 20 do
    ignore (Iflow_heap.pop_exn h)
  done;
  check_int "a grown ring stays with its drained flow" 32 (Iflow_heap.ring_capacity h 9);
  Iflow_heap.push h ~flow:9 ~key:30 ~aux:0 ~tie:0 30;
  check_int "which bursts again without regrowing" 32 (Iflow_heap.ring_capacity h 9);
  check_int "serves" 30 (Iflow_heap.pop_exn h);
  check_int "nothing left to flush" 0 (List.length (Iflow_heap.flush_flow h 9));
  check_int "but flush_flow takes the ring away" 0 (Iflow_heap.ring_capacity h 9)

let test_flow_heap_drain_hands_ring_back () =
  let fh = Flow_heap.create () in
  List.iter (fun i -> Flow_heap.push fh ~flow:4 ~key:(float_of_int i) ~tie:0.0 i) [ 1; 2 ];
  ignore (Flow_heap.pop fh);
  check_int "one entry left: the flow keeps its ring" 8 (Flow_heap.ring_capacity fh 4);
  ignore (Flow_heap.pop fh);
  check_int "the drained flow holds no ring" 0 (Flow_heap.ring_capacity fh 4);
  Flow_heap.push fh ~flow:6 ~key:0.0 ~tie:0.0 6;
  check_int "the next flow reuses it" 8 (Flow_heap.ring_capacity fh 6);
  ignore (Flow_heap.evict_back fh 6);
  check_int "an eviction that drains hands it back" 0 (Flow_heap.ring_capacity fh 6)

let test_flow_heap_evict_ends () =
  let fh = Flow_heap.create () in
  List.iter (fun i -> Flow_heap.push fh ~flow:1 ~key:(float_of_int i) ~tie:0.0 i) [ 1; 2; 3 ];
  (match Flow_heap.evict_front fh 1 with
  | Some p -> check_int "front = oldest" 1 p.Flow_heap.value
  | None -> Alcotest.fail "expected front eviction");
  (match Flow_heap.evict_back fh 1 with
  | Some p -> check_int "back = newest" 3 p.Flow_heap.value
  | None -> Alcotest.fail "expected back eviction");
  check_int "middle survives" 1 (Flow_heap.size fh);
  match Flow_heap.pop fh with
  | Some p -> check_int "and pops" 2 p.Flow_heap.value
  | None -> Alcotest.fail "expected the survivor"

let test_flow_registry_recycles () =
  let r = Flow_registry.create () in
  let a = Flow_registry.open_flow r in
  let b = Flow_registry.open_flow r in
  check_int "fresh ids are dense" 1 (a + b);
  Flow_registry.close_flow r a;
  check_int "most recently closed id is reissued" a (Flow_registry.open_flow r);
  Alcotest.check_raises "closing a closed id raises"
    (Invalid_argument "Flow_registry.close_flow: flow 1 is not open") (fun () ->
      Flow_registry.close_flow r b;
      Flow_registry.close_flow r b)

let test_flow_registry_bounded_by_window () =
  let r = Flow_registry.create () in
  let window = 5 in
  let live = Queue.create () in
  for _ = 1 to 1000 do
    Queue.push (Flow_registry.open_flow r) live;
    if Queue.length live > window then Flow_registry.close_flow r (Queue.pop live)
  done;
  check_int "peak concurrency = window + 1" (window + 1) (Flow_registry.peak_live r);
  check_int "dense-state bound = peak, not 1000 opens" (window + 1)
    (Flow_registry.high_water r);
  check_int "every open counted" 1000 (Flow_registry.opened r);
  check_int "window still live" window (Flow_registry.live r)

let test_flow_table_dense_reuse () =
  let t = Flow_table.create ~default:(fun _ -> 0) in
  for f = 0 to 99 do
    Flow_table.set t f f
  done;
  check_int "all present" 100 (Flow_table.length t);
  check_bool "dense slab sized by the largest id" true (Flow_table.dense_capacity t >= 100);
  let cap = Flow_table.dense_capacity t in
  Flow_table.clear t;
  check_int "clear empties" 0 (Flow_table.length t);
  for f = 0 to 99 do
    Flow_table.set t f (2 * f)
  done;
  check_int "reuse does not regrow" cap (Flow_table.dense_capacity t);
  check_int "fresh values" 66 (Flow_table.find t 33)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "robustness"
    [
      ( "policies",
        [
          Alcotest.test_case "drop-tail per-flow" `Quick test_drop_tail_per_flow;
          Alcotest.test_case "drop-front per-flow" `Quick test_drop_front_per_flow;
          Alcotest.test_case "longest-queue per-flow rejects" `Quick
            test_longest_queue_per_flow_rejects;
          Alcotest.test_case "drop-front aggregate" `Quick
            test_drop_front_aggregate_evicts_next_to_depart;
          Alcotest.test_case "longest-queue aggregate" `Quick
            test_longest_queue_aggregate_evicts_newest_of_longest;
          Alcotest.test_case "no-evict degrades to reject" `Quick
            test_no_evict_degrades_to_reject;
          Alcotest.test_case "longest-queue tie goes to the first-seen flow" `Quick
            test_longest_queue_tie_goes_to_first_seen;
          Alcotest.test_case "admit cost flat in flows seen" `Quick
            test_admit_cost_flat_in_flows_seen;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "close forgets the finish tag" `Quick
            test_close_forgets_finish_tag;
          Alcotest.test_case "evict keeps the finish tag charged" `Quick
            test_evict_keeps_finish_tag_charged;
        ] );
      ( "properties",
        [
          q prop_conservation_all_disciplines;
          q prop_drop_only_at_saturated_budget;
          q prop_reopen_at_vtime;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "Vec.compact releases burst capacity" `Quick
            test_vec_compact_releases_capacity;
          Alcotest.test_case "Fheap capacity + surgical removal" `Quick
            test_fheap_capacity_and_removal;
          Alcotest.test_case "Flow_heap.flush_flow releases the ring" `Quick
            test_flow_heap_flush_releases_ring;
          Alcotest.test_case "Iflow_heap.flush_flow recycles an 8-slot ring" `Quick
            test_iflow_heap_flush_recycles_small_ring;
          Alcotest.test_case "Iflow_heap.flush_flow releases a grown ring" `Quick
            test_iflow_heap_flush_releases_grown_ring;
          Alcotest.test_case "Iflow_heap: a drained flow hands its ring back" `Quick
            test_iflow_heap_drain_hands_ring_back;
          Alcotest.test_case "Flow_heap: a drained flow hands its ring back" `Quick
            test_flow_heap_drain_hands_ring_back;
          Alcotest.test_case "Flow_heap evicts the right ends" `Quick
            test_flow_heap_evict_ends;
          Alcotest.test_case "Flow_registry recycles LIFO" `Quick
            test_flow_registry_recycles;
          Alcotest.test_case "Flow_registry bounded by peak concurrency" `Quick
            test_flow_registry_bounded_by_window;
          Alcotest.test_case "Flow_table dense slab reuse" `Quick
            test_flow_table_dense_reuse;
        ] );
    ]
