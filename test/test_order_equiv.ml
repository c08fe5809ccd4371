(* Differential tests for the O(log F) scheduling hot path.

   The per-flow-heap schedulers (Flow_heap-backed Tag_queue, Sfq, Wf2q)
   must be packet-for-packet identical to the seed per-packet-heap
   implementations frozen in Sfq_sched.Ref_sched, on randomized
   workloads with mixed weights, tag collisions, idle gaps and
   dequeues-on-empty, under all three tie rules and both SFQ busy
   rules. Also unit-tests the new substrate: Fheap, Flow_heap, the
   dense Flow_table fast path, and Ds_heap's honored capacity. *)

open Sfq_util
open Sfq_base
open Sfq_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fheap                                                                *)

let test_fheap_sorts () =
  let rng = Rng.create 11 in
  let h = Fheap.create ~capacity:4 () in
  let items =
    Array.init 500 (fun uid ->
        (float_of_int (Rng.int rng 20) *. 0.5, float_of_int (Rng.int rng 3), uid))
  in
  (* the payload is the item's index *)
  Array.iter (fun (key, tie, uid) -> Fheap.add h ~key ~tie ~uid uid) items;
  check_int "length" 500 (Fheap.length h);
  let expected = List.sort compare (Array.to_list items) in
  let popped =
    List.init 500 (fun _ ->
        match Fheap.pop h with
        | Some (_, i) -> items.(i)
        | None -> Alcotest.fail "early empty")
  in
  Alcotest.(check bool) "pop order = sorted (key, tie, uid)" true (popped = expected);
  check_bool "drained" true (Fheap.is_empty h)

let test_fheap_pop_returns_key () =
  let h = Fheap.create () in
  let names = [| "b"; "a" |] in
  Fheap.add h ~key:2.5 ~tie:0.0 ~uid:0 0;
  Fheap.add h ~key:1.5 ~tie:0.0 ~uid:1 1;
  (match Fheap.min h with
  | Some (k, v) ->
    Alcotest.(check (float 0.0)) "min key" 1.5 k;
    Alcotest.(check string) "min payload" "a" names.(v)
  | None -> Alcotest.fail "empty");
  Alcotest.(check (float 0.0)) "min_key_exn" 1.5 (Fheap.min_key_exn h);
  (match Fheap.pop h with
  | Some (k, v) ->
    Alcotest.(check (float 0.0)) "popped key" 1.5 k;
    Alcotest.(check string) "popped payload" "a" names.(v)
  | None -> Alcotest.fail "empty");
  check_int "one left" 1 (Fheap.length h)

let test_fheap_empty () =
  let h = Fheap.create () in
  check_bool "is_empty" true (Fheap.is_empty h);
  check_bool "pop none" true (Fheap.pop h = None);
  check_bool "min none" true (Fheap.min h = None);
  Alcotest.check_raises "min_key_exn raises"
    (Invalid_argument "Fheap.min_key_exn: empty heap") (fun () ->
      ignore (Fheap.min_key_exn h));
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Fheap.create: capacity must be >= 1") (fun () ->
      ignore (Fheap.create ~capacity:0 ()))

let test_fheap_clear () =
  let h = Fheap.create () in
  for i = 0 to 9 do
    Fheap.add h ~key:(float_of_int i) ~tie:0.0 ~uid:i i
  done;
  Fheap.clear h;
  check_bool "empty after clear" true (Fheap.is_empty h);
  Fheap.add h ~key:3.0 ~tie:0.0 ~uid:42 42;
  check_bool "usable after clear" true (Fheap.pop_elt h = Some 42)

(* ------------------------------------------------------------------ *)
(* Flow_heap vs a single global heap                                    *)

let test_flow_heap_matches_global_heap () =
  let rng = Rng.create 7 in
  let nflows = 12 in
  let fh = Flow_heap.create () in
  let reference = Ds_heap.create ~cmp:compare () in
  (* (key, tie, uid) triples; Ds_heap with polymorphic compare is the
     oracle for the global order. Keys per flow are non-decreasing. *)
  let last_key = Array.make nflows 0.0 in
  let ties = Array.init nflows (fun f -> float_of_int (f mod 3)) in
  let uid = ref 0 in
  let queued = ref 0 in
  for _ = 1 to 4000 do
    if Rng.float rng 1.0 < 0.55 then begin
      let flow = Rng.int rng nflows in
      last_key.(flow) <- last_key.(flow) +. (float_of_int (Rng.int rng 3) *. 0.5);
      let key = last_key.(flow) in
      Flow_heap.push fh ~flow ~key ~aux:(key +. 1.0) ~tie:ties.(flow) (flow, !uid);
      Ds_heap.add reference (key, ties.(flow), !uid, flow);
      incr uid;
      incr queued
    end
    else begin
      match (Flow_heap.pop fh, Ds_heap.pop_min reference) with
      | None, None -> ()
      | Some p, Some (key, _, u, flow) ->
        decr queued;
        check_int "flow" flow p.Flow_heap.flow;
        check_int "uid" u p.Flow_heap.uid;
        Alcotest.(check (float 0.0)) "key" key p.Flow_heap.key;
        Alcotest.(check (float 0.0)) "aux" (key +. 1.0) p.Flow_heap.aux;
        check_bool "payload" true (p.Flow_heap.value = (flow, u))
      | _ -> Alcotest.fail "divergence: one heap empty"
    end;
    check_int "sizes agree" (Ds_heap.length reference) (Flow_heap.size fh)
  done

let test_flow_heap_accounting () =
  let fh = Flow_heap.create () in
  check_bool "empty" true (Flow_heap.is_empty fh);
  Flow_heap.push fh ~flow:3 ~key:1.0 ~tie:0.0 "a";
  Flow_heap.push fh ~flow:3 ~key:2.0 ~tie:0.0 "b";
  Flow_heap.push fh ~flow:5 ~key:1.5 ~tie:0.0 "c";
  check_int "size" 3 (Flow_heap.size fh);
  check_int "backlog 3" 2 (Flow_heap.backlog fh 3);
  check_int "backlog 5" 1 (Flow_heap.backlog fh 5);
  check_int "backlog other" 0 (Flow_heap.backlog fh 9);
  check_int "active flows" 2 (Flow_heap.active_flows fh);
  (match Flow_heap.peek fh with
  | Some p -> check_bool "peek head" true (p.Flow_heap.value = "a")
  | None -> Alcotest.fail "peek empty");
  check_int "peek keeps size" 3 (Flow_heap.size fh);
  let order = List.init 3 (fun _ -> (Option.get (Flow_heap.pop fh)).Flow_heap.value) in
  check_bool "pop order" true (order = [ "a"; "c"; "b" ]);
  check_int "active after drain" 0 (Flow_heap.active_flows fh)

(* ------------------------------------------------------------------ *)
(* Flow_table dense fast path                                           *)

let test_flow_table_dense_and_sparse () =
  let t = Flow_table.create ~default:(fun f -> 10 * f) in
  check_int "dense default" 30 (Flow_table.find t 3);
  check_int "sparse default" (-20) (Flow_table.find t (-2));
  Flow_table.set t 3 7;
  Flow_table.set t 1_500_000 8;
  (* beyond the dense range *)
  Flow_table.set t (-2) 9;
  check_int "dense set" 7 (Flow_table.find t 3);
  check_int "big id set" 8 (Flow_table.find t 1_500_000);
  check_int "negative id set" 9 (Flow_table.find t (-2));
  check_int "length" 3 (Flow_table.length t);
  check_bool "find_opt misses without creating" true (Flow_table.find_opt t 4 = None);
  check_int "length unchanged" 3 (Flow_table.length t);
  Alcotest.(check (list int)) "flows sorted" [ -2; 3; 1_500_000 ] (Flow_table.flows t);
  let sum = Flow_table.fold t ~init:0 ~f:(fun _ v acc -> acc + v) in
  check_int "fold over both regions" 24 sum;
  Flow_table.remove t 3;
  check_bool "removed" false (Flow_table.mem t 3);
  check_int "length after remove" 2 (Flow_table.length t);
  check_int "recreated from default" 30 (Flow_table.find t 3);
  Flow_table.clear t;
  check_int "cleared" 0 (Flow_table.length t);
  check_bool "cleared mem" false (Flow_table.mem t 1_500_000)

let test_flow_table_growth () =
  let t = Flow_table.create ~default:(fun _ -> 0) in
  for f = 0 to 2_000 do
    Flow_table.set t f f
  done;
  check_int "length" 2_001 (Flow_table.length t);
  let ok = ref true in
  for f = 0 to 2_000 do
    if Flow_table.find t f <> f then ok := false
  done;
  check_bool "all retained across growth" true !ok

(* ------------------------------------------------------------------ *)
(* Ds_heap capacity                                                     *)

let test_ds_heap_capacity () =
  let h = Ds_heap.create ~capacity:4 ~cmp:compare () in
  for i = 9 downto 0 do
    Ds_heap.add h i
  done;
  Alcotest.(check (list int)) "still sorts past capacity" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Ds_heap.to_sorted_list h);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ds_heap.create: capacity must be >= 1") (fun () ->
      ignore (Ds_heap.create ~capacity:0 ~cmp:compare ()))

(* ------------------------------------------------------------------ *)
(* Randomized order equivalence: production vs frozen seed schedulers   *)

type op = Enq of float * Packet.t | Deq of float

(* A workload that stresses every branch: quantized arrival times and a
   small weight/length pool so tags collide (exercising tie rules),
   occasional large time gaps with full drains (busy-period ends),
   dequeues against an empty queue (idle polling), per-packet rate
   overrides, and deep per-flow backlogs. *)
let gen_workload rng ~nflows ~npkts =
  let seqs = Array.make nflows 0 in
  let now = ref 0.0 in
  let queued = ref 0 in
  let enqueued = ref 0 in
  let ops = ref [] in
  while !enqueued < npkts || !queued > 0 do
    if Rng.float rng 1.0 < 0.02 then now := !now +. Rng.float rng 50.0
    else now := !now +. (float_of_int (Rng.int rng 4) *. 0.25);
    let enq_allowed = !enqueued < npkts in
    let do_enq =
      enq_allowed
      && (if !queued = 0 then Rng.float rng 1.0 < 0.9 else Rng.float rng 1.0 < 0.55)
    in
    if do_enq then begin
      let flow = Rng.int rng nflows in
      seqs.(flow) <- seqs.(flow) + 1;
      let len = (1 + Rng.int rng 4) * 500 in
      let rate =
        if Rng.float rng 1.0 < 0.05 then Some (float_of_int (1 + Rng.int rng 3) *. 400.0)
        else None
      in
      ops := Enq (!now, Packet.make ?rate ~flow ~seq:seqs.(flow) ~len ~born:!now ()) :: !ops;
      incr enqueued;
      incr queued
    end
    else begin
      ops := Deq !now :: !ops;
      if !queued > 0 then decr queued
    end
  done;
  ops := Deq !now :: Deq !now :: !ops;
  List.rev !ops

type driver = {
  enq : now:float -> Packet.t -> unit;
  deq : now:float -> Packet.t option;
  post : unit -> unit;  (* extra invariant checks after each dequeue *)
}

let run_pair ~name ops production reference =
  List.iter
    (fun op ->
      match op with
      | Enq (now, p) ->
        production.enq ~now p;
        reference.enq ~now p
      | Deq now -> begin
        let x = production.deq ~now in
        let y = reference.deq ~now in
        (match (x, y) with
        | None, None -> ()
        | Some p, Some q ->
          if p.Packet.flow <> q.Packet.flow || p.Packet.seq <> q.Packet.seq then
            Alcotest.failf "%s: got flow %d seq %d, seed emitted flow %d seq %d" name
              p.Packet.flow p.Packet.seq q.Packet.flow q.Packet.seq
        | Some p, None ->
          Alcotest.failf "%s: emitted flow %d seq %d where seed was empty" name
            p.Packet.flow p.Packet.seq
        | None, Some q ->
          Alcotest.failf "%s: empty where seed emitted flow %d seq %d" name q.Packet.flow
            q.Packet.seq);
        production.post ();
        reference.post ()
      end)
    ops

let nflows = 40
let npkts = 12_000
let rate_pool = [| 250.0; 500.0; 1000.0; 1000.0; 2000.0; 4000.0 |]

let make_weights rng =
  Weights.of_list
    (List.init nflows (fun f -> (f, rate_pool.(Rng.int rng (Array.length rate_pool)))))

let ties w =
  let lookup f = Weights.get w f in
  [
    ("arrival", Tag_queue.Arrival);
    ("low-rate", Tag_queue.Low_rate lookup);
    ("high-rate", Tag_queue.High_rate lookup);
  ]

let no_post = fun () -> ()

let test_sfq_equivalence () =
  List.iter
    (fun (busy_name, busy, ref_busy) ->
      let rng = Rng.create 1001 in
      let w = make_weights rng in
      List.iter
        (fun (tie_name, tie) ->
          let ops = gen_workload (Rng.create 42) ~nflows ~npkts in
          let s = Sfq_core.Sfq.create ~tie ~busy_rule:busy w in
          let r = Ref_sched.Sfq_ref.create ~tie ~busy_rule:ref_busy w in
          let vtimes_agree () =
            let a = Sfq_core.Sfq.vtime s and b = Ref_sched.Sfq_ref.vtime r in
            if a <> b then
              Alcotest.failf "sfq/%s/%s vtime diverged: %.17g vs %.17g" busy_name
                tie_name a b
          in
          run_pair
            ~name:(Printf.sprintf "sfq/%s/%s" busy_name tie_name)
            ops
            {
              enq = Sfq_core.Sfq.enqueue s;
              deq = (fun ~now -> Sfq_core.Sfq.dequeue s ~now);
              post = vtimes_agree;
            }
            {
              enq = Ref_sched.Sfq_ref.enqueue r;
              deq = (fun ~now -> Ref_sched.Sfq_ref.dequeue r ~now);
              post = no_post;
            };
          check_int
            (Printf.sprintf "sfq/%s/%s drained" busy_name tie_name)
            0 (Sfq_core.Sfq.size s))
        (ties w))
    [
      ("idle-poll", Sfq_core.Sfq.Idle_poll, Ref_sched.Sfq_ref.Idle_poll);
      ("on-empty", Sfq_core.Sfq.On_empty, Ref_sched.Sfq_ref.On_empty);
    ]

let test_scfq_equivalence () =
  let rng = Rng.create 1002 in
  let w = make_weights rng in
  List.iter
    (fun (tie_name, tie) ->
      let ops = gen_workload (Rng.create 43) ~nflows ~npkts in
      let s = Scfq.create ~tie w in
      let r = Ref_sched.Scfq_ref.create ~tie w in
      let vtimes_agree () =
        if Scfq.vtime s <> Ref_sched.Scfq_ref.vtime r then
          Alcotest.failf "scfq/%s vtime diverged" tie_name
      in
      run_pair
        ~name:(Printf.sprintf "scfq/%s" tie_name)
        ops
        {
          enq = Scfq.enqueue s;
          deq = (fun ~now -> Scfq.dequeue s ~now);
          post = vtimes_agree;
        }
        {
          enq = Ref_sched.Scfq_ref.enqueue r;
          deq = (fun ~now -> Ref_sched.Scfq_ref.dequeue r ~now);
          post = no_post;
        })
    (ties w)

let test_virtual_clock_equivalence () =
  let rng = Rng.create 1003 in
  let w = make_weights rng in
  List.iter
    (fun (tie_name, tie) ->
      let ops = gen_workload (Rng.create 44) ~nflows ~npkts in
      let s = Virtual_clock.create ~tie w in
      let r = Ref_sched.Virtual_clock_ref.create ~tie w in
      run_pair
        ~name:(Printf.sprintf "virtual-clock/%s" tie_name)
        ops
        {
          enq = Virtual_clock.enqueue s;
          deq = (fun ~now -> Virtual_clock.dequeue s ~now);
          post = no_post;
        }
        {
          enq = Ref_sched.Virtual_clock_ref.enqueue r;
          deq = (fun ~now -> Ref_sched.Virtual_clock_ref.dequeue r ~now);
          post = no_post;
        })
    (ties w)

let capacity = 8000.0

let test_fqs_equivalence () =
  let rng = Rng.create 1004 in
  let w = make_weights rng in
  List.iter
    (fun (tie_name, tie) ->
      let ops = gen_workload (Rng.create 45) ~nflows ~npkts in
      let s = Fqs.create ~capacity ~tie w in
      let r = Ref_sched.Fqs_ref.create ~capacity ~tie w in
      run_pair
        ~name:(Printf.sprintf "fqs/%s" tie_name)
        ops
        { enq = Fqs.enqueue s; deq = (fun ~now -> Fqs.dequeue s ~now); post = no_post }
        {
          enq = Ref_sched.Fqs_ref.enqueue r;
          deq = (fun ~now -> Ref_sched.Fqs_ref.dequeue r ~now);
          post = no_post;
        })
    (ties w)

let test_wf2q_equivalence () =
  let rng = Rng.create 1005 in
  let w = make_weights rng in
  List.iter
    (fun (tie_name, tie) ->
      let ops = gen_workload (Rng.create 46) ~nflows ~npkts in
      let s = Wf2q.create ~capacity ~tie w in
      let r = Ref_sched.Wf2q_ref.create ~capacity ~tie w in
      run_pair
        ~name:(Printf.sprintf "wf2q/%s" tie_name)
        ops
        { enq = Wf2q.enqueue s; deq = (fun ~now -> Wf2q.dequeue s ~now); post = no_post }
        {
          enq = Ref_sched.Wf2q_ref.enqueue r;
          deq = (fun ~now -> Ref_sched.Wf2q_ref.dequeue r ~now);
          post = no_post;
        })
    (ties w)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "order-equiv"
    [
      ( "fheap",
        [
          Alcotest.test_case "sorts (key, tie, uid)" `Quick test_fheap_sorts;
          Alcotest.test_case "pop returns key" `Quick test_fheap_pop_returns_key;
          Alcotest.test_case "empty" `Quick test_fheap_empty;
          Alcotest.test_case "clear" `Quick test_fheap_clear;
        ] );
      ( "flow_heap",
        [
          Alcotest.test_case "matches global heap" `Quick test_flow_heap_matches_global_heap;
          Alcotest.test_case "accounting" `Quick test_flow_heap_accounting;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "dense and sparse" `Quick test_flow_table_dense_and_sparse;
          Alcotest.test_case "growth" `Quick test_flow_table_growth;
        ] );
      ( "ds_heap",
        [ Alcotest.test_case "capacity honored" `Quick test_ds_heap_capacity ] );
      ( "order-equivalence",
        [
          Alcotest.test_case "sfq = seed sfq (3 ties x 2 busy rules)" `Quick
            test_sfq_equivalence;
          Alcotest.test_case "scfq = seed scfq" `Quick test_scfq_equivalence;
          Alcotest.test_case "virtual clock = seed" `Quick test_virtual_clock_equivalence;
          Alcotest.test_case "fqs = seed fqs" `Quick test_fqs_equivalence;
          Alcotest.test_case "wf2q = seed wf2q" `Quick test_wf2q_equivalence;
        ] );
    ]
