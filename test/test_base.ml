(* Tests for sfq.base: packets, flow tables, weights, the scheduler
   record contract helpers. *)

open Sfq_base

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let pkt ?rate ~flow ~seq ~len () = Packet.make ?rate ~flow ~seq ~len ~born:0.0 ()

(* ------------------------------------------------------------------ *)
(* Packet                                                               *)

let test_packet_fields () =
  let p = Packet.make ~flow:3 ~seq:7 ~len:100 ~born:1.5 () in
  check_int "flow" 3 p.Packet.flow;
  check_int "seq" 7 p.Packet.seq;
  check_int "len" 100 p.Packet.len;
  check_float "born" 1.5 p.Packet.born;
  check_bool "no rate" true (p.Packet.rate = None)

let test_packet_rate_override () =
  let p = pkt ~rate:64000.0 ~flow:1 ~seq:1 ~len:8 () in
  check_bool "rate" true (p.Packet.rate = Some 64000.0)

let test_packet_validation () =
  Alcotest.check_raises "len" (Invalid_argument "Packet.make: len must be positive")
    (fun () -> ignore (pkt ~flow:1 ~seq:1 ~len:0 ()));
  Alcotest.check_raises "seq" (Invalid_argument "Packet.make: seq must be positive")
    (fun () -> ignore (pkt ~flow:1 ~seq:0 ~len:1 ()));
  Alcotest.check_raises "rate" (Invalid_argument "Packet.make: rate must be positive")
    (fun () -> ignore (pkt ~rate:0.0 ~flow:1 ~seq:1 ~len:1 ()))

let test_packet_conversions () =
  check_int "bits" 1600 (Packet.bits_of_bytes 200);
  check_int "bytes" 200 (Packet.bytes_of_bits 1600)

let test_packet_compare () =
  let a = pkt ~flow:1 ~seq:2 ~len:1 () and b = pkt ~flow:1 ~seq:3 ~len:1 () in
  let c = pkt ~flow:2 ~seq:1 ~len:1 () in
  check_bool "same flow by seq" true (Packet.compare_by_flow_seq a b < 0);
  check_bool "by flow" true (Packet.compare_by_flow_seq a c < 0);
  check_bool "equal" true (Packet.compare_by_flow_seq a a = 0)

let test_packet_to_string () =
  let p = pkt ~flow:1 ~seq:2 ~len:3 () in
  check_bool "mentions flow" true
    (String.length (Packet.to_string p) > 0
    && String.index_opt (Packet.to_string p) '1' <> None)

(* ------------------------------------------------------------------ *)
(* Flow_table                                                           *)

let test_flow_table_default () =
  let t = Flow_table.create ~default:(fun f -> f * 10) in
  check_int "default computed" 30 (Flow_table.find t 3);
  check_bool "entry created" true (Flow_table.mem t 3);
  check_bool "find_opt does not create" true (Flow_table.find_opt t 4 = None);
  check_bool "still absent" false (Flow_table.mem t 4)

let test_flow_table_set_remove () =
  let t = Flow_table.create ~default:(fun _ -> 0) in
  Flow_table.set t 1 42;
  check_int "set" 42 (Flow_table.find t 1);
  Flow_table.remove t 1;
  check_int "default after remove" 0 (Flow_table.find t 1)

let test_flow_table_flows_sorted () =
  let t = Flow_table.create ~default:(fun _ -> ()) in
  List.iter (fun f -> ignore (Flow_table.find t f)) [ 5; 1; 3 ];
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5 ] (Flow_table.flows t)

let test_flow_table_fold_iter () =
  let t = Flow_table.create ~default:(fun _ -> 1) in
  List.iter (fun f -> ignore (Flow_table.find t f)) [ 1; 2; 3 ];
  check_int "fold count" 3 (Flow_table.fold t ~init:0 ~f:(fun _ v acc -> acc + v));
  let n = ref 0 in
  Flow_table.iter t ~f:(fun _ _ -> incr n);
  check_int "iter count" 3 !n;
  check_int "length" 3 (Flow_table.length t)

let test_flow_table_clear () =
  let t = Flow_table.create ~default:(fun _ -> 0) in
  ignore (Flow_table.find t 1);
  Flow_table.clear t;
  check_int "empty" 0 (Flow_table.length t)

(* Ids outside [0, 2^20) go to a hashtable made on the first of them. *)
let test_flow_table_sparse_ids () =
  let t = Flow_table.create ~default:(fun f -> f) in
  let big = Flow_table.dense_limit in
  check_bool "absent before any sparse id" false (Flow_table.mem t (-3));
  check_bool "find_opt absent" true (Flow_table.find_opt t big = None);
  Flow_table.remove t (-3);
  check_int "default for a sparse id" (-3) (Flow_table.find t (-3));
  Flow_table.set t big 7;
  Flow_table.set t 2 9;
  check_int "set sparse" 7 (Flow_table.find t big);
  Alcotest.(check (list int)) "flows" [ -3; 2; big ] (Flow_table.flows t);
  check_int "length" 3 (Flow_table.length t);
  Flow_table.remove t (-3);
  check_bool "removed" false (Flow_table.mem t (-3));
  Flow_table.clear t;
  check_int "cleared" 0 (Flow_table.length t);
  check_bool "sparse cleared" false (Flow_table.mem t big)

(* ------------------------------------------------------------------ *)
(* Weights                                                              *)

let test_weights_uniform () =
  let w = Weights.uniform 2.5 in
  check_float "any flow" 2.5 (Weights.get w 1);
  check_float "another" 2.5 (Weights.get w 99)

let test_weights_of_list () =
  let w = Weights.of_list ~default:1.0 [ (1, 3.0); (2, 5.0) ] in
  check_float "listed" 3.0 (Weights.get w 1);
  check_float "listed 2" 5.0 (Weights.get w 2);
  check_float "default" 1.0 (Weights.get w 7)

let test_weights_of_list_ranges () =
  let big = Flow_table.dense_limit + 5 in
  let w =
    Weights.of_list ~default:2.0 [ (3, 4.0); (-1, 6.0); (big, 8.0); (3, 5.0); (-1, 7.0) ]
  in
  check_float "later binding wins (dense)" 5.0 (Weights.get w 3);
  check_float "later binding wins (sparse)" 7.0 (Weights.get w (-1));
  check_float "large id" 8.0 (Weights.get w big);
  check_float "unlisted below the largest" 2.0 (Weights.get w 1);
  check_float "unlisted above the largest" 2.0 (Weights.get w 4);
  check_float "unlisted sparse" 2.0 (Weights.get w (-7))

(* Listed and unlisted dense ids are answered without a [Some] or a
   fresh float box, which a flat [float array] would make per lookup. *)
let test_weights_lookup_allocates_nothing () =
  let w = Weights.of_list ~default:1.0 [ (1, 3.0); (4, 5.0) ] in
  let acc = [| 0.0 |] in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    acc.(0) <- acc.(0) +. Weights.get w (i land 7)
  done;
  let words = Gc.minor_words () -. before in
  check_float "sum" 17_500.0 acc.(0);
  check_float "minor words over 10k lookups" 0.0 words

let test_weights_validation () =
  Alcotest.check_raises "uniform" (Invalid_argument "Weights: weight must be positive")
    (fun () -> ignore (Weights.uniform 0.0));
  Alcotest.check_raises "of_list" (Invalid_argument "Weights: weight must be positive")
    (fun () -> ignore (Weights.of_list [ (1, -1.0) ]))

let test_weights_set_shadows () =
  let w = Weights.of_list [ (1, 3.0) ] in
  let w' = Weights.set w 1 9.0 in
  check_float "updated" 9.0 (Weights.get w' 1);
  check_float "original untouched" 3.0 (Weights.get w 1)

let test_weights_total () =
  let w = Weights.of_list ~default:1.0 [ (1, 3.0); (2, 5.0) ] in
  check_float "total" 9.0 (Weights.total w [ 1; 2; 3 ])

let test_weights_of_fun_checked () =
  let w = Weights.of_fun (fun f -> if f = 0 then -1.0 else 1.0) in
  check_float "valid flow" 1.0 (Weights.get w 1);
  Alcotest.check_raises "invalid returned weight"
    (Invalid_argument "Weights: weight must be positive") (fun () ->
      ignore (Weights.get w 0))

(* ------------------------------------------------------------------ *)
(* Sched helpers                                                        *)

let fifo_sched () =
  (* A minimal in-module FIFO to test the record helpers without
     depending on sfq.sched. *)
  let q = Queue.create () in
  {
    Sched.name = "test-fifo";
    enqueue = (fun ~now:_ p -> Queue.push p q);
    dequeue = (fun ~now:_ -> Queue.take_opt q);
    peek = (fun () -> Queue.peek_opt q);
    size = (fun () -> Queue.length q);
    backlog = (fun _ -> Queue.length q);
    evict = Sched.no_evict;
    close_flow = (fun ~now:_ _ -> []);
  }

let test_sched_is_empty () =
  let s = fifo_sched () in
  check_bool "empty" true (Sched.is_empty s);
  s.Sched.enqueue ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:1 ());
  check_bool "non-empty" false (Sched.is_empty s)

let test_sched_drain () =
  let s = fifo_sched () in
  let p1 = pkt ~flow:1 ~seq:1 ~len:1 () and p2 = pkt ~flow:1 ~seq:2 ~len:1 () in
  s.Sched.enqueue ~now:0.0 p1;
  s.Sched.enqueue ~now:0.0 p2;
  let drained = Sched.drain s ~now:1.0 in
  check_int "drained" 2 (List.length drained);
  check_bool "fifo order" true (List.map (fun p -> p.Packet.seq) drained = [ 1; 2 ]);
  check_bool "empty after" true (Sched.is_empty s)

let () =
  Alcotest.run "base"
    [
      ( "packet",
        [
          Alcotest.test_case "fields" `Quick test_packet_fields;
          Alcotest.test_case "rate override" `Quick test_packet_rate_override;
          Alcotest.test_case "validation" `Quick test_packet_validation;
          Alcotest.test_case "conversions" `Quick test_packet_conversions;
          Alcotest.test_case "compare" `Quick test_packet_compare;
          Alcotest.test_case "to_string" `Quick test_packet_to_string;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "default" `Quick test_flow_table_default;
          Alcotest.test_case "set/remove" `Quick test_flow_table_set_remove;
          Alcotest.test_case "flows sorted" `Quick test_flow_table_flows_sorted;
          Alcotest.test_case "fold/iter" `Quick test_flow_table_fold_iter;
          Alcotest.test_case "clear" `Quick test_flow_table_clear;
          Alcotest.test_case "sparse ids" `Quick test_flow_table_sparse_ids;
        ] );
      ( "weights",
        [
          Alcotest.test_case "uniform" `Quick test_weights_uniform;
          Alcotest.test_case "of_list" `Quick test_weights_of_list;
          Alcotest.test_case "of_list id ranges" `Quick test_weights_of_list_ranges;
          Alcotest.test_case "lookup allocates nothing" `Quick
            test_weights_lookup_allocates_nothing;
          Alcotest.test_case "validation" `Quick test_weights_validation;
          Alcotest.test_case "set shadows" `Quick test_weights_set_shadows;
          Alcotest.test_case "total" `Quick test_weights_total;
          Alcotest.test_case "of_fun checked" `Quick test_weights_of_fun_checked;
        ] );
      ( "sched",
        [
          Alcotest.test_case "is_empty" `Quick test_sched_is_empty;
          Alcotest.test_case "drain" `Quick test_sched_drain;
        ] );
    ]
