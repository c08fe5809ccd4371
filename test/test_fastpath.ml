(* Int tags and SP-PIFO: Tag codec unit tests, Iheap model properties
   mirroring the Fheap trio, a cross-heap tie-order check (int-tag ties
   must resolve exactly like float-tag ties), SP-PIFO's zero-allocation
   steady state, its adaptation rule and its conservation under random
   eviction and closure. The rank programs built on the
   same codec are held to their float originals in test_pifo_equiv. *)

open Sfq_base
module Tag = Sfq_pifo.Tag
module Sp_pifo = Sfq_pifo.Sp_pifo
module Fheap = Sfq_util.Fheap
module Iheap = Sfq_util.Iheap
module Rng = Sfq_util.Rng
module Sfq = Sfq_core.Sfq

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Tag codec                                                            *)

let c20 = Tag.make ()

let test_tag_codec_basics () =
  check_int "default frac_bits" 20 (Tag.frac_bits c20);
  check_float "scale" 1048576.0 (Tag.scale c20);
  Alcotest.check_raises "frac_bits 53 rejected"
    (Invalid_argument "Tag.make: frac_bits must be in [0, 52]") (fun () ->
      ignore (Tag.make ~frac_bits:53 ()));
  Alcotest.check_raises "negative frac_bits rejected"
    (Invalid_argument "Tag.make: frac_bits must be in [0, 52]") (fun () ->
      ignore (Tag.make ~frac_bits:(-1) ()))

let test_tag_dyadic_roundtrip () =
  (* Dyadic rationals within 20 fractional bits encode exactly. *)
  List.iter
    (fun v -> check_float (Printf.sprintf "roundtrip %g" v) v Tag.(decode c20 (encode c20 v)))
    [ 0.0; 1.0; 0.5; 0.25; 3.125; 1024.0; 1e6 +. (1.0 /. 1048576.0) ];
  (* Non-dyadic values land within half a quantum. *)
  List.iter
    (fun v ->
      let err = Float.abs (Tag.(decode c20 (encode c20 v)) -. v) in
      check_bool
        (Printf.sprintf "%g within half a quantum (err %g)" v err)
        true
        (err <= 0.5 /. 1048576.0))
    [ 0.1; 1.0 /. 3.0; 123.456 ]

let test_tag_codec_clamps () =
  check_int "negative clamps to 0" 0 (Tag.encode c20 (-5.0));
  check_int "rail clamp" Tag.max_tag (Tag.encode c20 1e30);
  check_int "infinity clamp" Tag.max_tag (Tag.encode c20 infinity)

let test_tag_delta () =
  let sor = Tag.scale_over c20 ~rate:100.0 in
  check_int "exact delta" (1 lsl 20) (Tag.delta ~sor ~len:100);
  check_int "sub-quantum clamps to 1" 1
    (Tag.delta ~sor:(Tag.scale_over c20 ~rate:1e18) ~len:100);
  check_int "huge delta clamps to rail" Tag.max_tag
    (Tag.delta ~sor:(Tag.scale_over c20 ~rate:1e-10) ~len:1000);
  Alcotest.check_raises "non-positive rate rejected"
    (Invalid_argument "Tag.scale_over: rate must be positive") (fun () ->
      ignore (Tag.scale_over c20 ~rate:0.0))

let test_tag_saturation () =
  check_int "max_tag is half max_int" (max_int / 2) Tag.max_tag;
  check_int "sat_add saturates" Tag.max_tag (Tag.sat_add Tag.max_tag 1);
  check_int "sat_add below rail is exact" (Tag.max_tag - 2)
    (Tag.sat_add (Tag.max_tag - 5) 3);
  check_bool "rail is saturated" true (Tag.is_saturated Tag.max_tag);
  check_bool "below rail is not" false (Tag.is_saturated (Tag.max_tag - 1));
  check_float "no headroom at the rail" 0.0 (Tag.headroom c20 Tag.max_tag);
  check_float "full headroom at 0" (Tag.decode c20 Tag.max_tag) (Tag.headroom c20 0)

let test_tie_encode_directed () =
  check_int "zero maps to zero" 0 (Tag.tie_encode 0.0);
  check_int "antisymmetric" (-Tag.tie_encode 2.5) (Tag.tie_encode (-2.5));
  check_bool "sign order" true (Tag.tie_encode (-1.0) < Tag.tie_encode 1.0);
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Tag.tie_encode: NaN tie")
    (fun () -> ignore (Tag.tie_encode Float.nan))

(* The saturation boundary of the tie codec: the extremes of the float
   line must saturate the int image in order, never wrap to the
   opposite sign. A wrap here would silently invert tie priority for
   the largest weights — exactly the kind of bug the mli promises
   away, so it gets its own directed test. *)
let test_tie_encode_saturation_boundary () =
  let inf = Tag.tie_encode Float.infinity in
  let max_f = Tag.tie_encode Float.max_float in
  check_bool "infinity image is positive (no wrap)" true (inf > 0);
  check_bool "infinity above max_float" true (inf > max_f);
  check_bool "max_float above any ordinary tie" true (max_f > Tag.tie_encode 1e30);
  check_int "neg_infinity is the exact negation" (-inf)
    (Tag.tie_encode Float.neg_infinity);
  check_bool "neg_infinity below -max_float" true
    (Tag.tie_encode Float.neg_infinity < Tag.tie_encode (-.Float.max_float));
  check_int "negative zero collapses onto zero" 0 (Tag.tie_encode (-0.0));
  check_bool "subnormals stay above zero" true (Tag.tie_encode Float.min_float > 0);
  (* headroom sanity: the whole image fits an OCaml int, so negating
     the rail (the antisymmetric branch) cannot overflow either *)
  check_bool "rail fits with room to negate" true (inf < max_int)

let prop_tie_encode_monotone =
  QCheck.Test.make ~name:"tag: tie_encode is monotone" ~count:1000
    QCheck.(pair (float_range (-1e9) 1e9) (float_range (-1e9) 1e9))
    (fun (a, b) ->
      if a <= b then Tag.tie_encode a <= Tag.tie_encode b
      else Tag.tie_encode a >= Tag.tie_encode b)

(* ------------------------------------------------------------------ *)
(* Iheap: the int sibling of Fheap, same model properties               *)

let iheap_drain h =
  let rec go acc =
    match Iheap.pop h with None -> List.rev acc | Some (_, v) -> go (v :: acc)
  in
  go []

let test_iheap_empty () =
  let h = Iheap.create () in
  check_int "length" 0 (Iheap.length h);
  check_bool "is_empty" true (Iheap.is_empty h);
  check_bool "pop" true (Iheap.pop h = None);
  check_bool "min" true (Iheap.min h = None);
  Alcotest.check_raises "min_key_exn" (Invalid_argument "Iheap.min_key_exn: empty heap")
    (fun () -> ignore (Iheap.min_key_exn h))

let test_iheap_basics () =
  let h = Iheap.create ~capacity:1 () in
  List.iteri (fun i k -> Iheap.add h ~key:k ~tie:0 ~uid:i k) [ 3; 1; 4; 2 ];
  check_int "min_key_exn" 1 (Iheap.min_key_exn h);
  check_int "min_elt_exn" 1 (Iheap.min_elt_exn h);
  check_bool "min" true (Iheap.min h = Some (1, 1));
  check_bool "min_elt" true (Iheap.min_elt h = Some 1);
  (* The non-allocating removal pair agrees with pop. *)
  Iheap.remove_root h;
  check_bool "pop after remove_root" true (Iheap.pop h = Some (2, 2));
  check_bool "pop_elt" true (Iheap.pop_elt h = Some 3);
  check_int "length" 1 (Iheap.length h);
  check_bool "capacity covers length" true (Iheap.capacity h >= Iheap.length h);
  Iheap.clear h;
  check_bool "cleared" true (Iheap.is_empty h)

let test_iheap_remove_matching () =
  let h = Iheap.create () in
  List.iteri (fun i v -> Iheap.add h ~key:5 ~tie:0 ~uid:i v) [ 10; 20; 10; 30 ];
  check_bool "oldest match" true
    (Iheap.remove_matching h ~pred:(fun v -> v = 10) = Some (5, 10));
  check_bool "newest match" true
    (Iheap.remove_matching ~newest:true h ~pred:(fun v -> v >= 10) = Some (5, 30));
  check_bool "no match" true (Iheap.remove_matching h ~pred:(fun v -> v = 99) = None);
  check_int "two left" 2 (Iheap.length h)

let iheap_entries_gen = QCheck.Gen.(list_size (0 -- 80) (pair (0 -- 5) (0 -- 3)))
let iheap_entries_print = QCheck.Print.(list (pair int int))

let prop_iheap_pop_order_matches_reference =
  (* Pop order is ascending (key, tie, uid) — the reference is a plain
     sort of the insertion triples, as in the Fheap property. *)
  QCheck.Test.make ~name:"iheap: drains in (key, tie, uid) order" ~count:300
    (QCheck.make iheap_entries_gen ~print:iheap_entries_print)
    (fun entries ->
      let h = Iheap.create ~capacity:1 () in
      List.iteri (fun uid (k, t) -> Iheap.add h ~key:k ~tie:t ~uid uid) entries;
      let reference =
        List.mapi (fun uid (k, t) -> (k, t, uid)) entries
        |> List.sort compare
        |> List.map (fun (_, _, uid) -> uid)
      in
      iheap_drain h = reference)

let prop_iheap_tie_uid_stability =
  (* With key and tie fully degenerate, uid alone must make the order
     total: pops come out in insertion (FIFO) order. *)
  QCheck.Test.make ~name:"iheap: equal keys and ties pop in uid order" ~count:300
    QCheck.(0 -- 60)
    (fun n ->
      let h = Iheap.create () in
      for uid = 0 to n - 1 do
        Iheap.add h ~key:7 ~tie:2 ~uid uid
      done;
      iheap_drain h = List.init n (fun i -> i))

(* Operation 0 pops, 1 adds and 2 replaces the root (an empty heap
   must refuse that), as in the Fheap property. *)
let prop_iheap_interleaved =
  QCheck.Test.make ~name:"iheap: matches sorted-list model under interleaving"
    ~count:200
    QCheck.(list (pair (0 -- 2) (pair (0 -- 5) (0 -- 3))))
    (fun ops ->
      let h = Iheap.create () in
      let model = ref [] in
      let uid = ref 0 in
      let model_min () =
        match List.sort compare !model with [] -> None | (key, _, u) :: _ -> Some (key, u)
      in
      List.for_all
        (fun (op, (k, t)) ->
          match op with
          | 0 ->
            let expected =
              match List.sort compare !model with
              | [] -> None
              | ((key, _, u) as min) :: _ ->
                model := List.filter (fun x -> x <> min) !model;
                Some (key, u)
            in
            Iheap.pop h = expected
          | 1 ->
            Iheap.add h ~key:k ~tie:t ~uid:!uid !uid;
            model := (k, t, !uid) :: !model;
            incr uid;
            true
          | _ -> (
            match List.sort compare !model with
            | [] -> (
              match Iheap.replace_root h ~key:k ~tie:t ~uid:!uid !uid with
              | () -> false
              | exception Invalid_argument _ -> true)
            | min :: _ ->
              Iheap.replace_root h ~key:k ~tie:t ~uid:!uid !uid;
              model := (k, t, !uid) :: List.filter (fun x -> x <> min) !model;
              incr uid;
              Iheap.min h = model_min ()))
        ops
      && Iheap.length h = List.length !model)

let prop_cross_heap_tie_agreement =
  (* Satellite check for the rank programs' differential premise: feed
     the same (key, tie) stream to Fheap as floats and to Iheap through
     the fixed-point codec / tie_encode, and the two heaps must drain
     identically — int-tag ties resolve exactly like float-tag ties,
     both falling through to the uid. Keys in small integers so the
     encoding is exact. *)
  QCheck.Test.make ~name:"fheap/iheap: identical drain order on encoded keys"
    ~count:300
    (QCheck.make iheap_entries_gen ~print:iheap_entries_print)
    (fun entries ->
      let fh = Fheap.create () and ih = Iheap.create () in
      List.iteri
        (fun uid (k, t) ->
          let kf = float_of_int k and tf = float_of_int t /. 4.0 in
          Fheap.add fh ~key:kf ~tie:tf ~uid uid;
          Iheap.add ih ~key:(Tag.encode c20 kf) ~tie:(Tag.tie_encode tf) ~uid uid)
        entries;
      let rec fdrain acc =
        match Fheap.pop fh with None -> List.rev acc | Some (_, v) -> fdrain (v :: acc)
      in
      fdrain [] = iheap_drain ih)

(* ------------------------------------------------------------------ *)
(* Zero-allocation steady state                                         *)

let alloc_pkts n = Array.init n (fun f -> Packet.make ~flow:f ~seq:1 ~len:1000 ~born:0.0 ())

(* Warm (so rings and tables reach peak capacity), compact, then count
   minor words over 10k enqueue/dequeue pairs. *)
let alloc_delta step =
  for _ = 1 to 2_000 do
    step ()
  done;
  Gc.compact ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    step ()
  done;
  Gc.minor_words () -. before

let test_zero_alloc_steady_state () =
  let sp_pifo_step n =
    let t = Sp_pifo.create (Weights.uniform 100.0) in
    let pkts = alloc_pkts n in
    Array.iter (Sp_pifo.enqueue t ~now:0.0) pkts;
    let i = ref 0 in
    fun () ->
      Sp_pifo.enqueue t ~now:0.0 pkts.(!i);
      i := (!i + 1) land (n - 1);
      ignore (Sp_pifo.dequeue_exn t)
  in
  List.iter
    (fun n ->
      let d = alloc_delta (sp_pifo_step n) in
      check_bool
        (Printf.sprintf "sp-pifo at %d flows: %.0f minor words over 10k op pairs" n d)
        true (d = 0.0))
    [ 32; 64; 512 ];
  (* Contrast: the float scheduler allocates on every operation, so the
     measurement can see an allocating stepper. *)
  let float_step =
    let n = 32 in
    let t = Sfq.create (Weights.uniform 100.0) in
    let pkts = alloc_pkts n in
    Array.iter (Sfq.enqueue t ~now:0.0) pkts;
    let i = ref 0 in
    fun () ->
      Sfq.enqueue t ~now:0.0 pkts.(!i);
      i := (!i + 1) land (n - 1);
      ignore (Sfq.dequeue t ~now:0.0)
  in
  check_bool "float sfq allocates" true (alloc_delta float_step > 1000.0)

(* ------------------------------------------------------------------ *)
(* SP-PIFO                                                              *)

let opt_is p = function Some q -> q == p | None -> false

let drain_n t n =
  let rec go acc n = if n = 0 then List.rev acc else go (Sp_pifo.dequeue_exn t :: acc) (n - 1) in
  go [] n

let test_sp_pifo_create_validation () =
  Alcotest.check_raises "banks 0 rejected"
    (Invalid_argument "Sp_pifo.create: banks must be >= 1") (fun () ->
      ignore (Sp_pifo.create ~banks:0 (Weights.uniform 1.0)))

let test_sp_pifo_single_bank_is_fifo () =
  (* One bank: every admission lands in the same FIFO, so service is
     exactly arrival order no matter how wild the ranks are. *)
  let w = Weights.of_list ~default:1.0 [ (0, 3200.0); (1, 100.0); (2, 800.0) ] in
  let t = Sp_pifo.create ~banks:1 w in
  let r = Rng.create 42 in
  let seqs = Array.make 3 0 in
  let pkts = ref [] in
  for _ = 1 to 40 do
    let f = Rng.int r 3 in
    seqs.(f) <- seqs.(f) + 1;
    let pk =
      Packet.make ~flow:f ~seq:seqs.(f) ~len:(100 * (1 + Rng.int r 10)) ~born:0.0 ()
    in
    Sp_pifo.enqueue t ~now:0.0 pk;
    pkts := pk :: !pkts
  done;
  let pkts = List.rev !pkts in
  check_int "one bank" 1 (Sp_pifo.banks t);
  let out = drain_n t 40 in
  check_bool "global FIFO" true (List.for_all2 ( == ) pkts out);
  check_bool "drained" true (Sp_pifo.is_empty t)

let ascending a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then ok := false
  done;
  !ok

let test_sp_pifo_bounds_stay_sorted () =
  let w = Weights.of_list ~default:1.0 [ (0, 3200.0); (1, 100.0) ] in
  let t = Sp_pifo.create ~banks:4 w in
  let r = Rng.create 7 in
  let seqs = Array.make 2 0 in
  for i = 1 to 60 do
    let f = Rng.int r 2 in
    seqs.(f) <- seqs.(f) + 1;
    Sp_pifo.enqueue t ~now:0.0
      (Packet.make ~flow:f ~seq:seqs.(f) ~len:(100 * (1 + Rng.int r 10)) ~born:0.0 ());
    check_bool
      (Printf.sprintf "bounds ascending after admission %d" i)
      true
      (ascending (Sp_pifo.bounds t));
    (* Every admission is exactly one push-up or one push-down. *)
    check_int "admissions accounted" i (Sp_pifo.pushups t + Sp_pifo.pushdowns t);
    if Rng.int r 3 = 0 && not (Sp_pifo.is_empty t) then ignore (Sp_pifo.dequeue_exn t)
  done

let test_sp_pifo_pushdown_adaptation () =
  (* Directed replay of the NSDI'20 adaptation rule at 20 fractional
     bits, two banks: a slow flow (rate 100) drives bank 1's bound up,
     a fast flow (rate 3200) occupies bank 0, and a fresh flow arriving
     at v — below both bounds — must trigger the collective push-down
     by exactly bound_0 - v. Every quantity is dyadic, so the bound
     values are exact. *)
  let q = 1 lsl 20 in
  let w = Weights.of_list ~default:1.0 [ (0, 100.0); (1, 3200.0) ] in
  let t = Sp_pifo.create ~banks:2 ~frac_bits:20 w in
  let p f seq len = Packet.make ~flow:f ~seq ~len ~born:0.0 () in
  let s1 = p 0 1 1000 in
  let s2 = p 0 2 1000 in
  let s3 = p 0 3 1000 in
  let f1 = p 1 1 100 in
  let s4 = p 0 4 1000 in
  let f2 = p 1 2 100 in
  let f3 = p 1 3 100 in
  let g1 = p 2 1 100 in
  (* Slow-flow deltas are 10q, fast-flow deltas q/32. *)
  List.iter (Sp_pifo.enqueue t ~now:0.0) [ s1; s2; s3; f1 ];
  check_bool "bounds after warmup" true (Sp_pifo.bounds t = [| 0; 20 * q |]);
  check_bool "f1 from bank 0" true (Sp_pifo.dequeue_exn t == f1);
  check_bool "s1 next" true (Sp_pifo.dequeue_exn t == s1);
  check_bool "s2 next" true (Sp_pifo.dequeue_exn t == s2);
  (* v is now 10q (s2's rank). *)
  check_int "v tracks served rank" (10 * q) (Sp_pifo.vtag t);
  List.iter (Sp_pifo.enqueue t ~now:0.0) [ s4; f2; f3 ];
  check_bool "bounds before inversion" true
    (Sp_pifo.bounds t = [| (10 * q) + (q / 32); 30 * q |]);
  check_int "no pushdowns yet" 0 (Sp_pifo.pushdowns t);
  check_bool "f2 from bank 0" true (Sp_pifo.dequeue_exn t == f2);
  (* g1 enters at rank v = 10q, below every bound: push-down. *)
  Sp_pifo.enqueue t ~now:0.0 g1;
  check_int "one pushdown" 1 (Sp_pifo.pushdowns t);
  check_int "seven pushups" 7 (Sp_pifo.pushups t);
  check_bool "bounds dropped by the overshoot" true
    (Sp_pifo.bounds t = [| 10 * q; (30 * q) - (q / 32) |]);
  check_bool "bounds still ascending" true (ascending (Sp_pifo.bounds t));
  (* Strict-priority service: bank 0 (f3 then the pushed-down g1),
     then bank 1's slow-flow tail. *)
  let order = drain_n t 4 in
  check_bool "service order" true (List.for_all2 ( == ) order [ f3; g1; s3; s4 ]);
  check_bool "drained" true (Sp_pifo.is_empty t)

let test_sp_pifo_evict_close () =
  let t = Sp_pifo.create ~banks:4 (Weights.uniform 100.0) in
  let p f seq = Packet.make ~flow:f ~seq ~len:100 ~born:0.0 () in
  let p00 = p 0 1 in
  let p01 = p 0 2 in
  let p02 = p 0 3 in
  let p10 = p 1 1 in
  let p11 = p 1 2 in
  List.iter (Sp_pifo.enqueue t ~now:0.0) [ p00; p10; p01; p11; p02 ];
  check_int "size" 5 (Sp_pifo.size t);
  check_int "backlog flow 0" 3 (Sp_pifo.backlog t 0);
  check_bool "evict oldest of flow 0" true (opt_is p00 (Sp_pifo.evict t Sched.Oldest 0));
  check_bool "evict newest of flow 0" true (opt_is p02 (Sp_pifo.evict t Sched.Newest 0));
  check_int "backlog after evictions" 1 (Sp_pifo.backlog t 0);
  let closed = Sp_pifo.close_flow t 1 in
  check_bool "close returns oldest first" true
    (List.length closed = 2 && List.for_all2 ( == ) closed [ p10; p11 ]);
  check_int "backlog of closed flow" 0 (Sp_pifo.backlog t 1);
  check_bool "last survivor" true (opt_is p01 (Sp_pifo.peek t));
  check_bool "dequeues it" true (Sp_pifo.dequeue_exn t == p01);
  (* conservation: 5 enqueued = 2 evicted + 2 closed + 1 dequeued *)
  check_bool "empty" true (Sp_pifo.is_empty t);
  check_bool "evict on empty flow" true (Sp_pifo.evict t Sched.Oldest 0 = None);
  check_bool "close on empty flow" true (Sp_pifo.close_flow t 0 = []);
  Alcotest.check_raises "dequeue_exn on empty"
    (Invalid_argument "Sp_pifo.dequeue_exn: empty queue") (fun () ->
      ignore (Sp_pifo.dequeue_exn t))

(* The conservation law of DESIGN.md §10 under random interleavings of
   admission, service, eviction and closure, against an arrival-order
   model. Service order is approximate (rank inversions are allowed),
   so a served packet need only be one the model still holds; eviction
   and closure are exact: Oldest/Newest by arrival, closure oldest
   first. *)
type sp_op = Enq of int * int | Deq | Evict of bool * int | Close of int

let sp_ops_gen =
  QCheck.Gen.(
    list_size (0 -- 120)
      (frequency
         [
           (6, map2 (fun f l -> Enq (f, l)) (0 -- 3) (1 -- 10));
           (4, return Deq);
           (1, map2 (fun n f -> Evict (n, f)) bool (0 -- 3));
           (1, map (fun f -> Close f) (0 -- 3));
         ]))

let sp_ops_print =
  QCheck.Print.list (function
    | Enq (f, l) -> Printf.sprintf "enq %d/%d" f l
    | Deq -> "deq"
    | Evict (n, f) -> Printf.sprintf "evict %s %d" (if n then "newest" else "oldest") f
    | Close f -> Printf.sprintf "close %d" f)

let prop_sp_pifo_conservation =
  QCheck.Test.make ~name:"sp-pifo: every admitted packet leaves exactly once" ~count:300
    (QCheck.make sp_ops_gen ~print:sp_ops_print)
    (fun ops ->
      let w = Weights.of_list ~default:1.0 [ (0, 3200.0); (1, 100.0); (2, 800.0) ] in
      let t = Sp_pifo.create ~banks:3 w in
      let seqs = Array.make 4 0 in
      (* queued packets, oldest first *)
      let model = ref [] in
      let of_flow f = List.filter (fun p -> p.Packet.flow = f) !model in
      let forget p = model := List.filter (fun q -> q != p) !model in
      let step = function
        | Enq (f, l) ->
          seqs.(f) <- seqs.(f) + 1;
          let p = Packet.make ~flow:f ~seq:seqs.(f) ~len:(100 * l) ~born:0.0 () in
          Sp_pifo.enqueue t ~now:0.0 p;
          model := !model @ [ p ];
          true
        | Deq -> (
          match Sp_pifo.dequeue t ~now:0.0 with
          | None -> !model = []
          | Some p ->
            let held = List.exists (fun q -> q == p) !model in
            forget p;
            held)
        | Evict (newest, f) -> (
          let expected =
            match of_flow f with
            | [] -> None
            | q :: _ as qs -> Some (if newest then List.nth qs (List.length qs - 1) else q)
          in
          let victim = if newest then Sched.Newest else Sched.Oldest in
          match (Sp_pifo.evict t victim f, expected) with
          | None, None -> true
          | Some p, Some q when p == q ->
            forget p;
            true
          | _ -> false)
        | Close f ->
          let expected = of_flow f in
          let closed = Sp_pifo.close_flow t f in
          List.iter forget expected;
          List.length closed = List.length expected && List.for_all2 ( == ) closed expected
      in
      let accounted () =
        Sp_pifo.size t = List.length !model
        && List.for_all (fun f -> Sp_pifo.backlog t f = List.length (of_flow f)) [ 0; 1; 2; 3 ]
        && ascending (Sp_pifo.bounds t)
      in
      List.for_all (fun op -> step op && accounted ()) ops
      &&
      let rest = drain_n t (List.length !model) in
      Sp_pifo.is_empty t
      && List.for_all (fun p -> List.exists (fun q -> q == p) rest) !model)

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "fastpath"
    [
      ( "tag",
        [
          Alcotest.test_case "codec basics" `Quick test_tag_codec_basics;
          Alcotest.test_case "dyadic roundtrip" `Quick test_tag_dyadic_roundtrip;
          Alcotest.test_case "clamps" `Quick test_tag_codec_clamps;
          Alcotest.test_case "delta" `Quick test_tag_delta;
          Alcotest.test_case "saturation" `Quick test_tag_saturation;
          Alcotest.test_case "tie_encode directed" `Quick test_tie_encode_directed;
          Alcotest.test_case "tie_encode saturation boundary" `Quick
            test_tie_encode_saturation_boundary;
          q prop_tie_encode_monotone;
        ] );
      ( "iheap",
        [
          Alcotest.test_case "empty" `Quick test_iheap_empty;
          Alcotest.test_case "basics" `Quick test_iheap_basics;
          Alcotest.test_case "remove_matching" `Quick test_iheap_remove_matching;
          q prop_iheap_pop_order_matches_reference;
          q prop_iheap_tie_uid_stability;
          q prop_iheap_interleaved;
          q prop_cross_heap_tie_agreement;
        ] );
      ( "allocation",
        [ Alcotest.test_case "zero-alloc steady state" `Quick test_zero_alloc_steady_state ] );
      ( "sp_pifo",
        [
          Alcotest.test_case "create validation" `Quick test_sp_pifo_create_validation;
          Alcotest.test_case "single bank is FIFO" `Quick test_sp_pifo_single_bank_is_fifo;
          Alcotest.test_case "bounds stay sorted" `Quick test_sp_pifo_bounds_stay_sorted;
          Alcotest.test_case "push-down adaptation" `Quick test_sp_pifo_pushdown_adaptation;
          Alcotest.test_case "evict and close" `Quick test_sp_pifo_evict_close;
        ] );
      ("conservation", [ q prop_sp_pifo_conservation ]);
    ]
