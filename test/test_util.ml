(* Unit and property tests for sfq.util: heap, rng, stats, running_min,
   vec, slot_map, text_table. *)

open Sfq_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Ds_heap                                                              *)

let heap_of list =
  let h = Ds_heap.create ~cmp:compare () in
  List.iter (Ds_heap.add h) list;
  h

let test_heap_empty () =
  let h = Ds_heap.create ~cmp:compare () in
  check_bool "empty" true (Ds_heap.is_empty h);
  check_int "length" 0 (Ds_heap.length h);
  check_bool "min_elt none" true (Ds_heap.min_elt h = None);
  check_bool "pop none" true (Ds_heap.pop_min h = None)

let test_heap_pop_min_exn_empty () =
  let h = Ds_heap.create ~cmp:compare () in
  Alcotest.check_raises "raises" (Invalid_argument "Ds_heap.pop_min_exn: empty heap")
    (fun () -> ignore (Ds_heap.pop_min_exn h))

let test_heap_sorted_drain () =
  let h = heap_of [ 5; 1; 4; 1; 3; 9; 2 ] in
  let rec drain acc =
    match Ds_heap.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_min_elt_stable () =
  let h = heap_of [ 3; 1; 2 ] in
  check_bool "min is 1" true (Ds_heap.min_elt h = Some 1);
  check_int "length unchanged" 3 (Ds_heap.length h)

let test_heap_to_sorted_list_preserves () =
  let h = heap_of [ 4; 2; 7 ] in
  Alcotest.(check (list int)) "sorted view" [ 2; 4; 7 ] (Ds_heap.to_sorted_list h);
  check_int "heap intact" 3 (Ds_heap.length h);
  check_bool "min intact" true (Ds_heap.min_elt h = Some 2)

let test_heap_clear () =
  let h = heap_of [ 1; 2; 3 ] in
  Ds_heap.clear h;
  check_bool "empty after clear" true (Ds_heap.is_empty h);
  Ds_heap.add h 42;
  check_bool "usable after clear" true (Ds_heap.pop_min h = Some 42)

let test_heap_iter_counts () =
  let h = heap_of [ 1; 2; 3; 4 ] in
  let sum = ref 0 in
  Ds_heap.iter h ~f:(fun x -> sum := !sum + x);
  check_int "iter sum" 10 !sum

let test_heap_custom_cmp () =
  (* Max-heap via inverted comparison. *)
  let h = Ds_heap.create ~cmp:(fun a b -> compare b a) () in
  List.iter (Ds_heap.add h) [ 1; 5; 3 ];
  check_bool "max first" true (Ds_heap.pop_min h = Some 5)

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"heap drains sorted (any int list)" ~count:300
    QCheck.(list int)
    (fun l ->
      let h = heap_of l in
      let rec drain acc =
        match Ds_heap.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare l)

let prop_heap_is_permutation =
  QCheck.Test.make ~name:"heap returns a permutation" ~count:300
    QCheck.(list small_int)
    (fun l ->
      let h = heap_of l in
      let rec drain acc =
        match Ds_heap.pop_min h with None -> acc | Some x -> drain (x :: acc)
      in
      List.sort compare (drain []) = List.sort compare l)

let prop_heap_interleaved =
  (* Interleave adds and pops; the pop sequence must be the same as a
     reference implementation over sorted lists. *)
  QCheck.Test.make ~name:"heap matches reference under interleaving" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Ds_heap.create ~cmp:compare () in
      let reference = ref [] in
      List.for_all
        (fun (is_pop, x) ->
          if is_pop then begin
            let expected =
              match List.sort compare !reference with
              | [] -> None
              | y :: rest ->
                reference := rest;
                Some y
            in
            (* [reference] was reassigned only when non-empty. *)
            Ds_heap.pop_min h = expected
          end
          else begin
            Ds_heap.add h x;
            reference := x :: !reference;
            true
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Fheap                                                                *)

let test_fheap_empty () =
  let h = Fheap.create () in
  check_int "length" 0 (Fheap.length h);
  check_bool "is_empty" true (Fheap.is_empty h);
  check_bool "pop" true (Fheap.pop h = None);
  check_bool "min" true (Fheap.min h = None);
  Alcotest.check_raises "min_key_exn" (Invalid_argument "Fheap.min_key_exn: empty heap")
    (fun () -> ignore (Fheap.min_key_exn h))

let test_fheap_min_agrees_with_pop () =
  let h = Fheap.create ~capacity:1 () in
  List.iteri
    (fun i k -> Fheap.add h ~key:k ~tie:0.0 ~uid:i (int_of_float k))
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  check_float "min_key_exn" 1.0 (Fheap.min_key_exn h);
  check_bool "min" true (Fheap.min h = Some (1.0, 1));
  check_bool "min_elt" true (Fheap.min_elt h = Some 1);
  check_bool "pop" true (Fheap.pop h = Some (1.0, 1));
  check_bool "pop_elt" true (Fheap.pop_elt h = Some 2);
  check_int "length" 3 (Fheap.length h);
  Fheap.clear h;
  check_bool "cleared" true (Fheap.is_empty h)

(* Steady-state add/pop through the non-allocating root accessors. The
   keys come preboxed (a float field of a mixed record), as they do from
   a caller's own arguments, so any word counted here is the heap's: a
   comparison that was not inlined would box two floats per sift level.
   Keys ascend with the payload, so payload order is key order. *)
type fh_entry = { fkey : float; fid : int }

let test_fheap_zero_alloc () =
  let n = 512 and warm = 1_000 and cycles = 100_000 in
  let entries = Array.init (n + warm + cycles) (fun i -> { fkey = float_of_int i; fid = i }) in
  let h = Fheap.create ~capacity:n () in
  (* the payload is the entry's index *)
  for i = 0 to n - 1 do
    Fheap.add h ~key:entries.(i).fkey ~tie:0.5 ~uid:i i
  done;
  (* pop the minimum, push the next entry: keys leave in ascending order *)
  let next = ref n and ordered = ref true in
  let cycle () =
    let e = entries.(Fheap.min_elt_exn h) in
    Fheap.remove_root h;
    if e.fid <> !next - n then ordered := false;
    Fheap.add h ~key:entries.(!next).fkey ~tie:0.5 ~uid:!next !next;
    incr next
  in
  for _ = 1 to warm do
    cycle ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to cycles do
    cycle ()
  done;
  let words = Gc.minor_words () -. before in
  check_bool "pops in key order" true !ordered;
  check_float "minor words over 100k add/pop cycles" 0.0 words

let fheap_entries_gen =
  (* Small (key, tie) ranges force plenty of collisions at every
     level of the lexicographic order. *)
  QCheck.Gen.(list_size (0 -- 80) (pair (0 -- 5) (0 -- 3)))

let fheap_entries_print = QCheck.Print.(list (pair int int))

let fheap_drain h =
  let rec go acc =
    match Fheap.pop h with None -> List.rev acc | Some (_, v) -> go (v :: acc)
  in
  go []

let prop_fheap_pop_order_matches_reference =
  (* Pop order is ascending (key, tie, uid) — the reference is a plain
     sort of the insertion triples. *)
  QCheck.Test.make ~name:"fheap: drains in (key, tie, uid) order" ~count:300
    (QCheck.make fheap_entries_gen ~print:fheap_entries_print)
    (fun entries ->
      let h = Fheap.create ~capacity:1 () in
      List.iteri
        (fun uid (k, t) ->
          Fheap.add h ~key:(float_of_int k) ~tie:(float_of_int t) ~uid uid)
        entries;
      let reference =
        List.mapi (fun uid (k, t) -> (k, t, uid)) entries
        |> List.sort compare
        |> List.map (fun (_, _, uid) -> uid)
      in
      fheap_drain h = reference)

let prop_fheap_tie_uid_stability =
  (* With key and tie fully degenerate, uid alone must make the order
     total: pops come out in insertion order regardless of heap
     internals. *)
  QCheck.Test.make ~name:"fheap: equal keys and ties pop in uid order" ~count:300
    QCheck.(0 -- 60)
    (fun n ->
      let h = Fheap.create () in
      for uid = 0 to n - 1 do
        Fheap.add h ~key:7.0 ~tie:2.5 ~uid uid
      done;
      fheap_drain h = List.init n (fun i -> i))

(* Operation 0 pops, 1 adds and 2 replaces the root (an empty heap
   must refuse that). After a replacement the root must be the model's
   minimum. *)
let prop_fheap_interleaved =
  QCheck.Test.make ~name:"fheap: matches sorted-list model under interleaving"
    ~count:200
    QCheck.(list (pair (0 -- 2) (pair (0 -- 5) (0 -- 3))))
    (fun ops ->
      let h = Fheap.create () in
      let model = ref [] in
      let uid = ref 0 in
      let model_min () =
        match List.sort compare !model with
        | [] -> None
        | (key, _, u) :: _ -> Some (float_of_int key, u)
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
                Some (float_of_int key, u)
            in
            Fheap.pop h = expected
          | 1 ->
            Fheap.add h ~key:(float_of_int k) ~tie:(float_of_int t) ~uid:!uid !uid;
            model := (k, t, !uid) :: !model;
            incr uid;
            true
          | _ -> (
            match List.sort compare !model with
            | [] -> (
              match
                Fheap.replace_root h ~key:(float_of_int k) ~tie:(float_of_int t) ~uid:!uid
                  !uid
              with
              | () -> false
              | exception Invalid_argument _ -> true)
            | min :: _ ->
              Fheap.replace_root h ~key:(float_of_int k) ~tie:(float_of_int t) ~uid:!uid
                !uid;
              model := (k, t, !uid) :: List.filter (fun x -> x <> min) !model;
              incr uid;
              Fheap.min h = model_min ()))
        ops
      && Fheap.length h = List.length !model)

(* ------------------------------------------------------------------ *)
(* Slab                                                                 *)

(* Operations 0 and 1 put (so the slab fills), 2 gets and 3 takes a
   live handle chosen by [x]. A put must return the handle most
   recently freed, or the next unused one; a handle once taken must be
   refused. Values are fresh blocks, compared physically. *)
let prop_slab_model =
  QCheck.Test.make ~name:"slab: matches a Hashtbl model, LIFO handle reuse" ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (pair (0 -- 3) small_nat))
    (fun ops ->
      let s = Slab.create () in
      let model = Hashtbl.create 16 in
      let freed = ref [] and issued = ref 0 in
      let pick x =
        let live = List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) model []) in
        match live with [] -> None | l -> Some (List.nth l (x mod List.length l))
      in
      let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
      List.for_all
        (fun (op, x) ->
          match op with
          | 0 | 1 ->
            let expected =
              match !freed with
              | h :: rest ->
                freed := rest;
                h
              | [] ->
                incr issued;
                !issued - 1
            in
            let v = ref x in
            let h = Slab.put s v in
            Hashtbl.replace model h v;
            h = expected
          | 2 -> (
            match pick x with None -> true | Some h -> Slab.get s h == Hashtbl.find model h)
          | _ -> (
            match pick x with
            | None -> refused (fun () -> Slab.take s !issued)
            | Some h ->
              let v = Slab.take s h in
              let ok = v == Hashtbl.find model h in
              Hashtbl.remove model h;
              freed := h :: !freed;
              ok && refused (fun () -> Slab.get s h) && refused (fun () -> Slab.take s h)))
        ops)

(* The value lives only in the slab; [@inline never] keeps this frame
   from holding it. *)
let[@inline never] put_tracked s w =
  let v = ref 1 in
  Weak.set w 0 (Some v);
  Slab.put s v

let[@inline never] take_dropped s h = ignore (Sys.opaque_identity (Slab.take s h))

(* An immediate needs no slab, and a free slot is told apart from a
   live one by holding an immediate. *)
let test_slab_refuses_immediates () =
  Alcotest.check_raises "int" (Invalid_argument "Slab.put: an immediate value needs no slab")
    (fun () -> ignore (Slab.put (Slab.create ()) 3));
  Alcotest.check_raises "constant constructor"
    (Invalid_argument "Slab.put: an immediate value needs no slab") (fun () ->
      ignore (Slab.put (Slab.create ()) None))

(* [take] clears the slot: the slab, still alive and holding another
   value, no longer keeps the taken value reachable. *)
let test_slab_take_releases () =
  let s = Slab.create () and w = Weak.create 1 in
  let h = put_tracked s w in
  let other = Slab.put s (ref 2) in
  take_dropped s h;
  Gc.full_major ();
  check_bool "taken value collected" false (Weak.check w 0);
  check_int "slab still alive" 2 !(Slab.get s other)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check_bool "split differs from parent continuation" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_float_bounds () =
  let r = Rng.create 99 in
  for _ = 1 to 1000 do
    let x = Rng.float r 3.5 in
    check_bool "in [0,3.5)" true (x >= 0.0 && x < 3.5)
  done

let test_rng_uniform_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.uniform r ~lo:(-2.0) ~hi:5.0 in
    check_bool "in [-2,5)" true (x >= -2.0 && x < 5.0)
  done

let test_rng_int_bounds () =
  let r = Rng.create 17 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    check_bool "in [0,10)" true (x >= 0 && x < 10)
  done

let test_rng_int_all_values_hit () =
  let r = Rng.create 23 in
  let seen = Array.make 6 false in
  for _ = 1 to 600 do
    seen.(Rng.int r 6) <- true
  done;
  Array.iteri (fun i b -> check_bool (Printf.sprintf "value %d seen" i) true b) seen

let test_rng_exponential_mean () =
  let r = Rng.create 31 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Rng.exponential r ~mean:2.0)
  done;
  check_bool "mean ~2" true (Float.abs (Stats.mean s -. 2.0) < 0.05)

let test_rng_gaussian_moments () =
  let r = Rng.create 37 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Rng.gaussian r ~mu:1.0 ~sigma:2.0)
  done;
  check_bool "mean ~1" true (Float.abs (Stats.mean s -. 1.0) < 0.05);
  check_bool "stddev ~2" true (Float.abs (Stats.stddev s -. 2.0) < 0.05)

let test_rng_lognormal_positive () =
  let r = Rng.create 41 in
  for _ = 1 to 1000 do
    check_bool "positive" true (Rng.lognormal r ~mu:0.0 ~sigma:0.5 > 0.0)
  done

let test_rng_laplace_symmetry () =
  let r = Rng.create 43 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Rng.laplace r ~mu:0.0 ~b:1.0)
  done;
  (* Laplace(0,1): mean 0, variance 2. *)
  check_bool "mean ~0" true (Float.abs (Stats.mean s) < 0.03);
  check_bool "variance ~2" true (Float.abs (Stats.variance s -. 2.0) < 0.1)

let test_rng_invalid_args () =
  let r = Rng.create 1 in
  Alcotest.check_raises "float bound" (Invalid_argument "Rng.float: bound must be positive")
    (fun () -> ignore (Rng.float r 0.0));
  Alcotest.check_raises "int bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "exp mean"
    (Invalid_argument "Rng.exponential: mean must be positive") (fun () ->
      ignore (Rng.exponential r ~mean:(-1.0)))

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)

let test_stats_empty () =
  let s = Stats.create () in
  check_int "count" 0 (Stats.count s);
  check_float "mean" 0.0 (Stats.mean s);
  check_float "variance" 0.0 (Stats.variance s)

let test_stats_known_values () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.count s);
  check_float "mean" 5.0 (Stats.mean s);
  (* Sample variance with n-1 = 32/7. *)
  check_float "variance" (32.0 /. 7.0) (Stats.variance s);
  check_float "min" 2.0 (Stats.min_value s);
  check_float "max" 9.0 (Stats.max_value s);
  check_float "total" 40.0 (Stats.total s)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 3.0;
  check_float "mean" 3.0 (Stats.mean s);
  check_float "variance (n<2)" 0.0 (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  List.iter
    (fun x ->
      Stats.add whole x;
      if x < 5.0 then Stats.add a x else Stats.add b x)
    [ 1.0; 2.0; 3.0; 7.0; 8.0; 9.0; 4.0; 6.0 ];
  let m = Stats.merge a b in
  check_int "count" (Stats.count whole) (Stats.count m);
  check_bool "mean" true (Float.abs (Stats.mean whole -. Stats.mean m) < 1e-9);
  check_bool "variance" true (Float.abs (Stats.variance whole -. Stats.variance m) < 1e-9)

let test_stats_merge_empty () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add b 5.0;
  let m = Stats.merge a b in
  check_float "mean" 5.0 (Stats.mean m);
  check_int "count" 1 (Stats.count m)

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0);
  check_float "median" 3.0 (Stats.median xs)

let test_percentile_interpolates () =
  let xs = [| 10.0; 20.0 |] in
  check_float "p50 interp" 15.0 (Stats.percentile xs 50.0)

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "range" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] 101.0))

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"welford mean = naive mean" ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      let naive = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Running_min                                                          *)

let test_running_min_initial () =
  let t = Running_min.create () in
  check_float "drawdown" 0.0 (Running_min.drawdown t);
  check_bool "headroom inf" true (Running_min.headroom t ~budget:5.0 = infinity)

let test_running_min_monotone_up () =
  let t = Running_min.create () in
  List.iter (Running_min.observe t) [ 0.0; 1.0; 2.0; 3.0 ];
  check_float "drawdown = rise above min" 3.0 (Running_min.drawdown t);
  check_float "headroom" 2.0 (Running_min.headroom t ~budget:5.0)

let test_running_min_vee () =
  let t = Running_min.create () in
  List.iter (Running_min.observe t) [ 5.0; 1.0; 4.0 ];
  check_float "min" 1.0 (Running_min.running_min t);
  check_float "drawdown" 3.0 (Running_min.drawdown t)

let test_running_min_drawdown_keeps_max () =
  let t = Running_min.create () in
  List.iter (Running_min.observe t) [ 0.0; 10.0; -5.0; 0.0 ];
  (* Max rise over running min: 10 - 0 = 10 (later min -5 only affects
     future rises). *)
  check_float "drawdown" 10.0 (Running_min.drawdown t)

(* ------------------------------------------------------------------ *)
(* Vec                                                                  *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get 0" 0 (Vec.get v 0);
  check_int "get 99" 99 (Vec.get v 99);
  check_bool "last" true (Vec.last v = Some 99);
  check_int "pop" 99 (Vec.pop v);
  check_int "pop is LIFO" 98 (Vec.pop v);
  check_int "length after pops" 98 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  ignore (Vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_vec_iter_fold () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  check_int "fold" 6 (Vec.fold v ~init:0 ~f:( + ));
  let acc = ref [] in
  Vec.iter v ~f:(fun x -> acc := x :: !acc);
  Alcotest.(check (list int)) "iter order" [ 1; 2; 3 ] (List.rev !acc)

let test_vec_to_list_array () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 4; 5 ];
  Alcotest.(check (list int)) "to_list" [ 4; 5 ] (Vec.to_list v);
  Alcotest.(check (array int)) "to_array" [| 4; 5 |] (Vec.to_array v)

let test_vec_clear () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.clear v;
  check_bool "empty" true (Vec.is_empty v);
  Vec.push v 2;
  check_int "reusable" 2 (Vec.get v 0)

let test_vec_binary_search () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 0.0; 1.0; 2.0; 5.0 ];
  let key x = x in
  check_bool "before first" true (Vec.binary_search_last_le v ~key (-0.5) = None);
  check_bool "exact first" true (Vec.binary_search_last_le v ~key 0.0 = Some 0);
  check_bool "between" true (Vec.binary_search_last_le v ~key 3.0 = Some 2);
  check_bool "past end" true (Vec.binary_search_last_le v ~key 100.0 = Some 3)

let prop_vec_binary_search_matches_linear =
  QCheck.Test.make ~name:"binary search = linear scan" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_bound_exclusive 100.0)) (float_bound_exclusive 120.0))
    (fun (l, x) ->
      let sorted = List.sort compare l in
      let v = Vec.create () in
      List.iter (Vec.push v) sorted;
      let linear =
        let rec go i best = function
          | [] -> best
          | y :: rest -> if y <= x then go (i + 1) (Some i) rest else best
        in
        go 0 None sorted
      in
      Vec.binary_search_last_le v ~key:(fun y -> y) x = linear)

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add h) [ 0.5; 1.9; 2.0; 9.9; 10.5; -1.0 ];
  check_int "count" 6 (Histogram.count h);
  Alcotest.(check (array int)) "bins" [| 3; 1; 0; 0; 2 |] (Histogram.bin_counts h)

let test_histogram_bounds () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  let a, b = Histogram.bin_bounds h 1 in
  check_float "lo" 2.0 a;
  check_float "hi" 4.0 b;
  Alcotest.check_raises "range" (Invalid_argument "Histogram.bin_bounds: out of range")
    (fun () -> ignore (Histogram.bin_bounds h 5))

let test_histogram_render () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 in
  List.iter (Histogram.add h) [ 0.1; 0.2; 0.8 ];
  let s = Histogram.render ~width:10 h in
  check_int "two lines" 2 (List.length (String.split_on_char '\n' (String.trim s)))

let test_histogram_validation () =
  Alcotest.check_raises "bad args"
    (Invalid_argument "Histogram.create: need lo < hi and bins > 0") (fun () ->
      ignore (Histogram.create ~lo:1.0 ~hi:0.0 ~bins:3))

let test_histogram_quantile_uniform () =
  (* 1000 evenly spread observations: quantiles should track the value
     axis to within one bin width. *)
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:100 in
  for i = 0 to 999 do
    Histogram.add h (10.0 *. (float_of_int i +. 0.5) /. 1000.0)
  done;
  List.iter
    (fun q ->
      let v = Histogram.quantile h q in
      check_bool
        (Printf.sprintf "q=%g gives %g" q v)
        true
        (Float.abs (v -. (10.0 *. q)) <= 0.2))
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]

let test_histogram_quantile_edges () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add h) [ 1.0; 1.0; 1.0; 9.0 ];
  (* q=0 sits at the left edge of the first occupied bin, q=1 at the
     right edge of the last. *)
  check_float "q=0" 0.0 (Histogram.quantile h 0.0);
  check_float "q=1" 10.0 (Histogram.quantile h 1.0);
  (* three of four observations in bin [0,2): the median interpolates
     inside it. *)
  let med = Histogram.quantile h 0.5 in
  check_bool "median in first bin" true (med >= 0.0 && med <= 2.0);
  Alcotest.check_raises "empty"
    (Invalid_argument "Histogram.quantile: empty histogram") (fun () ->
      ignore (Histogram.quantile (Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2) 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Histogram.quantile: q outside [0,1]") (fun () ->
      ignore (Histogram.quantile h 1.5))

let test_histogram_merge () =
  let a = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  let b = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add a) [ 0.5; 3.0 ];
  List.iter (Histogram.add b) [ 3.5; 9.0; 9.5 ];
  let m = Histogram.merge a b in
  check_int "count" 5 (Histogram.count m);
  Alcotest.(check (array int)) "bins" [| 1; 2; 0; 0; 2 |] (Histogram.bin_counts m);
  (* inputs untouched *)
  check_int "a intact" 2 (Histogram.count a);
  check_int "b intact" 3 (Histogram.count b);
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Histogram.merge: shape mismatch") (fun () ->
      ignore (Histogram.merge a (Histogram.create ~lo:0.0 ~hi:10.0 ~bins:4)))

let test_histogram_merge_quantile_consistent () =
  (* quantile over a merge equals quantile over the union stream. *)
  let a = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:50 in
  let b = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:50 in
  let u = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:50 in
  let rng = Rng.create 7 in
  for _ = 1 to 500 do
    let x = Rng.float rng 1.0 in
    Histogram.add a x;
    Histogram.add u x
  done;
  for _ = 1 to 300 do
    let x = Rng.float rng 1.0 in
    Histogram.add b x;
    Histogram.add u x
  done;
  let m = Histogram.merge a b in
  List.iter
    (fun q ->
      check_float
        (Printf.sprintf "q=%g" q)
        (Histogram.quantile u q) (Histogram.quantile m q))
    [ 0.05; 0.5; 0.95 ]

(* ------------------------------------------------------------------ *)
(* Slot_map                                                             *)

type slot_op = Add of int | Remove of int | Find of int

let slot_op_print = function
  | Add k -> Printf.sprintf "add %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k

(* 48 small keys make probe clusters in a 16- to 256-bucket table, so
   deletions move entries back; half are spread to large ids. *)
let slot_key_gen =
  QCheck.Gen.(map2 (fun k wide -> if wide then (k lsl 20) + k else k) (0 -- 47) bool)

let slot_ops_arb =
  QCheck.make
    ~print:QCheck.Print.(list slot_op_print)
    QCheck.Gen.(
      list_size (0 -- 300)
        (frequency
           [
             (5, map (fun k -> Add k) slot_key_gen);
             (3, map (fun k -> Remove k) slot_key_gen);
             (2, map (fun k -> Find k) slot_key_gen);
           ]))

let prop_slot_map_model =
  QCheck.Test.make ~name:"slot_map: matches a Hashtbl model, freed slots reused LIFO"
    ~count:300 slot_ops_arb (fun ops ->
      let m = Slot_map.create () in
      let model = Hashtbl.create 16 and free = ref [] and next = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iter
        (fun op ->
          let got, want =
            match op with
            | Add k ->
              let want =
                match Hashtbl.find_opt model k with
                | Some s -> s
                | None ->
                  let s =
                    match !free with
                    | s :: rest ->
                      free := rest;
                      s
                    | [] ->
                      incr next;
                      !next - 1
                  in
                  Hashtbl.replace model k s;
                  s
              in
              (Slot_map.find_or_add m k, want)
            | Remove k ->
              let want =
                match Hashtbl.find_opt model k with
                | Some s ->
                  Hashtbl.remove model k;
                  free := s :: !free;
                  s
                | None -> -1
              in
              (Slot_map.remove m k, want)
            | Find k ->
              (Slot_map.find m k, Option.value (Hashtbl.find_opt model k) ~default:(-1))
          in
          if got <> want then fail "%s: slot %d, model %d" (slot_op_print op) got want;
          if Slot_map.length m <> Hashtbl.length model then
            fail "%s: length %d, model %d" (slot_op_print op) (Slot_map.length m)
              (Hashtbl.length model);
          (* every other key must still be reachable along its probe run *)
          Hashtbl.iter
            (fun k s ->
              let got = Slot_map.find m k in
              if got <> s then
                fail "after %s: key %d has slot %d, model %d" (slot_op_print op) k got s)
            model;
          (* and [iter] visits exactly the model's pairs *)
          let seen = ref [] in
          Slot_map.iter m (fun k s -> seen := (k, s) :: !seen);
          let want = Hashtbl.fold (fun k s acc -> (k, s) :: acc) model [] in
          if List.sort compare !seen <> List.sort compare want then
            fail "after %s: iter visits %d pairs, model has %d" (slot_op_print op)
              (List.length !seen) (List.length want))
        ops;
      true)

let test_slot_map_negative_keys () =
  let m = Slot_map.create () in
  check_int "find before any insert" (-1) (Slot_map.find m 5);
  check_int "first slot" 0 (Slot_map.find_or_add m 5);
  check_int "negative key has no slot" (-1) (Slot_map.find m (-1));
  check_int "negative key removes nothing" (-1) (Slot_map.remove m (-1));
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Slot_map.find_or_add: negative key") (fun () ->
      ignore (Slot_map.find_or_add m (-1)))

let test_slot_map_zero_alloc () =
  (* a sliding window of 32 live keys over scattered ids: once the table
     and the free stack have reached their peak, churn allocates nothing *)
  let m = Slot_map.create () in
  let key i = i * 7919 in
  let churn () =
    for i = 0 to 999 do
      ignore (Slot_map.find_or_add m (key i));
      if i >= 32 then ignore (Slot_map.remove m (key (i - 32)))
    done;
    for i = 968 to 999 do
      ignore (Slot_map.remove m (key i))
    done
  in
  churn ();
  let before = Gc.minor_words () in
  churn ();
  let words = Gc.minor_words () -. before in
  check_int "empty after the churn" 0 (Slot_map.length m);
  let s = Slot_map.find_or_add m 1 in
  check_bool "slots stay below the 33-key peak" true (s >= 0 && s < 33);
  check_bool (Printf.sprintf "%.0f minor words over 2000 operations" words) true (words = 0.0)

(* ------------------------------------------------------------------ *)
(* Text_table                                                           *)

let test_table_renders () =
  let t = Text_table.create [ "a"; "bb" ] in
  Text_table.add_row t [ "x"; "y" ];
  let s = Text_table.render t in
  check_bool "has header" true (String.length s > 0);
  check_bool "contains row" true (String.length s >= String.length "a  bb\n")

let test_table_pads_short_rows () =
  let t = Text_table.create [ "a"; "b"; "c" ] in
  Text_table.add_row t [ "only" ];
  let lines = String.split_on_char '\n' (Text_table.render t) in
  check_int "lines (header, sep, row, trailing)" 4 (List.length lines)

let test_table_rejects_long_rows () =
  let t = Text_table.create [ "a" ] in
  Alcotest.check_raises "too many" (Invalid_argument "Text_table.add_row: too many cells")
    (fun () -> Text_table.add_row t [ "1"; "2" ])

let test_table_cells () =
  Alcotest.(check string) "cell_f" "1.500" (Text_table.cell_f 1.5);
  Alcotest.(check string) "cell_f decimals" "1.5" (Text_table.cell_f ~decimals:1 1.5);
  Alcotest.(check string) "cell_pct" "53.0%" (Text_table.cell_pct 0.53)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "ds_heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "pop_min_exn empty" `Quick test_heap_pop_min_exn_empty;
          Alcotest.test_case "sorted drain" `Quick test_heap_sorted_drain;
          Alcotest.test_case "min_elt stable" `Quick test_heap_min_elt_stable;
          Alcotest.test_case "to_sorted_list preserves" `Quick test_heap_to_sorted_list_preserves;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "iter" `Quick test_heap_iter_counts;
          Alcotest.test_case "custom cmp" `Quick test_heap_custom_cmp;
          q prop_heap_drains_sorted;
          q prop_heap_is_permutation;
          q prop_heap_interleaved;
        ] );
      ( "fheap",
        [
          Alcotest.test_case "empty" `Quick test_fheap_empty;
          Alcotest.test_case "min agrees with pop" `Quick test_fheap_min_agrees_with_pop;
          Alcotest.test_case "steady-state add/pop allocates nothing" `Quick
            test_fheap_zero_alloc;
          q prop_fheap_pop_order_matches_reference;
          q prop_fheap_tie_uid_stability;
          q prop_fheap_interleaved;
        ] );
      ( "slab",
        [
          q prop_slab_model;
          Alcotest.test_case "put refuses immediates" `Quick test_slab_refuses_immediates;
          Alcotest.test_case "take releases the value" `Quick test_slab_take_releases;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int hits all values" `Quick test_rng_int_all_values_hit;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "lognormal positive" `Quick test_rng_lognormal_positive;
          Alcotest.test_case "laplace symmetry" `Quick test_rng_laplace_symmetry;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge empty" `Quick test_stats_merge_empty;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile interpolates" `Quick test_percentile_interpolates;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
          q prop_stats_mean_matches_naive;
        ] );
      ( "running_min",
        [
          Alcotest.test_case "initial" `Quick test_running_min_initial;
          Alcotest.test_case "monotone up" `Quick test_running_min_monotone_up;
          Alcotest.test_case "vee shape" `Quick test_running_min_vee;
          Alcotest.test_case "drawdown keeps max" `Quick test_running_min_drawdown_keeps_max;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
          Alcotest.test_case "to_list/array" `Quick test_vec_to_list_array;
          Alcotest.test_case "clear" `Quick test_vec_clear;
          Alcotest.test_case "binary search" `Quick test_vec_binary_search;
          q prop_vec_binary_search_matches_linear;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "bounds" `Quick test_histogram_bounds;
          Alcotest.test_case "render" `Quick test_histogram_render;
          Alcotest.test_case "validation" `Quick test_histogram_validation;
          Alcotest.test_case "quantile uniform" `Quick test_histogram_quantile_uniform;
          Alcotest.test_case "quantile edges" `Quick test_histogram_quantile_edges;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "merge/quantile consistent" `Quick
            test_histogram_merge_quantile_consistent;
        ] );
      ( "slot_map",
        [
          q prop_slot_map_model;
          Alcotest.test_case "negative keys" `Quick test_slot_map_negative_keys;
          Alcotest.test_case "steady-state churn allocates nothing" `Quick
            test_slot_map_zero_alloc;
        ] );
      ( "text_table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "rejects long rows" `Quick test_table_rejects_long_rows;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
