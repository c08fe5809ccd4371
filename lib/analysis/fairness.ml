open Sfq_util

let intersect_intervals a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (a1, a2) :: arest, (b1, b2) :: brest ->
      let lo = Float.max a1 b1 and hi = Float.min a2 b2 in
      let acc = if lo < hi then (lo, hi) :: acc else acc in
      if a2 < b2 then go arest b acc else go a brest acc
  in
  go a b []

(* The completions of f and m, in finish order: start, finish and
   signed normalized length, filled once per pair. Each window then
   copies its events into scratch arrays, and the O(k²) scan over
   (t1, event) walks those: no list, no boxed float. The events, their
   order and the summation order are the direct definition's, so every
   H is bit-identical to it. *)
let exact_h log ~f ~m ~r_f ~r_m ~until =
  let both =
    intersect_intervals
      (Service_log.busy_intervals log f ~until)
      (Service_log.busy_intervals log m ~until)
  in
  if both = [] then 0.0
  else begin
    let comps = Service_log.completions log in
    let of_pair (c : Service_log.completion) = c.flow = f || c.flow = m in
    let k = Vec.fold comps ~init:0 ~f:(fun k c -> if of_pair c then k + 1 else k) in
    let start = Array.make k 0.0 and finish = Array.make k 0.0 in
    let value = Array.make k 0.0 in
    let j = ref 0 in
    Vec.iter comps ~f:(fun c ->
        if of_pair c then begin
          start.(!j) <- c.start;
          finish.(!j) <- c.finish;
          value.(!j) <-
            (if c.flow = f then float_of_int c.len /. r_f
             else -.(float_of_int c.len /. r_m));
          incr j
        end);
    let w_start = Array.make k 0.0 and w_value = Array.make k 0.0 in
    let worst_in best (lo, hi) =
      let nw = ref 0 in
      for i = 0 to k - 1 do
        if start.(i) >= lo && finish.(i) <= hi then begin
          w_start.(!nw) <- start.(i);
          w_value.(!nw) <- value.(i);
          incr nw
        end
      done;
      let nw = !nw in
      (* t1 ranges over lo, then every event's start *)
      let worst = ref 0.0 in
      for j = -1 to nw - 1 do
        let t1 = if j < 0 then lo else w_start.(j) in
        let acc = ref 0.0 and best_from = ref 0.0 in
        for i = 0 to nw - 1 do
          if w_start.(i) >= t1 then acc := !acc +. w_value.(i);
          best_from := Float.max !best_from (Float.abs !acc)
        done;
        worst := Float.max !worst !best_from
      done;
      Float.max best !worst
    in
    List.fold_left worst_in 0.0 both
  end

let approx_h log ~f ~m ~r_f ~r_m ~until =
  let both =
    intersect_intervals
      (Service_log.busy_intervals log f ~until)
      (Service_log.busy_intervals log m ~until)
  in
  let worst_in (lo, hi) =
    (* Drawdown/draw-up of the running difference sampled at finishes. *)
    let min_seen = ref 0.0 and max_seen = ref 0.0 and acc = ref 0.0 and best = ref 0.0 in
    Vec.iter (Service_log.completions log) ~f:(fun c ->
        if c.Service_log.finish >= lo && c.finish <= hi then begin
          if c.flow = f then acc := !acc +. (float_of_int c.len /. r_f)
          else if c.flow = m then acc := !acc -. (float_of_int c.len /. r_m);
          if c.flow = f || c.flow = m then begin
            best := Float.max !best (Float.max (!acc -. !min_seen) (!max_seen -. !acc));
            min_seen := Float.min !min_seen !acc;
            max_seen := Float.max !max_seen !acc
          end
        end);
    !best
  in
  List.fold_left (fun best iv -> Float.max best (worst_in iv)) 0.0 both

let max_pairwise_h log ~rates ~until ~exact =
  let measure = if exact then exact_h else approx_h in
  let rec pairs acc = function
    | [] -> acc
    | (f, r_f) :: rest ->
      let acc =
        List.fold_left
          (fun acc (m, r_m) -> Float.max acc (measure log ~f ~m ~r_f ~r_m ~until))
          acc rest
      in
      pairs acc rest
  in
  pairs 0.0 rates

let throughput log flow ~t1 ~t2 =
  if t2 <= t1 then invalid_arg "Fairness.throughput: empty interval";
  Service_log.service log flow ~t1 ~t2 /. (t2 -. t1)
