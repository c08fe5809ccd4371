open Sfq_util

type seg = { t0 : float; rate : float; w0 : float }

type t = {
  segs : seg Vec.t;
  gen : unit -> float * float;  (* next (duration, rate); duration may be infinite *)
  mutable horizon : float;  (* end time of the last generated segment *)
  nominal_rate : float;
  nominal_delta : float option;
  fixed : float option;  (* [Some r] iff the rate is [r] forever *)
}

let make ~nominal_rate ?nominal_delta gen =
  { segs = Vec.create (); gen; horizon = 0.0; nominal_rate; nominal_delta; fixed = None }

let extend_once t =
  let duration, rate = t.gen () in
  if duration <= 0.0 || rate < 0.0 then invalid_arg "Rate_process: bad generated segment";
  let w0, t0 =
    match Vec.last t.segs with
    | None -> (0.0, 0.0)
    | Some s -> (s.w0 +. (s.rate *. (t.horizon -. s.t0)), t.horizon)
  in
  Vec.push t.segs { t0; rate; w0 };
  t.horizon <- t0 +. duration

let ensure t time = while t.horizon <= time do extend_once t done

let seg_index t time =
  ensure t time;
  match Vec.binary_search_last_le t.segs ~key:(fun s -> s.t0) time with
  | Some i -> i
  | None -> invalid_arg "Rate_process: time before 0"

let rate_at t time =
  if time < 0.0 then invalid_arg "Rate_process.rate_at: negative time";
  (Vec.get t.segs (seg_index t time)).rate

let cum t time =
  let s = Vec.get t.segs (seg_index t time) in
  s.w0 +. (s.rate *. (time -. s.t0))

let work t ~t1 ~t2 =
  if t1 > t2 then invalid_arg "Rate_process.work: t1 > t2";
  if t1 < 0.0 then invalid_arg "Rate_process.work: negative t1";
  cum t t2 -. cum t t1

let walk t ~from ~amount =
  let rec go i remaining tcur =
    let s = Vec.get t.segs i in
    let seg_end = if i + 1 < Vec.length t.segs then (Vec.get t.segs (i + 1)).t0 else t.horizon in
    if s.rate > 0.0 && remaining <= s.rate *. (seg_end -. tcur) then
      tcur +. (remaining /. s.rate)
    else begin
      let served = s.rate *. (seg_end -. tcur) in
      if i + 1 >= Vec.length t.segs then extend_once t;
      go (i + 1) (remaining -. served) seg_end
    end
  in
  go (seg_index t from) amount from

let time_to_serve t ~from ~amount =
  if amount <= 0.0 then invalid_arg "Rate_process.time_to_serve: amount must be positive";
  if from < 0.0 then invalid_arg "Rate_process.time_to_serve: negative from";
  match t.fixed with
  | Some rate ->
    (* [walk] on its one infinite segment, as the same expression so
       the result is the same bits, without the segment search. *)
    from +. (amount /. rate)
  | None -> walk t ~from ~amount

let nominal_rate t = t.nominal_rate
let nominal_delta t = t.nominal_delta

let constant rate =
  if rate <= 0.0 then invalid_arg "Rate_process.constant: rate must be positive";
  let t = make ~nominal_rate:rate ~nominal_delta:0.0 (fun () -> (infinity, rate)) in
  { t with fixed = Some rate }

let square ~c ~swing ~period =
  if swing < 0.0 || swing >= c then invalid_arg "Rate_process.square: need 0 <= swing < c";
  if period <= 0.0 then invalid_arg "Rate_process.square: period must be positive";
  let high = ref true in
  let gen () =
    let rate = if !high then c +. swing else c -. swing in
    high := not !high;
    (period /. 2.0, rate)
  in
  make ~nominal_rate:c ~nominal_delta:(swing *. period /. 2.0) gen

let fc_random ~c ~delta ~seg ~spread ~rng =
  if spread <= 0.0 || spread > c then invalid_arg "Rate_process.fc_random: need 0 < spread <= c";
  if delta <= 0.0 then invalid_arg "Rate_process.fc_random: delta must be positive";
  if seg <= 0.0 then invalid_arg "Rate_process.fc_random: seg must be positive";
  let x = Running_min.create () in
  Running_min.observe x 0.0;
  let last_x = ref 0.0 in
  let gen () =
    (* X(t) = c·t − W(t) is piecewise linear, so bounding its drawdown
       at segment boundaries bounds it everywhere. Keep 10% margin. *)
    let headroom = Running_min.headroom x ~budget:delta in
    let min_rate = Float.max (c -. spread) (c -. (0.9 *. headroom /. seg)) in
    let max_rate = c +. spread in
    let rate = if min_rate >= max_rate then max_rate else Rng.uniform rng ~lo:min_rate ~hi:max_rate in
    last_x := !last_x +. ((c -. rate) *. seg);
    Running_min.observe x !last_x;
    (seg, rate)
  in
  make ~nominal_rate:c ~nominal_delta:delta gen

let ebf ~c ~scale ~seg ~rng =
  if scale <= 0.0 || seg <= 0.0 then invalid_arg "Rate_process.ebf: bad parameters";
  let gen () =
    let rate = Float.max (0.01 *. c) (c +. Rng.laplace rng ~mu:0.0 ~b:scale) in
    (seg, rate)
  in
  make ~nominal_rate:c gen

let on_off ~on_rate ~on ~off ?(start_on = true) () =
  if on_rate <= 0.0 || on <= 0.0 || off <= 0.0 then
    invalid_arg "Rate_process.on_off: bad parameters";
  let is_on = ref start_on in
  let gen () =
    let r = if !is_on then (on, on_rate) else (off, 0.0) in
    is_on := not !is_on;
    r
  in
  make ~nominal_rate:(on_rate *. on /. (on +. off)) gen

let of_segments list ~tail =
  if tail <= 0.0 then invalid_arg "Rate_process.of_segments: tail must be positive";
  List.iter
    (fun (d, r) ->
      if d <= 0.0 || r < 0.0 then invalid_arg "Rate_process.of_segments: bad segment")
    list;
  let remaining = ref list in
  let gen () =
    match !remaining with
    | (d, r) :: rest ->
      remaining := rest;
      (d, r)
    | [] -> (infinity, tail)
  in
  let total_time = List.fold_left (fun acc (d, _) -> acc +. d) 0.0 list in
  let total_work = List.fold_left (fun acc (d, r) -> acc +. (d *. r)) 0.0 list in
  let avg = if total_time > 0.0 then total_work /. total_time else tail in
  make ~nominal_rate:avg gen
