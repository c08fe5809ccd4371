(* Reference models of the theorem monitors and of [Fairness.exact_h],
   written the direct way: lists folded over the whole completion log
   for every flow, pair and window, EATs in a polymorphic Hashtbl keyed
   by (flow, seq), and lmax / rate read through [Workload.lmax] /
   [Workload.rate_of] at every use. The library versions keep their
   state in arrays built once; the differential properties in
   test_oracle and test_analysis hold them to these models, violation
   for violation and bit for bit. *)

open Sfq_base
open Sfq_sched
open Sfq_core
open Sfq_analysis
open Sfq_oracle

(* ------------------------------------------------------------------ *)
(* Fairness.exact_h                                                     *)

let window_events log ~f ~m ~r_f ~r_m ~lo ~hi =
  Sfq_util.Vec.fold (Service_log.completions log) ~init:[] ~f:(fun acc c ->
      if c.Service_log.start >= lo && c.finish <= hi then begin
        if c.flow = f then (c.start, c.finish, float_of_int c.len /. r_f) :: acc
        else if c.flow = m then (c.start, c.finish, -.(float_of_int c.len /. r_m)) :: acc
        else acc
      end
      else acc)
  |> List.rev

let exact_h log ~f ~m ~r_f ~r_m ~until =
  let both =
    Fairness.intersect_intervals
      (Service_log.busy_intervals log f ~until)
      (Service_log.busy_intervals log m ~until)
  in
  let worst_in (lo, hi) =
    let events = window_events log ~f ~m ~r_f ~r_m ~lo ~hi in
    let starts = lo :: List.map (fun (s, _, _) -> s) events in
    let worst_from t1 =
      let rec go acc best = function
        | [] -> best
        | (s, _, v) :: rest ->
          let acc = if s >= t1 then acc +. v else acc in
          go acc (Float.max best (Float.abs acc)) rest
      in
      go 0.0 0.0 events
    in
    List.fold_left (fun best t1 -> Float.max best (worst_from t1)) 0.0 starts
  in
  List.fold_left (fun best iv -> Float.max best (worst_in iv)) 0.0 both

(* ------------------------------------------------------------------ *)
(* Monitors                                                             *)

(* Each model latches its first violation, as a monitor does. *)
type t = {
  name : string;
  first : Monitor.violation option ref;
  on_event : (at:float -> string -> unit) -> Monitor.event -> unit;
  on_finalize : (at:float -> string -> unit) -> until:float -> unit;
}

let make name ~on_event ~on_finalize = { name; first = ref None; on_event; on_finalize }

let report t ~at what =
  if !(t.first) = None then t.first := Some { Monitor.monitor = t.name; at; what }

let result t = !(t.first)
let observe t ev = if !(t.first) = None then t.on_event (report t) ev
let finalize t ~until = if !(t.first) = None then t.on_finalize (report t) ~until

let slack b = 1e-9 *. Float.max 1.0 (Float.abs b)
let no_finalize _ ~until:_ = ()

(* The Theorem 1 bookkeeping: a service log and each flow's largest
   arrival. *)
let h_event log lmax _ = function
  | Monitor.Arrival { at; pkt } ->
    Service_log.note_arrival log ~at pkt.Packet.flow;
    let l = float_of_int pkt.Packet.len in
    let cur = Option.value (Hashtbl.find_opt lmax pkt.Packet.flow) ~default:0.0 in
    if l > cur then Hashtbl.replace lmax pkt.Packet.flow l
  | Departure { start; finish; pkt } ->
    Service_log.note_completion log ~flow:pkt.Packet.flow ~start ~finish
      ~len:pkt.Packet.len
  | Drop { at; pkt; _ } -> Service_log.note_removal log ~at pkt.Packet.flow
  | Idle _ -> ()

let fairness ?(bound = Bounds.h_sfq) ~rate () =
  let log = Service_log.create () in
  let lmax : (Packet.flow, float) Hashtbl.t = Hashtbl.create 16 in
  make "fairness" ~on_event:(h_event log lmax)
    ~on_finalize:(fun report ~until ->
      let flows = List.sort compare (Service_log.flows log) in
      let lmax_of f = Option.value (Hashtbl.find_opt lmax f) ~default:0.0 in
      let check f m =
        let r_f = rate f and r_m = rate m in
        if r_f > 0.0 && r_m > 0.0 then begin
          let h = exact_h log ~f ~m ~r_f ~r_m ~until in
          let b = bound ~lmax_f:(lmax_of f) ~r_f ~lmax_m:(lmax_of m) ~r_m in
          if h > b +. slack b then
            report ~at:until
              (Printf.sprintf "flows (%d,%d): H = %g exceeds the Theorem 1 bound %g" f m
                 h b)
        end
      in
      let rec pairs = function
        | [] -> ()
        | f :: rest ->
          List.iter (check f) rest;
          pairs rest
      in
      pairs flows)

let fairness_measured ?(bound = Bounds.h_sfq) ~rate () =
  let log = Service_log.create () in
  let lmax : (Packet.flow, float) Hashtbl.t = Hashtbl.create 16 in
  let budget = ref Monitor.empty_budget in
  let t =
    make "fairness_budget" ~on_event:(h_event log lmax) ~on_finalize:(fun _ ~until ->
        let flows = List.sort compare (Service_log.flows log) in
        let lmax_of f = Option.value (Hashtbl.find_opt lmax f) ~default:0.0 in
        let acc = ref Monitor.empty_budget in
        let check f m =
          let r_f = rate f and r_m = rate m in
          if r_f > 0.0 && r_m > 0.0 then begin
            let h = exact_h log ~f ~m ~r_f ~r_m ~until in
            let b = bound ~lmax_f:(lmax_of f) ~r_f ~lmax_m:(lmax_of m) ~r_m in
            let excess = h -. b in
            let cur = !acc in
            let cur = { cur with Monitor.pairs_checked = cur.Monitor.pairs_checked + 1 } in
            let cur =
              if excess > cur.max_excess then
                { cur with max_h = h; max_bound = b; max_excess = excess; worst_pair = Some (f, m) }
              else cur
            in
            acc := cur
          end
        in
        let rec pairs = function
          | [] -> ()
          | f :: rest ->
            List.iter (check f) rest;
            pairs rest
        in
        pairs flows;
        budget := !acc)
  in
  (t, fun () -> !budget)

let delay_monitor ~name ~flows ~lmax ~eat_rate ~bound () =
  let eat = Eat.create () in
  let eats : (Packet.flow * int, float) Hashtbl.t = Hashtbl.create 64 in
  let sum_all = List.fold_left (fun acc f -> acc +. lmax f) 0.0 flows in
  make name
    ~on_event:(fun report -> function
      | Monitor.Arrival { at; pkt } ->
        let r = eat_rate pkt in
        if r > 0.0 then
          let e =
            Eat.on_arrival eat ~now:at ~flow:pkt.Packet.flow ~len:pkt.Packet.len ~rate:r
          in
          Hashtbl.replace eats (pkt.Packet.flow, pkt.Packet.seq) e
      | Departure { finish; pkt; _ } -> (
        match Hashtbl.find_opt eats (pkt.Packet.flow, pkt.Packet.seq) with
        | None -> ()
        | Some e ->
          let sum_other = sum_all -. lmax pkt.Packet.flow in
          let b = bound ~eat:e ~sum_other_lmax:sum_other ~pkt in
          if finish > b +. slack b then
            report ~at:finish
              (Printf.sprintf "flow %d seq %d: departed at %g, bound %g (EAT %g)"
                 pkt.Packet.flow pkt.Packet.seq finish b e))
      | Drop { pkt; _ } -> Hashtbl.remove eats (pkt.Packet.flow, pkt.Packet.seq)
      | Idle _ -> ())
    ~on_finalize:no_finalize

let sfq_delay ~flows ~lmax ~rate ~capacity () =
  delay_monitor ~name:"sfq_delay" ~flows ~lmax
    ~eat_rate:(fun pkt ->
      match pkt.Packet.rate with Some r -> r | None -> rate pkt.Packet.flow)
    ~bound:(fun ~eat ~sum_other_lmax ~pkt ->
      Bounds.sfq_departure ~eat ~sum_other_lmax ~len:(float_of_int pkt.Packet.len)
        ~capacity ~delta:0.0)
    ()

let scfq_delay ~flows ~lmax ~rate ~capacity () =
  delay_monitor ~name:"scfq_delay" ~flows ~lmax
    ~eat_rate:(fun pkt -> rate pkt.Packet.flow)
    ~bound:(fun ~eat ~sum_other_lmax ~pkt ->
      Bounds.scfq_departure ~eat ~sum_other_lmax ~len:(float_of_int pkt.Packet.len)
        ~rate:(rate pkt.Packet.flow) ~capacity)
    ()

let sfq_throughput ~flows ~lmax ~rate ~capacity () =
  let log = Service_log.create () in
  let sum_lmax = List.fold_left (fun acc f -> acc +. lmax f) 0.0 flows in
  make "sfq_throughput"
    ~on_event:(fun _ -> function
      | Monitor.Arrival { at; pkt } -> Service_log.note_arrival log ~at pkt.Packet.flow
      | Departure { start; finish; pkt } ->
        Service_log.note_completion log ~flow:pkt.Packet.flow ~start ~finish
          ~len:pkt.Packet.len
      | Drop { at; pkt; _ } -> Service_log.note_removal log ~at pkt.Packet.flow
      | Idle _ -> ())
    ~on_finalize:(fun report ~until ->
      let check_flow f =
        let r = rate f in
        if r > 0.0 then begin
          let comps =
            Sfq_util.Vec.fold (Service_log.completions log) ~init:[]
              ~f:(fun acc (c : Service_log.completion) ->
                if c.flow = f then c :: acc else acc)
            |> List.rev |> Array.of_list
          in
          let k = Array.length comps in
          let starts = Array.map (fun c -> c.Service_log.start) comps in
          let finishes = Array.map (fun c -> c.Service_log.finish) comps in
          let prefix = Array.make (k + 1) 0.0 in
          for i = 0 to k - 1 do
            prefix.(i + 1) <- prefix.(i) +. float_of_int comps.(i).Service_log.len
          done;
          let lower_bound x =
            let lo = ref 0 and hi = ref k in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if starts.(mid) >= x then hi := mid else lo := mid + 1
            done;
            !lo
          in
          let upper_bound x =
            let lo = ref 0 and hi = ref k in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if finishes.(mid) <= x then lo := mid + 1 else hi := mid
            done;
            !lo
          in
          let work t1 t2 =
            let i1 = lower_bound t1 and i2 = upper_bound t2 in
            if i2 > i1 then prefix.(i2) -. prefix.(i1) else 0.0
          in
          let lmax_f = lmax f in
          List.iter
            (fun (a, b) ->
              let inside t = t >= a && t <= b in
              let boundaries =
                Array.to_list starts @ Array.to_list finishes |> List.filter inside
              in
              let t1s = a :: boundaries
              and t2s = b :: List.filter inside (Array.to_list finishes) in
              List.iter
                (fun t1 ->
                  List.iter
                    (fun t2 ->
                      if t2 > t1 then begin
                        let w = work t1 t2 in
                        let lo =
                          Bounds.sfq_throughput_lower ~rate:r ~t1 ~t2 ~sum_lmax ~lmax_f
                            ~capacity ~delta:0.0
                        in
                        if w < lo -. slack lo then
                          report ~at:t2
                            (Printf.sprintf
                               "flow %d: W(%g,%g) = %g below the Theorem 2 bound %g" f t1
                               t2 w lo)
                      end)
                    t2s)
                t1s)
            (Service_log.busy_intervals log f ~until)
        end
      in
      List.iter check_flow flows)
