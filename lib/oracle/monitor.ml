open Sfq_base
open Sfq_sched
open Sfq_core
open Sfq_analysis

type drop_reason = Rejected | Evicted | Closed

let drop_reason_name = function
  | Rejected -> "rejected"
  | Evicted -> "evicted"
  | Closed -> "closed"

type event =
  | Arrival of { at : float; pkt : Packet.t }
  | Departure of { start : float; finish : float; pkt : Packet.t }
  | Drop of { at : float; pkt : Packet.t; reason : drop_reason }
  | Idle of { at : float; backlog : int }

type violation = { monitor : string; at : float; what : string }

type t = {
  name : string;
  first : violation option ref;
  observe_f : event -> unit;
  finalize_f : until:float -> unit;
}

let name t = t.name
let result t = !(t.first)
let observe t ev = match !(t.first) with None -> t.observe_f ev | Some _ -> ()
let finalize t ~until = match !(t.first) with None -> t.finalize_f ~until | Some _ -> ()

let pp_violation ppf v =
  Format.fprintf ppf "[%s] t=%g: %s" v.monitor v.at v.what

(* Floating-point slack for comparisons against closed-form bounds:
   absolute for small magnitudes, relative for large ones. *)
let slack b = 1e-9 *. Float.max 1.0 (Float.abs b)

let make ~name ?observe ?finalize () =
  let first = ref None in
  let report ~at what =
    if !first = None then first := Some { monitor = name; at; what }
  in
  let observe_f =
    match observe with None -> fun _ -> () | Some f -> f report
  in
  let finalize_f =
    match finalize with None -> fun ~until:_ -> () | Some f -> f report
  in
  { name; first; observe_f; finalize_f }

(* ------------------------------------------------------------------ *)
(* Structural monitors                                                  *)

let work_conserving () =
  let outstanding = ref 0 in
  make ~name:"work_conserving"
    ~observe:(fun report -> function
      | Arrival _ -> incr outstanding
      | Departure { finish; _ } ->
        decr outstanding;
        if !outstanding < 0 then report ~at:finish "more departures than arrivals"
      | Drop { at; _ } ->
        decr outstanding;
        if !outstanding < 0 then report ~at "more removals than arrivals"
      | Idle { at; _ } ->
        if !outstanding > 0 then
          report ~at
            (Printf.sprintf "idle poll with %d packet(s) queued" !outstanding))
    ()

(* The paper's implicit packet-conservation law, made explicit for the
   lossy setting: at every quiescent instant,
   arrived = departed + dropped + backlogged. Checked at departures,
   idle polls and finalize — not at Arrival/Drop, where the arriving
   packet is counted by the observer but not yet (or no longer) held by
   the scheduler (a one-packet transient inside [enqueue]). [size]
   probes the scheduler's own backlog so the two sides cannot share a
   bookkeeping bug. *)
let conservation ~size () =
  let arrived = ref 0 and departed = ref 0 and dropped = ref 0 in
  let check report ~at =
    let backlog = size () in
    if !arrived - !departed - !dropped <> backlog then
      report ~at
        (Printf.sprintf
           "conservation violated: arrived %d <> departed %d + dropped %d + \
            backlogged %d"
           !arrived !departed !dropped backlog)
  in
  make ~name:"conservation"
    ~observe:(fun report -> function
      | Arrival _ -> incr arrived
      | Departure { finish; _ } ->
        incr departed;
        check report ~at:finish
      | Drop _ -> incr dropped
      | Idle { at; _ } -> check report ~at)
    ~finalize:(fun report ~until -> check report ~at:until)
    ()

let flow_fifo () =
  let pending : (Packet.flow, int Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let queue_of flow =
    match Hashtbl.find pending flow with
    | q -> q
    | exception Not_found ->
      let q = Queue.create () in
      Hashtbl.add pending flow q;
      q
  in
  make ~name:"flow_fifo"
    ~observe:(fun report -> function
      | Arrival { pkt; _ } -> Queue.push pkt.Packet.seq (queue_of pkt.Packet.flow)
      | Departure { finish; pkt; _ } -> (
        match Queue.take_opt (queue_of pkt.Packet.flow) with
        | None ->
          report ~at:finish
            (Printf.sprintf "flow %d: seq %d departed but never arrived"
               pkt.Packet.flow pkt.Packet.seq)
        | Some seq when seq <> pkt.Packet.seq ->
          report ~at:finish
            (Printf.sprintf "flow %d: expected seq %d to depart next, got %d"
               pkt.Packet.flow seq pkt.Packet.seq)
        | Some _ -> ())
      | Drop { at; pkt; reason } ->
        (* A drop may take any position in the flow's FIFO (front for
           drop-front, back for a rejected arrival, anywhere for a
           flush) — but it must name a packet that is actually pending.
           This is what catches a policy that debits one queue while
           evicting from another. *)
        let q = queue_of pkt.Packet.flow in
        let n = Queue.length q in
        let found = ref false in
        for _ = 1 to n do
          let s = Queue.pop q in
          if (not !found) && s = pkt.Packet.seq then found := true else Queue.push s q
        done;
        if not !found then
          report ~at
            (Printf.sprintf "flow %d: %s seq %d was not pending" pkt.Packet.flow
               (drop_reason_name reason) pkt.Packet.seq)
      | Idle _ -> ())
    ~finalize:(fun report ~until ->
      Hashtbl.iter
        (fun flow q ->
          if not (Queue.is_empty q) then
            report ~at:until
              (Printf.sprintf "flow %d: %d packet(s) never departed" flow
                 (Queue.length q)))
        pending)
    ()

let tag_monotone ~name ?(allow_idle_reset = true) ~vtime () =
  let prev = ref neg_infinity in
  make ~name
    ~observe:(fun report ev ->
      let v = vtime () in
      match ev with
      | Idle _ when allow_idle_reset -> prev := v
      | Arrival { at; _ }
      | Departure { finish = at; _ }
      | Drop { at; _ }
      | Idle { at; _ } ->
        if v < !prev -. slack !prev then
          report ~at
            (Printf.sprintf "virtual time went backwards: %g -> %g" !prev v)
        else prev := Float.max !prev v)
    ()

(* ------------------------------------------------------------------ *)
(* Theorem 1: fairness                                                  *)

let fairness ?(name = "fairness") ?(bound = Bounds.h_sfq) ~rate () =
  let log = Service_log.create () in
  let lmax : (Packet.flow, float) Hashtbl.t = Hashtbl.create 16 in
  make ~name
    ~observe:(fun _report -> function
      | Arrival { at; pkt } ->
        Service_log.note_arrival log ~at pkt.Packet.flow;
        let l = float_of_int pkt.Packet.len in
        let cur =
          Option.value (Hashtbl.find_opt lmax pkt.Packet.flow) ~default:0.0
        in
        if l > cur then Hashtbl.replace lmax pkt.Packet.flow l
      | Departure { start; finish; pkt } ->
        Service_log.note_completion log ~flow:pkt.Packet.flow ~start ~finish
          ~len:pkt.Packet.len
      | Drop { at; pkt; _ } ->
        (* restricts the guarantee to service actually rendered: the
           dropped packet stops counting as backlog, and W_f never sees
           it, so Theorem 1 is checked over the surviving traffic *)
        Service_log.note_removal log ~at pkt.Packet.flow
      | Idle _ -> ())
    ~finalize:(fun report ~until ->
      let flows = List.sort compare (Service_log.flows log) in
      let lmax_of f = Option.value (Hashtbl.find_opt lmax f) ~default:0.0 in
      let check f m =
        let r_f = rate f and r_m = rate m in
        if r_f > 0.0 && r_m > 0.0 then begin
          let h = Fairness.exact_h log ~f ~m ~r_f ~r_m ~until in
          let b = bound ~lmax_f:(lmax_of f) ~r_f ~lmax_m:(lmax_of m) ~r_m in
          if h > b +. slack b then
            report ~at:until
              (Printf.sprintf
                 "flows (%d,%d): H = %g exceeds the Theorem 1 bound %g" f m h b)
        end
      in
      let rec pairs = function
        | [] -> ()
        | f :: rest ->
          List.iter (check f) rest;
          pairs rest
      in
      pairs flows)
    ()

(* Relaxed Theorem 1: same service-log bookkeeping and pairwise H
   computation as [fairness], but instead of latching a violation it
   records the worst measured unfairness against the exact-SFQ bound.
   For approximate schedulers (Sp_pifo) the bound does not hold by
   construction; what matters is how far outside it the scheduler
   actually lands — the "fairness budget" the bench publishes. *)

type fairness_budget = {
  pairs_checked : int;
  max_h : float;
  max_bound : float;
  max_excess : float;
  worst_pair : (Packet.flow * Packet.flow) option;
}

let empty_budget =
  {
    pairs_checked = 0;
    max_h = 0.0;
    max_bound = 0.0;
    max_excess = neg_infinity;
    worst_pair = None;
  }

let fairness_measured ?(name = "fairness_budget") ?(bound = Bounds.h_sfq) ~rate ()
    =
  let log = Service_log.create () in
  let lmax : (Packet.flow, float) Hashtbl.t = Hashtbl.create 16 in
  let budget = ref empty_budget in
  let m =
    make ~name
      ~observe:(fun _report -> function
        | Arrival { at; pkt } ->
          Service_log.note_arrival log ~at pkt.Packet.flow;
          let l = float_of_int pkt.Packet.len in
          let cur =
            Option.value (Hashtbl.find_opt lmax pkt.Packet.flow) ~default:0.0
          in
          if l > cur then Hashtbl.replace lmax pkt.Packet.flow l
        | Departure { start; finish; pkt } ->
          Service_log.note_completion log ~flow:pkt.Packet.flow ~start ~finish
            ~len:pkt.Packet.len
        | Drop { at; pkt; _ } -> Service_log.note_removal log ~at pkt.Packet.flow
        | Idle _ -> ())
      ~finalize:(fun _report ~until ->
        let flows = List.sort compare (Service_log.flows log) in
        let lmax_of f = Option.value (Hashtbl.find_opt lmax f) ~default:0.0 in
        let acc = ref empty_budget in
        let check f m =
          let r_f = rate f and r_m = rate m in
          if r_f > 0.0 && r_m > 0.0 then begin
            let h = Fairness.exact_h log ~f ~m ~r_f ~r_m ~until in
            let b = bound ~lmax_f:(lmax_of f) ~r_f ~lmax_m:(lmax_of m) ~r_m in
            let excess = h -. b in
            let cur = !acc in
            let cur = { cur with pairs_checked = cur.pairs_checked + 1 } in
            let cur =
              if excess > cur.max_excess then
                {
                  cur with
                  max_h = h;
                  max_bound = b;
                  max_excess = excess;
                  worst_pair = Some (f, m);
                }
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
      ()
  in
  (m, fun () -> !budget)

(* ------------------------------------------------------------------ *)
(* Departure-time bounds (Theorem 4 / eq. 56)                           *)

let delay_monitor ~name ~flows ~lmax ~eat_rate ~bound () =
  let eat = Eat.create () in
  let eats : (Packet.flow * int, float) Hashtbl.t = Hashtbl.create 64 in
  let sum_all = List.fold_left (fun acc f -> acc +. lmax f) 0.0 flows in
  make ~name
    ~observe:(fun report -> function
      | Arrival { at; pkt } ->
        let r = eat_rate pkt in
        if r > 0.0 then
          let e =
            Eat.on_arrival eat ~now:at ~flow:pkt.Packet.flow ~len:pkt.Packet.len
              ~rate:r
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
              (Printf.sprintf
                 "flow %d seq %d: departed at %g, bound %g (EAT %g)"
                 pkt.Packet.flow pkt.Packet.seq finish b e))
      | Drop { pkt; _ } ->
        (* a dropped packet has no departure to bound; forget its EAT *)
        Hashtbl.remove eats (pkt.Packet.flow, pkt.Packet.seq)
      | Idle _ -> ())
    ()

let sfq_delay ~flows ~lmax ~rate ~capacity () =
  delay_monitor ~name:"sfq_delay" ~flows ~lmax
    ~eat_rate:(fun pkt ->
      match pkt.Packet.rate with Some r -> r | None -> rate pkt.Packet.flow)
    ~bound:(fun ~eat ~sum_other_lmax ~pkt ->
      Bounds.sfq_departure ~eat ~sum_other_lmax
        ~len:(float_of_int pkt.Packet.len) ~capacity ~delta:0.0)
    ()

let scfq_delay ~flows ~lmax ~rate ~capacity () =
  delay_monitor ~name:"scfq_delay" ~flows ~lmax
    ~eat_rate:(fun pkt -> rate pkt.Packet.flow)
    ~bound:(fun ~eat ~sum_other_lmax ~pkt ->
      Bounds.scfq_departure ~eat ~sum_other_lmax
        ~len:(float_of_int pkt.Packet.len) ~rate:(rate pkt.Packet.flow)
        ~capacity)
    ()

(* ------------------------------------------------------------------ *)
(* Theorem 2: throughput                                                *)

let sfq_throughput ~flows ~lmax ~rate ~capacity () =
  let log = Service_log.create () in
  let sum_lmax = List.fold_left (fun acc f -> acc +. lmax f) 0.0 flows in
  make ~name:"sfq_throughput"
    ~observe:(fun _report -> function
      | Arrival { at; pkt } -> Service_log.note_arrival log ~at pkt.Packet.flow
      | Departure { start; finish; pkt } ->
        Service_log.note_completion log ~flow:pkt.Packet.flow ~start ~finish
          ~len:pkt.Packet.len
      | Drop { at; pkt; _ } ->
        (* Theorem 2 presumes the backlog is eventually served; attach
           this monitor only to loss-free runs. The removal is still
           tracked so the busy-interval accounting stays consistent. *)
        Service_log.note_removal log ~at pkt.Packet.flow
      | Idle _ -> ())
    ~finalize:(fun report ~until ->
      (* For one flow, completions arrive in finish order and (per-flow
         FIFO service) also in start order, so W_f(t1,t2) — packets with
         start >= t1 and finish <= t2 — is a prefix-sum difference. *)
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
          (* first index with starts.(i) >= x *)
          let lower_bound x =
            let lo = ref 0 and hi = ref k in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if starts.(mid) >= x then hi := mid else lo := mid + 1
            done;
            !lo
          in
          (* number of indices with finishes.(i) <= x *)
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
                Array.to_list starts @ Array.to_list finishes
                |> List.filter inside
              in
              let t1s = a :: boundaries and t2s = b :: List.filter inside (Array.to_list finishes) in
              List.iter
                (fun t1 ->
                  List.iter
                    (fun t2 ->
                      if t2 > t1 then begin
                        let w = work t1 t2 in
                        let lo =
                          Bounds.sfq_throughput_lower ~rate:r ~t1 ~t2 ~sum_lmax
                            ~lmax_f ~capacity ~delta:0.0
                        in
                        if w < lo -. slack lo then
                          report ~at:t2
                            (Printf.sprintf
                               "flow %d: W(%g,%g) = %g below the Theorem 2 \
                                bound %g"
                               f t1 t2 w lo)
                      end)
                    t2s)
                t1s)
            (Service_log.busy_intervals log f ~until)
        end
      in
      List.iter check_flow flows)
    ()

(* ------------------------------------------------------------------ *)
(* Wrapper                                                              *)

(* A loop rather than [List.iter]: a [fun m -> observe m ev] argument
   would be a closure allocated per event. *)
let rec emit_all monitors ev =
  match monitors with
  | [] -> ()
  | m :: rest ->
    observe m ev;
    emit_all rest ev

let rec emit_closed monitors ~now = function
  | [] -> ()
  | p :: rest ->
    emit_all monitors (Drop { at = now; pkt = p; reason = Closed });
    emit_closed monitors ~now rest

let drop_event monitors ~now ~reason pkt =
  let reason =
    match (reason : Buffered.reason) with
    | Buffered.Rejected -> Rejected
    | Buffered.Evicted -> Evicted
  in
  emit_all monitors (Drop { at = now; pkt; reason })

let wrap inner ~capacity ~monitors =
  let emit ev = emit_all monitors ev in
  {
    Sched.name = inner.Sched.name ^ "+oracle";
    enqueue =
      (fun ~now pkt ->
        (* Arrival first: a buffer policy below may drop (the arrival
           itself, or an evicted victim) during this very enqueue, and
           those Drop events must follow the Arrival they answer. *)
        emit (Arrival { at = now; pkt });
        inner.Sched.enqueue ~now pkt);
    dequeue =
      (fun ~now ->
        match inner.Sched.dequeue ~now with
        | None ->
          (* probe the scheduler rather than keep a shadow count: drops
             inside a wrapped buffer layer would silently desync it *)
          emit (Idle { at = now; backlog = inner.Sched.size () });
          None
        | Some pkt as got ->
          let finish = now +. (float_of_int pkt.Packet.len /. capacity ()) in
          emit (Departure { start = now; finish; pkt });
          got);
    peek = inner.Sched.peek;
    size = inner.Sched.size;
    backlog = inner.Sched.backlog;
    evict =
      (fun ~now victim flow ->
        match inner.Sched.evict ~now victim flow with
        | None -> None
        | Some p as got ->
          emit (Drop { at = now; pkt = p; reason = Evicted });
          got);
    close_flow =
      (fun ~now flow ->
        let flushed = inner.Sched.close_flow ~now flow in
        emit_closed monitors ~now flushed;
        flushed);
  }
