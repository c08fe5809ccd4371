open Sfq_base
open Sfq_sched
open Sfq_core
open Sfq_analysis
module Slot_map = Sfq_util.Slot_map

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

type report = at:float -> string -> unit

(* One hook per event kind, so a wrapped scheduler feeds its monitors
   without building an [event] per call. Hooks take the monitor's
   [report] as an argument: binding it by partial application would
   cost a curry closure per hook and an extra indirect call per
   event. The departure hook reads the service interval from a float
   array, [times.(0)] the start and [times.(1)] the finish: a float
   passed to a closure is boxed, an array slot is not. *)
type t = {
  name : string;
  first : violation option ref;
  report : report;
  arrival : report -> at:float -> Packet.t -> unit;
  departure : report -> float array -> Packet.t -> unit;
  drop : report -> at:float -> Packet.t -> drop_reason -> unit;
  idle : report -> at:float -> backlog:int -> unit;
  finalize_f : report -> until:float -> unit;
}

let name t = t.name
let result t = !(t.first)

(* Each monitor latches its first violation and ignores every later
   event. *)
let arrival t ~at pkt =
  match !(t.first) with None -> t.arrival t.report ~at pkt | Some _ -> ()

let departure t times pkt =
  match !(t.first) with None -> t.departure t.report times pkt | Some _ -> ()

let drop t ~at pkt reason =
  match !(t.first) with None -> t.drop t.report ~at pkt reason | Some _ -> ()

let idle t ~at ~backlog =
  match !(t.first) with None -> t.idle t.report ~at ~backlog | Some _ -> ()

let observe t = function
  | Arrival { at; pkt } -> arrival t ~at pkt
  | Departure { start; finish; pkt } -> departure t [| start; finish |] pkt
  | Drop { at; pkt; reason } -> drop t ~at pkt reason
  | Idle { at; backlog } -> idle t ~at ~backlog

let finalize t ~until =
  match !(t.first) with None -> t.finalize_f t.report ~until | Some _ -> ()

let pp_violation ppf v =
  Format.fprintf ppf "[%s] t=%g: %s" v.monitor v.at v.what

(* Floating-point slack for comparisons against closed-form bounds:
   absolute for small magnitudes, relative for large ones. *)
let slack b = 1e-9 *. Float.max 1.0 (Float.abs b)

(* A missing hook ignores its events. *)
let make ~name ?(arrival = fun _ ~at:_ _ -> ())
    ?(departure = fun _ _ _ -> ()) ?(drop = fun _ ~at:_ _ _ -> ())
    ?(idle = fun _ ~at:_ ~backlog:_ -> ()) ?(finalize = fun _ ~until:_ -> ()) () =
  let first = ref None in
  let report ~at what =
    if !first = None then first := Some { monitor = name; at; what }
  in
  { name; first; report; arrival; departure; drop; idle; finalize_f = finalize }

(* ------------------------------------------------------------------ *)
(* Structural monitors                                                  *)

let work_conserving () =
  let outstanding = ref 0 in
  make ~name:"work_conserving"
    ~arrival:(fun _ ~at:_ _ -> incr outstanding)
    ~departure:(fun report times _ ->
      decr outstanding;
      if !outstanding < 0 then report ~at:times.(1) "more departures than arrivals")
    ~drop:(fun report ~at _ _ ->
      decr outstanding;
      if !outstanding < 0 then report ~at "more removals than arrivals")
    ~idle:(fun report ~at ~backlog:_ ->
      if !outstanding > 0 then
        report ~at (Printf.sprintf "idle poll with %d packet(s) queued" !outstanding))
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
  (* inlined, so a departure boxes its finish time only to report *)
  let[@inline] check report ~at =
    let backlog = size () in
    if !arrived - !departed - !dropped <> backlog then
      report ~at
        (Printf.sprintf
           "conservation violated: arrived %d <> departed %d + dropped %d + \
            backlogged %d"
           !arrived !departed !dropped backlog)
  in
  make ~name:"conservation"
    ~arrival:(fun _ ~at:_ _ -> incr arrived)
    ~departure:(fun report times _ ->
      incr departed;
      check report ~at:times.(1))
    ~drop:(fun _ ~at:_ _ _ -> incr dropped)
    ~idle:(fun report ~at ~backlog:_ -> check report ~at)
    ~finalize:(fun report ~until -> check report ~at:until)
    ()

(* [flow_fifo]'s state at one hop holds only the flows with packets
   pending there. Such a flow holds a [Slot_map] slot, and the slot
   indexes the ring of its pending seqs, oldest first. The slot is freed
   when the flow's last pending packet leaves; its ring stays with the
   slot, so the next flow to take the slot reuses it. Every array is
   allocated on first use and grows by doubling. *)
type pending = {
  slots : Slot_map.t;
  mutable flow : int array;  (* slot -> flow id *)
  mutable head : int array;  (* slot -> ring index of the oldest seq *)
  mutable count : int array;  (* slot -> seqs pending; 0 once freed *)
  mutable ring : int array array;  (* slot -> ring, power-of-two length *)
}

(* first length of the slot arrays and of each ring *)
let min_len = 4

let grow_slots q =
  let n = Stdlib.max min_len (2 * Array.length q.count) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  q.flow <- extend q.flow 0;
  q.head <- extend q.head 0;
  q.count <- extend q.count 0;
  q.ring <- extend q.ring [||]

(* Slots are handed out densely from 0, so a new slot is at most one
   past the arrays' end. *)
let push q flow seq =
  let s = Slot_map.find_or_add q.slots flow in
  if s >= Array.length q.count then grow_slots q;
  let n = q.count.(s) in
  if n = 0 then q.flow.(s) <- flow;
  let r = q.ring.(s) in
  let r =
    if n < Array.length r then r
    else begin
      (* unwrap: the oldest seq moves to index 0 *)
      let grown = Array.make (Stdlib.max min_len (2 * n)) 0 in
      let h = q.head.(s) and mask = Array.length r - 1 in
      for i = 0 to n - 1 do
        grown.(i) <- r.((h + i) land mask)
      done;
      q.ring.(s) <- grown;
      q.head.(s) <- 0;
      grown
    end
  in
  r.((q.head.(s) + n) land (Array.length r - 1)) <- seq;
  q.count.(s) <- n + 1

let shrink q s flow =
  let n = q.count.(s) - 1 in
  q.count.(s) <- n;
  if n = 0 then ignore (Slot_map.remove q.slots flow)

(* The flow's oldest pending seq, removed; -1 when none is pending
   (seqs are positive). *)
let pop q flow =
  let s = Slot_map.find q.slots flow in
  if s < 0 then -1
  else begin
    let r = q.ring.(s) and h = q.head.(s) in
    let seq = r.(h) in
    q.head.(s) <- (h + 1) land (Array.length r - 1);
    shrink q s flow;
    seq
  end

(* Remove the flow's oldest pending [seq], closing the gap from the
   shorter side: a drop-front or a rejected arrival moves nothing.
   [false] when [seq] is not pending. *)
let remove q flow seq =
  let s = Slot_map.find q.slots flow in
  if s < 0 then false
  else begin
    let r = q.ring.(s) and h = q.head.(s) and n = q.count.(s) in
    let mask = Array.length r - 1 in
    let i = ref 0 in
    while !i < n && r.((h + !i) land mask) <> seq do
      incr i
    done;
    let i = !i in
    if i = n then false
    else begin
      if i < n - 1 - i then begin
        for j = i downto 1 do
          r.((h + j) land mask) <- r.((h + j - 1) land mask)
        done;
        q.head.(s) <- (h + 1) land mask
      end
      else
        for j = i to n - 2 do
          r.((h + j) land mask) <- r.((h + j + 1) land mask)
        done;
      shrink q s flow;
      true
    end
  end

let flow_fifo () =
  let q =
    { slots = Slot_map.create (); flow = [||]; head = [||]; count = [||]; ring = [||] }
  in
  make ~name:"flow_fifo"
    ~arrival:(fun _ ~at:_ pkt -> push q pkt.Packet.flow pkt.Packet.seq)
    ~departure:(fun report times pkt ->
      let seq = pop q pkt.Packet.flow in
      if seq < 0 then
        report ~at:times.(1)
          (Printf.sprintf "flow %d: seq %d departed but never arrived" pkt.Packet.flow
             pkt.Packet.seq)
      else if seq <> pkt.Packet.seq then
        report ~at:times.(1)
          (Printf.sprintf "flow %d: expected seq %d to depart next, got %d"
             pkt.Packet.flow seq pkt.Packet.seq))
    ~drop:(fun report ~at pkt reason ->
      (* A drop may take any position in the flow's FIFO (front for
         drop-front, back for a rejected arrival, anywhere for a
         flush) — but it must name a packet that is actually pending.
         This is what catches a policy that debits one queue while
         evicting from another. *)
      if not (remove q pkt.Packet.flow pkt.Packet.seq) then
        report ~at
          (Printf.sprintf "flow %d: %s seq %d was not pending" pkt.Packet.flow
             (drop_reason_name reason) pkt.Packet.seq))
    ~finalize:(fun report ~until ->
      (* the lowest flow id with packets still pending *)
      let worst = ref (-1) in
      for s = 0 to Array.length q.count - 1 do
        if q.count.(s) > 0 && (!worst < 0 || q.flow.(s) < q.flow.(!worst)) then worst := s
      done;
      if !worst >= 0 then
        report ~at:until
          (Printf.sprintf "flow %d: %d packet(s) never departed" q.flow.(!worst)
             q.count.(!worst)))
    ()

let tag_monotone ~name ?(allow_idle_reset = true) ~vtime () =
  let prev = ref neg_infinity in
  (* inlined, so a departure boxes its finish time only to report *)
  let[@inline] check report ~at =
    let v = vtime () in
    if v < !prev -. slack !prev then
      report ~at (Printf.sprintf "virtual time went backwards: %g -> %g" !prev v)
    else prev := Float.max !prev v
  in
  make ~name
    ~arrival:(fun report ~at _ -> check report ~at)
    ~departure:(fun report times _ -> check report ~at:times.(1))
    ~drop:(fun report ~at _ _ -> check report ~at)
    ~idle:(fun report ~at ~backlog:_ ->
      if allow_idle_reset then prev := vtime () else check report ~at)
    ()

(* ------------------------------------------------------------------ *)
(* Theorem 1: fairness                                                  *)

let fairness ?(name = "fairness") ?(bound = Bounds.h_sfq) ~rate () =
  let log = Service_log.create () in
  let lmax : (Packet.flow, float) Hashtbl.t = Hashtbl.create 16 in
  make ~name
    ~arrival:(fun _ ~at pkt ->
      Service_log.note_arrival log ~at pkt.Packet.flow;
      let l = float_of_int pkt.Packet.len in
      let cur = Option.value (Hashtbl.find_opt lmax pkt.Packet.flow) ~default:0.0 in
      if l > cur then Hashtbl.replace lmax pkt.Packet.flow l)
    ~departure:(fun _ times pkt ->
      Service_log.note_completion log ~flow:pkt.Packet.flow ~start:times.(0)
        ~finish:times.(1) ~len:pkt.Packet.len)
    ~drop:(fun _ ~at pkt _ ->
      (* restricts the guarantee to service actually rendered: the
         dropped packet stops counting as backlog, and W_f never sees
         it, so Theorem 1 is checked over the surviving traffic *)
      Service_log.note_removal log ~at pkt.Packet.flow)
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
      ~arrival:(fun _ ~at pkt ->
        Service_log.note_arrival log ~at pkt.Packet.flow;
        let l = float_of_int pkt.Packet.len in
        let cur = Option.value (Hashtbl.find_opt lmax pkt.Packet.flow) ~default:0.0 in
        if l > cur then Hashtbl.replace lmax pkt.Packet.flow l)
      ~departure:(fun _ times pkt ->
        Service_log.note_completion log ~flow:pkt.Packet.flow ~start:times.(0)
          ~finish:times.(1) ~len:pkt.Packet.len)
      ~drop:(fun _ ~at pkt _ -> Service_log.note_removal log ~at pkt.Packet.flow)
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
    ~arrival:(fun _ ~at pkt ->
      let r = eat_rate pkt in
      if r > 0.0 then
        let e =
          Eat.on_arrival eat ~now:at ~flow:pkt.Packet.flow ~len:pkt.Packet.len ~rate:r
        in
        Hashtbl.replace eats (pkt.Packet.flow, pkt.Packet.seq) e)
    ~departure:(fun report times pkt ->
      match Hashtbl.find_opt eats (pkt.Packet.flow, pkt.Packet.seq) with
      | None -> ()
      | Some e ->
        let sum_other = sum_all -. lmax pkt.Packet.flow in
        let b = bound ~eat:e ~sum_other_lmax:sum_other ~pkt in
        let finish = times.(1) in
        if finish > b +. slack b then
          report ~at:finish
            (Printf.sprintf "flow %d seq %d: departed at %g, bound %g (EAT %g)"
               pkt.Packet.flow pkt.Packet.seq finish b e))
    ~drop:(fun _ ~at:_ pkt _ ->
      (* a dropped packet has no departure to bound; forget its EAT *)
      Hashtbl.remove eats (pkt.Packet.flow, pkt.Packet.seq))
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
    ~arrival:(fun _ ~at pkt -> Service_log.note_arrival log ~at pkt.Packet.flow)
    ~departure:(fun _ times pkt ->
      Service_log.note_completion log ~flow:pkt.Packet.flow ~start:times.(0)
        ~finish:times.(1) ~len:pkt.Packet.len)
    ~drop:(fun _ ~at pkt _ ->
      (* Theorem 2 presumes the backlog is eventually served; attach
         this monitor only to loss-free runs. The removal is still
         tracked so the busy-interval accounting stays consistent. *)
      Service_log.note_removal log ~at pkt.Packet.flow)
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

(* Loops rather than [List.iter]: a [fun m -> ...] argument would be a
   closure allocated per event. *)
let rec arrive_all monitors ~at pkt =
  match monitors with
  | [] -> ()
  | m :: rest ->
    arrival m ~at pkt;
    arrive_all rest ~at pkt

let rec depart_all monitors times pkt =
  match monitors with
  | [] -> ()
  | m :: rest ->
    departure m times pkt;
    depart_all rest times pkt

let rec drop_all monitors ~at pkt reason =
  match monitors with
  | [] -> ()
  | m :: rest ->
    drop m ~at pkt reason;
    drop_all rest ~at pkt reason

let rec idle_all monitors ~at ~backlog =
  match monitors with
  | [] -> ()
  | m :: rest ->
    idle m ~at ~backlog;
    idle_all rest ~at ~backlog

let rec drop_closed monitors ~at = function
  | [] -> ()
  | p :: rest ->
    drop_all monitors ~at p Closed;
    drop_closed monitors ~at rest

let drop_event monitors ~now ~reason pkt =
  let reason =
    match (reason : Buffered.reason) with
    | Buffered.Rejected -> Rejected
    | Buffered.Evicted -> Evicted
  in
  drop_all monitors ~at:now pkt reason

let wrap inner ~capacity ~monitors =
  (* the departure times handed to the hooks, rewritten per dequeue *)
  let times = [| 0.0; 0.0 |] in
  {
    Sched.name = inner.Sched.name ^ "+oracle";
    enqueue =
      (fun ~now pkt ->
        (* Arrival first: a buffer policy below may drop (the arrival
           itself, or an evicted victim) during this very enqueue, and
           those Drop events must follow the Arrival they answer. *)
        arrive_all monitors ~at:now pkt;
        inner.Sched.enqueue ~now pkt);
    dequeue =
      (fun ~now ->
        match inner.Sched.dequeue ~now with
        | None ->
          (* probe the scheduler rather than keep a shadow count: drops
             inside a wrapped buffer layer would silently desync it *)
          idle_all monitors ~at:now ~backlog:(inner.Sched.size ());
          None
        | Some pkt as got ->
          times.(0) <- now;
          times.(1) <- now +. (float_of_int pkt.Packet.len /. capacity ());
          depart_all monitors times pkt;
          got);
    peek = inner.Sched.peek;
    size = inner.Sched.size;
    backlog = inner.Sched.backlog;
    evict =
      (fun ~now victim flow ->
        match inner.Sched.evict ~now victim flow with
        | None -> None
        | Some p as got ->
          drop_all monitors ~at:now p Evicted;
          got);
    close_flow =
      (fun ~now flow ->
        let flushed = inner.Sched.close_flow ~now flow in
        drop_closed monitors ~at:now flushed;
        flushed);
  }
