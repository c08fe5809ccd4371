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
   absolute for small magnitudes, relative for large ones. Inlined: a
   call would box its argument and its result. *)
let[@inline] slack b = 1e-9 *. Float.max 1.0 (Float.abs b)

(* A missing hook ignores its events. *)
let make ~name ?(arrival = fun _ ~at:_ _ -> ())
    ?(departure = fun _ _ _ -> ()) ?(drop = fun _ ~at:_ _ _ -> ())
    ?(idle = fun _ ~at:_ ~backlog:_ -> ()) ?(finalize = fun _ ~until:_ -> ()) () =
  let first = ref None in
  let report ~at what =
    if !first = None then first := Some { monitor = name; at; what }
  in
  { name; first; report; arrival; departure; drop; idle; finalize_f = finalize }

let tap f =
  make ~name:"tap"
    ~arrival:(fun _ ~at pkt -> f (Arrival { at; pkt }))
    ~departure:(fun _ times pkt ->
      f (Departure { start = times.(0); finish = times.(1); pkt }))
    ~drop:(fun _ ~at pkt reason -> f (Drop { at; pkt; reason }))
    ~idle:(fun _ ~at ~backlog -> f (Idle { at; backlog }))
    ()

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

(* A flow's largest packet so far. An all-float record, so raising it
   stores the length unboxed. *)
type len_max = { mutable len_max : float }

(* What a Theorem 1 monitor keeps: the service log that
   [Fairness.exact_h] measures, and each flow's largest arrival. *)
type h_state = { log : Service_log.t; lmax : len_max Flow_table.t }

let h_state () =
  {
    log = Service_log.create ();
    lmax = Flow_table.create ~default:(fun _ -> { len_max = 0.0 });
  }

(* [check f m ~r_f ~r_m ~lmax_f ~lmax_m h], h the pair's
   [Fairness.exact_h], for every pair f < m of logged flows with both
   rates positive, in ascending order. *)
let h_pairs st ~rate ~until check =
  let rec pairs = function
    | [] -> ()
    | f :: rest ->
      List.iter
        (fun m ->
          let r_f = rate f and r_m = rate m in
          if r_f > 0.0 && r_m > 0.0 then
            check f m ~r_f ~r_m ~lmax_f:(Flow_table.find st.lmax f).len_max
              ~lmax_m:(Flow_table.find st.lmax m).len_max
              (Fairness.exact_h st.log ~f ~m ~r_f ~r_m ~until))
        rest;
      pairs rest
  in
  pairs (List.sort compare (Service_log.flows st.log))

(* A Theorem 1 monitor: its hooks fill [st] for [finalize] to read. *)
let h_monitor st ~name ~finalize =
  make ~name
    ~arrival:(fun _ ~at pkt ->
      Service_log.note_arrival st.log ~at pkt.Packet.flow;
      let m = Flow_table.find st.lmax pkt.Packet.flow in
      let l = float_of_int pkt.Packet.len in
      if l > m.len_max then m.len_max <- l)
    ~departure:(fun _ times pkt ->
      Service_log.note_completion st.log ~flow:pkt.Packet.flow ~start:times.(0)
        ~finish:times.(1) ~len:pkt.Packet.len)
    ~drop:(fun _ ~at pkt _ ->
      (* restricts the guarantee to service actually rendered: the
         dropped packet stops counting as backlog, and W_f never sees
         it, so Theorem 1 is checked over the surviving traffic *)
      Service_log.note_removal st.log ~at pkt.Packet.flow)
    ~finalize ()

let fairness ?(name = "fairness") ?(bound = Bounds.h_sfq) ~rate () =
  let st = h_state () in
  h_monitor st ~name ~finalize:(fun report ~until ->
      h_pairs st ~rate ~until (fun f m ~r_f ~r_m ~lmax_f ~lmax_m h ->
          let b = bound ~lmax_f ~r_f ~lmax_m ~r_m in
          if h > b +. slack b then
            report ~at:until
              (Printf.sprintf "flows (%d,%d): H = %g exceeds the Theorem 1 bound %g" f m
                 h b)))

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
  let budget = ref empty_budget and st = h_state () in
  let m =
    h_monitor st ~name ~finalize:(fun _report ~until ->
        let acc = ref empty_budget in
        h_pairs st ~rate ~until (fun f m ~r_f ~r_m ~lmax_f ~lmax_m h ->
            let b = bound ~lmax_f ~r_f ~lmax_m ~r_m in
            let excess = h -. b in
            let cur = { !acc with pairs_checked = !acc.pairs_checked + 1 } in
            acc :=
              if excess > cur.max_excess then
                {
                  cur with
                  max_h = h;
                  max_bound = b;
                  max_excess = excess;
                  worst_pair = Some (f, m);
                }
              else cur);
        budget := !acc)
  in
  (m, fun () -> !budget)

(* ------------------------------------------------------------------ *)
(* Departure-time bounds (Theorem 4 / eq. 56)                           *)

(* A flow's EATs indexed by seq ([Packet.make] keeps seqs positive),
   [nan] where none is held, and the flow's Σ_{n≠f} l_n^max. *)
type eat_row = { mutable eats : float array; sum_other : float }

let delay_monitor ~name ~flows ~lmax ~eat_rate ~bound () =
  let eat = Eat.create () in
  let sum_all = List.fold_left (fun acc f -> acc +. lmax f) 0.0 flows in
  let rows =
    Flow_table.create ~default:(fun f -> { eats = [||]; sum_other = sum_all -. lmax f })
  in
  make ~name
    ~arrival:(fun _ ~at pkt ->
      let r = eat_rate pkt in
      if r > 0.0 then begin
        let e =
          Eat.on_arrival eat ~now:at ~flow:pkt.Packet.flow ~len:pkt.Packet.len ~rate:r
        in
        let row = Flow_table.find rows pkt.Packet.flow and seq = pkt.Packet.seq in
        let n = Array.length row.eats in
        if seq >= n then begin
          let grown = Array.make (Stdlib.max (2 * n) (seq + 1)) nan in
          Array.blit row.eats 0 grown 0 n;
          row.eats <- grown
        end;
        row.eats.(seq) <- e
      end)
    ~departure:(fun report times pkt ->
      (* the EAT stays: a departure reads it without removing it *)
      let row = Flow_table.find rows pkt.Packet.flow and seq = pkt.Packet.seq in
      if seq < Array.length row.eats && not (Float.is_nan row.eats.(seq)) then begin
        let e = row.eats.(seq) in
        let b = bound ~eat:e ~sum_other_lmax:row.sum_other ~pkt in
        let finish = times.(1) in
        if finish > b +. slack b then
          report ~at:finish
            (Printf.sprintf "flow %d seq %d: departed at %g, bound %g (EAT %g)"
               pkt.Packet.flow seq finish b e)
      end)
    ~drop:(fun _ ~at:_ pkt _ ->
      (* a dropped packet has no departure to bound; forget its EAT *)
      let row = Flow_table.find rows pkt.Packet.flow and seq = pkt.Packet.seq in
      if seq < Array.length row.eats then row.eats.(seq) <- nan)
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

(* First index in [0, k) with [a.(i) >= x], [a] ascending. *)
let first_at_least (a : float array) k (x : float) =
  let lo = ref 0 and hi = ref k in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* Number of indices in [0, k) with [a.(i) <= x], [a] ascending. *)
let count_at_most (a : float array) k (x : float) =
  let lo = ref 0 and hi = ref k in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

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
         start >= t1 and finish <= t2 — is a prefix-sum difference.
         Scratch arrays sized by the log hold one flow at a time: its
         starts, finishes and prefix sums, then one busy interval's
         candidate window ends (t1s, t2s) and the completion count
         each t2 admits. *)
      let comps = Service_log.completions log in
      let n = Sfq_util.Vec.length comps in
      let starts = Array.make n 0.0 and finishes = Array.make n 0.0 in
      let prefix = Array.make (n + 1) 0.0 in
      let t1s = Array.make ((2 * n) + 1) 0.0 in
      let t2s = Array.make (n + 1) 0.0 and i2s = Array.make (n + 1) 0 in
      let check_flow f =
        let r = rate f in
        if r > 0.0 then begin
          let k = ref 0 in
          for i = 0 to n - 1 do
            let c = Sfq_util.Vec.get comps i in
            if c.Service_log.flow = f then begin
              starts.(!k) <- c.start;
              finishes.(!k) <- c.finish;
              prefix.(!k + 1) <- prefix.(!k) +. float_of_int c.len;
              incr k
            end
          done;
          let k = !k in
          let lmax_f = lmax f in
          (* [Bounds.sfq_throughput_lower] with δ = 0, its constant
             terms hoisted out of the window loop and the subtractions
             kept in its order, so every bound is bit-identical. A call
             across the module boundary would box t1, t2 and the
             result per window. *)
          let burst = r *. sum_lmax /. capacity and delta_term = r *. 0.0 /. capacity in
          List.iter
            (fun (a, b) ->
              (* t1 ranges over a, the starts inside [a,b], then the
                 finishes inside; t2 over b, then the finishes inside *)
              let n1 = ref 1 and n2 = ref 1 in
              t1s.(0) <- a;
              t2s.(0) <- b;
              for i = 0 to k - 1 do
                let s = starts.(i) in
                if s >= a && s <= b then begin
                  t1s.(!n1) <- s;
                  incr n1
                end
              done;
              for i = 0 to k - 1 do
                let x = finishes.(i) in
                if x >= a && x <= b then begin
                  t1s.(!n1) <- x;
                  incr n1;
                  t2s.(!n2) <- x;
                  incr n2
                end
              done;
              for j = 0 to !n2 - 1 do
                i2s.(j) <- count_at_most finishes k t2s.(j)
              done;
              for i = 0 to !n1 - 1 do
                let t1 = t1s.(i) in
                let i1 = first_at_least starts k t1 in
                for j = 0 to !n2 - 1 do
                  let t2 = t2s.(j) in
                  if t2 > t1 then begin
                    let i2 = i2s.(j) in
                    let w = if i2 > i1 then prefix.(i2) -. prefix.(i1) else 0.0 in
                    let lo = (r *. (t2 -. t1)) -. burst -. delta_term -. lmax_f in
                    if w < lo -. slack lo then
                      report ~at:t2
                        (Printf.sprintf
                           "flow %d: W(%g,%g) = %g below the Theorem 2 bound %g" f t1 t2
                           w lo)
                  end
                done
              done)
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
