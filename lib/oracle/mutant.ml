open Sfq_base
open Sfq_util

type mode =
  | Stale_vtime
  | No_weight
  | Finish_key
  | Lifo
  | Lazy_idle
  | Wrong_queue_drop
  | Stale_reopen
  | Pifo_wrong_rank
  | Pifo_stale_state
  | Pifo_no_vtime

let all =
  [ Stale_vtime; No_weight; Finish_key; Lifo; Lazy_idle; Wrong_queue_drop;
    Stale_reopen; Pifo_wrong_rank; Pifo_stale_state; Pifo_no_vtime ]

let name = function
  | Stale_vtime -> "stale_vtime"
  | No_weight -> "no_weight"
  | Finish_key -> "finish_key"
  | Lifo -> "lifo"
  | Lazy_idle -> "lazy_idle"
  | Wrong_queue_drop -> "wrong_queue_drop"
  | Stale_reopen -> "stale_reopen"
  | Pifo_wrong_rank -> "pifo_wrong_rank"
  | Pifo_stale_state -> "pifo_stale_state"
  | Pifo_no_vtime -> "pifo_no_vtime"

(* The rank-program mutants run through the real Pifo_sched runtime —
   each is Programs.sfq with exactly one line broken, so a kill here
   certifies that the oracle suite sees through the runtime, not just
   through the hand-written clone below. *)
let pifo_sched mode weights =
  let open Sfq_pifo in
  let fs = Flow_state.create weights in
  let v = ref 0 and mfs = ref 0 in
  let regs = Rank_program.regs () in
  let prog =
    {
      Rank_program.name = "pifo-mutant-" ^ name mode;
      regs;
      shaped = false;
      rank =
        (fun ~now:_ ~slot pkt ->
          let d = Flow_state.delta fs ~slot pkt in
          let fprev = Flow_state.get fs slot in
          let stag = if !v > fprev then !v else fprev in
          let ftag = Tag.sat_add stag d in
          (* the bug: Pifo_stale_state never advances the per-flow
             finish tag, so every packet re-enters at S = v and the
             weight normalization in eq. 4 is lost *)
          if mode <> Pifo_stale_state then Flow_state.set fs slot ftag;
          regs.aux <- ftag;
          (* the bug: Pifo_wrong_rank emits the finish tag as the rank
             — the §2.3 serve-by-F pitfall, now one token in a rank
             program instead of a heap-key rewrite *)
          if mode = Pifo_wrong_rank then ftag else stag);
      on_dequeue =
        (fun ~key ~aux ~empty:_ ->
          (* the bug: Pifo_no_vtime drops the virtual-time update, so
             v(t) sticks at 0 and late-waking flows re-enter at S ≈ 0 *)
          if mode <> Pifo_no_vtime then begin
            v := key;
            if aux > !mfs then mfs := aux
          end);
      on_idle =
        (fun () -> if mode <> Pifo_no_vtime && !mfs > !v then v := !mfs);
      horizon = Rank_program.no_horizon;
      attach = Rank_program.no_attach;
      on_close = (fun ~now:_ ~slot _ -> Flow_state.forget fs slot);
      vtime = (fun () -> Tag.decode (Flow_state.codec fs) !v);
      stale = Rank_program.never_stale;
    }
  in
  let s = Pifo_sched.create prog in
  (Pifo_sched.sched s, fun () -> Pifo_sched.vtime s)

(* An SFQ clone small enough to break on purpose: a single Fheap over
   every queued packet (no per-flow rings — Flow_heap's FIFO structure
   would make the Lifo mutant unrepresentable). The heap's payload is
   the entry's handle in [entries]. *)
let float_sched mode weights =
  let heap = Fheap.create () in
  let entries : (float * Packet.t) Slab.t = Slab.create () in
  let finish : (Packet.flow, float) Hashtbl.t = Hashtbl.create 16 in
  let counts : (Packet.flow, int) Hashtbl.t = Hashtbl.create 16 in
  let v = ref 0.0 in
  let uid = ref 0 in
  let polls = ref 0 in
  let bump flow d =
    Hashtbl.replace counts flow
      (Option.value (Hashtbl.find_opt counts flow) ~default:0 + d)
  in
  let enqueue ~now:_ pkt =
    let flow = pkt.Packet.flow in
    let r = match mode with No_weight -> 1.0 | _ -> Weights.get weights flow in
    let prev = Option.value (Hashtbl.find_opt finish flow) ~default:0.0 in
    let stag = Float.max !v prev in
    let ftag = stag +. (float_of_int pkt.Packet.len /. r) in
    Hashtbl.replace finish flow ftag;
    incr uid;
    bump flow 1;
    let key, u =
      match mode with
      | Finish_key -> (ftag, !uid)
      | Lifo -> (0.0, - !uid)
      | _ -> (stag, !uid)
    in
    Fheap.add heap ~key ~tie:0.0 ~uid:u (Slab.put entries (stag, pkt))
  in
  let dequeue ~now:_ =
    incr polls;
    if mode = Lazy_idle && !polls mod 3 = 0 then None
    else
      match Fheap.pop_elt heap with
      | None ->
        (* busy period over: restart the clock like the real thing *)
        if mode <> Stale_vtime then begin
          v := 0.0;
          Hashtbl.reset finish
        end;
        None
      | Some h ->
        let stag, pkt = Slab.take entries h in
        if mode <> Stale_vtime then v := Float.max !v stag;
        bump pkt.Packet.flow (-1);
        Some pkt
  in
  let of_flow flow h = (snd (Slab.get entries h)).Packet.flow = flow in
  (* The oldest still-queued packet of any OTHER flow — the scapegoat
     the Wrong_queue_drop mutant blames for an eviction it performed on
     its own queue. Deterministic min over (stag, seq, flow), not heap
     layout, so parallel digests stay byte-identical. *)
  let scapegoat flow =
    let best = ref None in
    Fheap.iter heap ~f:(fun _ h ->
        let stag, p = Slab.get entries h in
        if p.Packet.flow <> flow then
          let better =
            match !best with
            | None -> true
            | Some (bs, bp) ->
              (stag, p.Packet.seq, p.Packet.flow)
              < (bs, bp.Packet.seq, bp.Packet.flow)
          in
          if better then best := Some (stag, p));
    Option.map snd !best
  in
  let evict ~now:_ victim flow =
    let newest = match victim with Sched.Newest -> true | Sched.Oldest -> false in
    match Fheap.remove_matching ~newest heap ~pred:(of_flow flow) with
    | None -> None
    | Some (_, h) ->
      let _, pkt = Slab.take entries h in
      bump flow (-1);
      (match mode with
      | Wrong_queue_drop -> (
        (* the bug: the victim came out of [flow]'s queue, but the drop
           is reported against another flow's packet — which stays
           queued and will depart (or be blamed again) later *)
        match scapegoat flow with None -> Some pkt | Some other -> Some other)
      | _ -> Some pkt)
  in
  let close_flow ~now:_ flow =
    let rec drain acc =
      match Fheap.remove_matching heap ~pred:(of_flow flow) with
      | None -> List.rev acc
      | Some (_, h) ->
        bump flow (-1);
        drain (snd (Slab.take entries h) :: acc)
    in
    let flushed = drain [] in
    (* the bug: Stale_reopen keeps the closed flow's finish tag, so a
       reopened flow re-enters at max(v, stale F) instead of v(t) *)
    if mode <> Stale_reopen then Hashtbl.remove finish flow;
    flushed
  in
  let s =
    {
      Sched.name = "sfq-mutant-" ^ name mode;
      enqueue;
      dequeue;
      evict;
      close_flow;
      peek = (fun () -> Option.map (fun h -> snd (Slab.get entries h)) (Fheap.min_elt heap));
      size = (fun () -> Fheap.length heap);
      backlog =
        (fun flow -> Option.value (Hashtbl.find_opt counts flow) ~default:0);
    }
  in
  (s, fun () -> !v)

let sched mode weights =
  match mode with
  | Pifo_wrong_rank | Pifo_stale_state | Pifo_no_vtime ->
    pifo_sched mode weights
  | _ -> float_sched mode weights

let burst ?rate ~at ~flow ~len n : Workload.arrival list =
  List.init n (fun _ -> { Workload.at; flow; len; rate })

let base ~capacity ~weights arrivals : Workload.t =
  {
    capacity;
    weights;
    arrivals;
    reweights = [];
    churn = [];
    rate_changes = [];
    buffer = None;
  }

let rec workload mode : Workload.t =
  match mode with
  (* Each rank-program mutant reproduces a classic bug whose crafted
     kill-trace already exists: reuse it, the violation margins carry
     over unchanged (the fixed-point quantization is ~1e-6 of them). *)
  | Pifo_wrong_rank -> workload Finish_key
  | Pifo_stale_state -> workload No_weight
  | Pifo_no_vtime -> workload Stale_vtime
  | Stale_vtime ->
    (* f2 wakes at t=50 with v stuck at 0: its start tags restart at 0
       and it monopolizes the link until they catch up — during the
       both-backlogged window f1 gets nothing for ~5 packet times,
       |W1/r1 − W2/r2| ≈ 111 s >> bound 2·l/r = 44.4 s. *)
    base ~capacity:100.0
      ~weights:[ (1, 45.0); (2, 45.0) ]
      (burst ~at:0.0 ~flow:1 ~len:1000 20 @ burst ~at:50.0 ~flow:2 ~len:1000 20)
  | No_weight ->
    (* 8:1 reservation served 1:1: drift reaches ~260 s, bound 11.25 s. *)
    base ~capacity:1000.0
      ~weights:[ (1, 800.0); (2, 100.0) ]
      (burst ~at:0.0 ~flow:1 ~len:1000 30 @ burst ~at:0.0 ~flow:2 ~len:1000 30)
  | Finish_key ->
    (* The low-rate flow's lone packet has the largest finish tag, so
       finish-tag order serves it dead last (t = 310 s); Theorem 4
       promises EAT + l2max/C + l/C = 20 s. *)
    base ~capacity:100.0
      ~weights:[ (1, 2.0); (2, 90.0) ]
      (burst ~at:0.0 ~flow:2 ~len:1000 30 @ burst ~at:0.0 ~flow:1 ~len:1000 1)
  | Lifo ->
    base ~capacity:100.0 ~weights:[ (1, 50.0) ] (burst ~at:0.0 ~flow:1 ~len:1000 3)
  | Lazy_idle ->
    base ~capacity:100.0 ~weights:[ (1, 50.0) ] (burst ~at:0.0 ~flow:1 ~len:1000 6)
  | Wrong_queue_drop ->
    (* Per-flow budget 3, Drop_front: f1's 4th arrival evicts f1's
       oldest, but the mutant reports f2's lone packet as the casualty.
       The first false report scan-removes f2#1 from flow_fifo's
       pending set; the second (f2#1 is still queued, so it is blamed
       again) or f2#1's real departure trips the monitor. *)
    {
      (base ~capacity:100.0
         ~weights:[ (1, 50.0); (2, 40.0) ]
         (burst ~at:0.0 ~flow:2 ~len:1000 1 @ burst ~at:0.0 ~flow:1 ~len:1000 6))
      with
      buffer =
        Some
          { Workload.per_flow = Some 3; aggregate = None;
            policy = Buffered.Drop_front };
    }
  | Stale_reopen ->
    (* f2 accumulates finish tag ≈ 2000 (10 × 1000/5), closes at t=10,
       reopens at t=12. Correct SFQ forgets F on close, so the reopened
       flow re-enters at S = v(t) ≈ tens; the mutant re-enters at
       max(v, 2000) and starves f2 for f1's whole backlog (~390 s):
       |W1/r1 − W2/r2| ≈ 780 s >> bound l1/r1 + l2/r2 = 220 s. *)
    {
      (base ~capacity:100.0
         ~weights:[ (1, 50.0); (2, 5.0) ]
         (burst ~at:0.0 ~flow:1 ~len:1000 40
         @ burst ~at:0.0 ~flow:2 ~len:1000 10
         @ burst ~at:12.0 ~flow:2 ~len:1000 20))
      with
      churn = [ { Workload.at = 10.0; flow = 2 } ];
    }

let expected_monitor = function
  | Stale_vtime -> "fairness"
  | No_weight -> "fairness"
  | Finish_key -> "sfq_delay"
  | Lifo -> "flow_fifo"
  | Lazy_idle -> "work_conserving"
  | Wrong_queue_drop -> "flow_fifo"
  | Stale_reopen -> "fairness"
  | Pifo_wrong_rank -> "sfq_delay"
  | Pifo_stale_state -> "fairness"
  | Pifo_no_vtime -> "fairness"
