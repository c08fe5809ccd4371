open Sfq_util
open Sfq_base

(* Both stages run on monomorphic float-keyed heaps. Packets wait in
   per-flow FIFOs ({!Flow_heap}): only each flow's oldest unreleased
   packet sits in [pending] (start tags are non-decreasing within a
   flow, eq. 4), so the pending stage costs O(log F). Released packets
   move to [eligible] keyed by finish tag, carrying their original
   push-order uid so the (tag, tie, uid) order is exactly the seed
   per-packet-heap order. *)
type t = {
  gps : Gps.t;
  pending : Packet.t Flow_heap.t;  (* key = start tag, aux = finish tag *)
  eligible : Fheap.t;  (* key = finish tag, payload = handle in [released] *)
  released : Packet.t Slab.t;
  counts : int Flow_table.t;
  tie : Tag_queue.tie;
  mutable last_now : float;
}

let tie_value tie flow =
  match (tie : Tag_queue.tie) with
  | Arrival -> 0.0
  | Low_rate w -> w flow
  | High_rate w -> -.w flow

let create ~capacity ?(tie = Tag_queue.Arrival) weights =
  let pending = Flow_heap.create () in
  let eligible = Fheap.create () in
  let real_system_empty () = Flow_heap.is_empty pending && Fheap.is_empty eligible in
  {
    gps = Gps.create ~capacity ~real_system_empty weights;
    pending;
    eligible;
    released = Slab.create ();
    counts = Flow_table.create ~default:(fun _ -> 0);
    tie;
    last_now = 0.0;
  }

let enqueue t ~now pkt =
  t.last_now <- Float.max t.last_now now;
  let flow = pkt.Packet.flow in
  let stag, ftag = Gps.on_arrival t.gps ~now pkt in
  Flow_heap.push t.pending ~flow ~key:stag ~aux:ftag ~tie:(tie_value t.tie flow) pkt;
  Flow_table.set t.counts flow (Flow_table.find t.counts flow + 1)

(* Move packets the fluid system has started (S <= v) to the eligible
   heap. Releasing a flow's head exposes its successor in [pending], so
   the loop drains exactly the packets a global start-tag heap would. *)
let promote t ~now =
  let v = Gps.vtime t.gps ~now in
  let rec go () =
    match Flow_heap.peek t.pending with
    | Some e when e.Flow_heap.key <= v +. 1e-12 ->
      let e = Option.get (Flow_heap.pop t.pending) in
      Fheap.add t.eligible ~key:e.Flow_heap.aux
        ~tie:(tie_value t.tie e.Flow_heap.flow)
        ~uid:e.Flow_heap.uid
        (Slab.put t.released e.Flow_heap.value);
      go ()
    | Some _ | None -> ()
  in
  go ()

let take t pkt =
  Flow_table.set t.counts pkt.Packet.flow (Flow_table.find t.counts pkt.Packet.flow - 1);
  Some pkt

let dequeue t ~now =
  t.last_now <- Float.max t.last_now now;
  promote t ~now;
  match Fheap.pop_elt t.eligible with
  | Some h -> take t (Slab.take t.released h)
  | None -> begin
    (* Work conservation: nothing eligible, serve the earliest start
       tag rather than idling. *)
    match Flow_heap.pop t.pending with
    | Some e -> take t e.Flow_heap.value
    | None -> None
  end

let peek t =
  promote t ~now:t.last_now;
  match Fheap.min_elt t.eligible with
  | Some h -> Some (Slab.get t.released h)
  | None -> begin
    match Flow_heap.peek t.pending with
    | Some e -> Some e.Flow_heap.value
    | None -> None
  end

let size t = Flow_heap.size t.pending + Fheap.length t.eligible
let backlog t flow = Flow_table.find t.counts flow

(* A flow's packets released to [eligible] are strictly older than its
   packets still in [pending] (promotion pops the flow's FIFO head),
   so Oldest looks in [eligible] first and Newest in [pending] first. *)
let evict t victim flow =
  let pred h = (Slab.get t.released h).Packet.flow = flow in
  let found =
    match (victim : Sched.victim) with
    | Sched.Oldest -> (
      match Fheap.remove_matching t.eligible ~pred with
      | Some (_, h) -> Some (Slab.take t.released h)
      | None -> (
        match Flow_heap.evict_front t.pending flow with
        | Some e -> Some e.Flow_heap.value
        | None -> None))
    | Sched.Newest -> (
      match Flow_heap.evict_back t.pending flow with
      | Some e -> Some e.Flow_heap.value
      | None -> (
        match Fheap.remove_matching ~newest:true t.eligible ~pred with
        | Some (_, h) -> Some (Slab.take t.released h)
        | None -> None))
  in
  (match found with
  | Some _ -> Flow_table.set t.counts flow (Flow_table.find t.counts flow - 1)
  | None -> ());
  found

let close_flow t ~now flow =
  let pred h = (Slab.get t.released h).Packet.flow = flow in
  let rec drain_eligible acc =
    match Fheap.remove_matching t.eligible ~pred with
    | Some (_, h) -> drain_eligible (Slab.take t.released h :: acc)
    | None -> List.rev acc
  in
  (* remove_matching takes ascending uid, so [released] is oldest
     first, and everything released precedes everything pending *)
  let released = drain_eligible [] in
  let waiting = List.map (fun e -> e.Flow_heap.value) (Flow_heap.flush_flow t.pending flow) in
  Flow_table.remove t.counts flow;
  Gps.forget_flow t.gps ~now flow;
  released @ waiting

let sched t =
  {
    Sched.name = "wf2q";
    enqueue = (fun ~now pkt -> enqueue t ~now pkt);
    dequeue = (fun ~now -> dequeue t ~now);
    peek = (fun () -> peek t);
    size = (fun () -> size t);
    backlog = (fun flow -> backlog t flow);
    evict = (fun ~now:_ victim flow -> evict t victim flow);
    close_flow = (fun ~now flow -> close_flow t ~now flow);
  }
