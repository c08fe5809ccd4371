open Sfq_util
open Sfq_base
open Sfq_sched

type t = {
  prog : Rank_program.t;
  regs : Rank_program.regs;  (* prog.regs, cached to skip a load *)
  (* The per-packet program hooks, cached out of [prog] at creation:
     [t.prog.Rank_program.rank] is two dependent loads per packet,
     [t.rank] is one — the kind of indirection the bench validator's
     dispatch-premium budget charges for. *)
  rank : now:float -> slot:int -> Packet.t -> int;
  on_dequeue : key:int -> aux:int -> empty:bool -> unit;
  on_idle : unit -> unit;
  horizon : now:float -> int;
  shaped : bool;
  tie : Tag_queue.tie;
  arrival : bool;  (* tie = Arrival: the encoded tie is always 0 *)
  (* Flow id -> link-local slot, assigned on a flow's first enqueue and
     freed by close_flow or a sweep. Every per-flow structure below and
     in the program is indexed by slot, so it is sized by the flows this
     runtime holds at once, not by the largest flow id. *)
  slots : Slot_map.t;
  (* A flow without a slot that arrives while [mark] flows hold one
     first sweeps: every slot with nothing queued whose program state
     is stale is given back. [owner] maps slot -> flow id (-1: free);
     it is built by the first sweep, so a runtime that never reaches
     the mark allocates none of it. *)
  mutable mark : int;
  mutable owner : int array;
  mutable reclaimed : int;  (* slots given back by sweeps *)
  main : Packet.t Iflow_heap.t;  (* unshaped service stage, keyed by slot *)
  shaper : Packet.t Iflow_heap.t;  (* shaped: eligibility stage, keyed by slot *)
  eligible : Iheap.t;  (* shaped: service stage; payload = handle in [store] *)
  (* The service stage's packets. Only shaped programs have one: a
     store in every unshaped link would cost each link a record. *)
  store : Packet.t Slab.t option;
  mutable counts : int array;  (* shaped per-slot backlog *)
  (* Per-slot encoded tie cache, filled on first use and reset by
     close_flow: the tie is snapshotted at activation, like the
     weight in Flow_state. *)
  mutable ties : int array;
  mutable tie_ok : bool array;
  mutable high : int;  (* largest clamped rank ever admitted *)
  mutable last_now : float;  (* shaped: clock for now-less peek *)
}

let tie_value tie flow =
  match (tie : Tag_queue.tie) with
  | Arrival -> 0.0
  | Low_rate w -> w flow
  | High_rate w -> -.w flow

let grow_ties t slot =
  let n = Array.length t.ties in
  let cap = Stdlib.max 16 (Stdlib.max (2 * n) (slot + 1)) in
  let ties = Array.make cap 0 in
  Array.blit t.ties 0 ties 0 n;
  t.ties <- ties;
  let ok = Array.make cap false in
  Array.blit t.tie_ok 0 ok 0 n;
  t.tie_ok <- ok

(* The tie value is the flow's (Low_rate/High_rate read the weight by
   flow id); only the cache is per slot. *)
let tie_of t ~slot flow =
  if t.arrival then 0
  else begin
    if slot >= Array.length t.ties then grow_ties t slot;
    if t.tie_ok.(slot) then t.ties.(slot)
    else begin
      let e = Tag.tie_encode (tie_value t.tie flow) in
      t.ties.(slot) <- e;
      t.tie_ok.(slot) <- true;
      e
    end
  end

(* The tie of a slot that has queued entries, hence a filled cache. *)
let cached_tie t slot = if t.arrival then 0 else t.ties.(slot)

let grow_counts t slot =
  let n = Array.length t.counts in
  let cap = Stdlib.max 16 (Stdlib.max (2 * n) (slot + 1)) in
  let counts = Array.make cap 0 in
  Array.blit t.counts 0 counts 0 n;
  t.counts <- counts

let bump t slot d =
  if slot >= Array.length t.counts then grow_counts t slot;
  t.counts.(slot) <- t.counts.(slot) + d

(* Only the shaped paths below call this, and shaped programs have a
   store. *)
let store t = match t.store with Some s -> s | None -> assert false

let size t =
  if t.shaped then Iflow_heap.size t.shaper + Iheap.length t.eligible
  else Iflow_heap.size t.main

let is_empty t = size t = 0

(* Lookups by flow id ([backlog], [evict], [close_flow]) never assign a
   slot: a flow without one has nothing queued. *)
let backlog t flow =
  let slot = Slot_map.find t.slots flow in
  if slot < 0 then 0
  else if t.shaped then if slot < Array.length t.counts then t.counts.(slot) else 0
  else Iflow_heap.backlog t.main slot

let min_mark = 16

let create ?(tie = Tag_queue.Arrival) ?capacity prog =
  let t =
    {
      prog;
      regs = prog.Rank_program.regs;
      rank = prog.Rank_program.rank;
      on_dequeue = prog.Rank_program.on_dequeue;
      on_idle = prog.Rank_program.on_idle;
      horizon = prog.Rank_program.horizon;
      shaped = prog.Rank_program.shaped;
      tie;
      arrival = (match tie with Tag_queue.Arrival -> true | _ -> false);
      slots = Slot_map.create ();
      (* the shaper's packets are not in [main], so the sweep's
         empty-ring test would not see them: shaped programs never
         sweep *)
      mark = (if prog.Rank_program.shaped then max_int else min_mark);
      owner = [||];
      reclaimed = 0;
      main = Iflow_heap.create ?capacity ();
      shaper = Iflow_heap.create ?capacity ();
      eligible = Iheap.create ();
      store = (if prog.Rank_program.shaped then Some (Slab.create ()) else None);
      counts = [||];
      ties = [||];
      tie_ok = [||];
      high = 0;
      last_now = 0.0;
    }
  in
  prog.Rank_program.attach (fun () -> size t);
  t

(* Ranks saturate at the Tag rail and clamp below at 0 — a user rank
   program can never wrap the ordering, only degrade it to (tie,
   arrival) at the rail, exactly like the fixed-point schedulers. *)
let clamp_rank k = if k < 0 then 0 else if k > Tag.max_tag then Tag.max_tag else k

(* The flow has just given [slot] up (-1: it held none). The runtime
   clears its own per-slot state and the program its own, so the next
   flow given the slot finds it fresh. close_flow and the sweep share
   this step; only close_flow flushes first. *)
let forget t ~now ~slot flow =
  if slot >= 0 then begin
    if slot < Array.length t.ties then begin
      t.ties.(slot) <- 0;
      t.tie_ok.(slot) <- false
    end;
    if slot < Array.length t.owner then t.owner.(slot) <- -1
  end;
  t.prog.Rank_program.on_close ~now ~slot flow

let own t slot flow =
  let n = Array.length t.owner in
  if slot >= n then begin
    let owner = Array.make (Stdlib.max min_mark (Stdlib.max (2 * n) (slot + 1))) (-1) in
    Array.blit t.owner 0 owner 0 n;
    t.owner <- owner
  end;
  t.owner.(slot) <- flow

(* Give back every slot whose ring is empty and whose program state is
   stale. An empty ring that grew stays in the ring table under its
   slot, for the next flow given the slot. The next mark is twice the
   survivors, and at least the survivors plus half the scanned range:
   so at least max(survivors, range/2) new slots are handed out before
   the next scan, which keeps the sweep amortized O(1) per new slot. *)
let sweep t ~now =
  if Array.length t.owner = 0 then Slot_map.iter t.slots (fun flow slot -> own t slot flow);
  let owner = t.owner in
  for slot = 0 to Array.length owner - 1 do
    let flow = owner.(slot) in
    if flow >= 0 && Iflow_heap.backlog t.main slot = 0 && t.prog.Rank_program.stale ~now ~slot
    then begin
      ignore (Slot_map.remove t.slots flow : int);
      forget t ~now ~slot flow;
      t.reclaimed <- t.reclaimed + 1
    end
  done;
  let live = Slot_map.length t.slots in
  t.mark <- Stdlib.max (2 * live) (live + (Array.length owner / 2))

(* Cold path: the first packet of a flow that holds no slot. *)
let new_slot t ~now flow =
  if Slot_map.length t.slots >= t.mark then sweep t ~now;
  let slot = Slot_map.find_or_add t.slots flow in
  if Array.length t.owner > 0 then own t slot flow;
  slot

let enqueue t ~now pkt =
  let flow = pkt.Packet.flow in
  if flow < 0 then invalid_arg "Pifo_sched.enqueue: flow id must be >= 0";
  let slot = Slot_map.find t.slots flow in
  let slot = if slot >= 0 then slot else new_slot t ~now flow in
  let tie = if t.arrival then 0 else tie_of t ~slot flow in
  let key = clamp_rank (t.rank ~now ~slot pkt) in
  if key > t.high then t.high <- key;
  if t.shaped then begin
    if now > t.last_now then t.last_now <- now;
    let ekey = clamp_rank t.regs.Rank_program.eligible in
    Iflow_heap.push t.shaper ~flow:slot ~key:ekey ~aux:key ~tie pkt;
    bump t slot 1
  end
  else Iflow_heap.push t.main ~flow:slot ~key ~aux:t.regs.Rank_program.aux ~tie pkt

(* Shaped stage transfer: entries whose eligibility rank the horizon
   has passed move to the service heap keyed by their service rank
   (stored as the shaper's aux), carrying their original push uid so
   equal (rank, tie) entries still serve in arrival order. The horizon
   is consulted unconditionally — for GPS-clocked programs the call
   itself advances the fluid simulation, exactly as the hand-written
   WF²Q promotes on every dequeue and peek. *)
let promote t ~now =
  let h = t.horizon ~now in
  let rec go () =
    match Iflow_heap.peek t.shaper with
    | Some e when e.Iflow_heap.key <= h ->
      let pkt = Iflow_heap.pop_exn t.shaper in
      Iheap.add t.eligible
        ~key:(Iflow_heap.last_aux t.shaper)
        ~tie:(cached_tie t (Iflow_heap.last_flow t.shaper))
        ~uid:(Iflow_heap.last_uid t.shaper)
        (Slab.put (store t) pkt);
      go ()
    | Some _ | None -> ()
  in
  go ()

let dequeue_shaped t ~now =
  promote t ~now;
  if Iheap.length t.eligible > 0 then begin
    let key = Iheap.min_key_exn t.eligible in
    let pkt = Slab.take (store t) (Iheap.min_elt_exn t.eligible) in
    Iheap.remove_root t.eligible;
    bump t (Slot_map.find t.slots pkt.Packet.flow) (-1);
    t.on_dequeue ~key ~aux:0
      ~empty:(Iheap.length t.eligible = 0 && Iflow_heap.is_empty t.shaper);
    Some pkt
  end
  else if not (Iflow_heap.is_empty t.shaper) then begin
    (* Work conservation: nothing eligible, serve the earliest
       eligibility rank rather than idling. *)
    let pkt = Iflow_heap.pop_exn t.shaper in
    bump t (Iflow_heap.last_flow t.shaper) (-1);
    t.on_dequeue
      ~key:(Iflow_heap.last_aux t.shaper)
      ~aux:0
      ~empty:(Iflow_heap.is_empty t.shaper);
    Some pkt
  end
  else begin
    t.on_idle ();
    None
  end

(* Unshaped non-allocating hot path; pair with [is_empty]. *)
let dequeue_unshaped_exn t =
  let pkt = Iflow_heap.pop_exn t.main in
  t.on_dequeue
    ~key:(Iflow_heap.last_key t.main)
    ~aux:(Iflow_heap.last_aux t.main)
    ~empty:(Iflow_heap.is_empty t.main);
  pkt

let dequeue_exn t =
  if t.shaped then
    match dequeue_shaped t ~now:t.last_now with
    | Some pkt -> pkt
    | None -> invalid_arg "Pifo_sched.dequeue_exn: empty"
  else dequeue_unshaped_exn t

let dequeue t ~now =
  if t.shaped then begin
    if now > t.last_now then t.last_now <- now;
    dequeue_shaped t ~now
  end
  else if Iflow_heap.is_empty t.main then begin
    t.on_idle ();
    None
  end
  else Some (dequeue_unshaped_exn t)

let peek t =
  if t.shaped then begin
    promote t ~now:t.last_now;
    match Iheap.min_elt t.eligible with
    | Some h -> Some (Slab.get (store t) h)
    | None -> (
      match Iflow_heap.peek t.shaper with
      | Some e -> Some e.Iflow_heap.value
      | None -> None)
  end
  else
    match Iflow_heap.peek t.main with
    | None -> None
    | Some p -> Some p.Iflow_heap.value

(* Eviction keeps every tag the program assigned: dropped virtual
   service stays charged to the flow (eq. 4, conservative). A flow's
   promoted entries are strictly older than its shaper entries, so
   Oldest looks in the service heap first and Newest in the shaper
   first. *)
let evict t victim flow =
  let slot = Slot_map.find t.slots flow in
  if slot < 0 then None
  else if t.shaped then begin
    let store = store t in
    let pred h = (Slab.get store h).Packet.flow = flow in
    let found =
      match (victim : Sched.victim) with
      | Sched.Oldest -> (
        match Iheap.remove_matching t.eligible ~pred with
        | Some (_, h) -> Some (Slab.take store h)
        | None -> (
          match Iflow_heap.evict_front t.shaper slot with
          | Some e -> Some e.Iflow_heap.value
          | None -> None))
      | Sched.Newest -> (
        match Iflow_heap.evict_back t.shaper slot with
        | Some e -> Some e.Iflow_heap.value
        | None -> (
          match Iheap.remove_matching ~newest:true t.eligible ~pred with
          | Some (_, h) -> Some (Slab.take store h)
          | None -> None))
    in
    (match found with Some _ -> bump t slot (-1) | None -> ());
    found
  end
  else
    let popped =
      match (victim : Sched.victim) with
      | Sched.Oldest -> Iflow_heap.evict_front t.main slot
      | Sched.Newest -> Iflow_heap.evict_back t.main slot
    in
    match popped with None -> None | Some p -> Some p.Iflow_heap.value

let close_flow t ~now flow =
  let slot = Slot_map.remove t.slots flow in
  let flushed =
    if slot < 0 then []
    else if t.shaped then begin
      let store = store t in
      let pred h = (Slab.get store h).Packet.flow = flow in
      let rec drain acc =
        match Iheap.remove_matching t.eligible ~pred with
        | Some (_, h) -> drain (Slab.take store h :: acc)
        | None -> List.rev acc
      in
      (* remove_matching takes ascending uid, so promoted entries come
         out oldest first and precede everything still in the shaper *)
      let released = drain [] in
      let waiting =
        List.map (fun e -> e.Iflow_heap.value) (Iflow_heap.flush_flow t.shaper slot)
      in
      if slot < Array.length t.counts then t.counts.(slot) <- 0;
      released @ waiting
    end
    else List.map (fun p -> p.Iflow_heap.value) (Iflow_heap.flush_flow t.main slot)
  in
  forget t ~now ~slot flow;
  flushed

let slots t = Slot_map.length t.slots
let reclaimed t = t.reclaimed
let vtime t = t.prog.Rank_program.vtime ()
let high_tag t = t.high
let saturated t = Tag.is_saturated t.high
let program t = t.prog

let sched t =
  {
    Sched.name = t.prog.Rank_program.name;
    enqueue = (fun ~now pkt -> enqueue t ~now pkt);
    dequeue = (fun ~now -> dequeue t ~now);
    peek = (fun () -> peek t);
    size = (fun () -> size t);
    backlog = (fun flow -> backlog t flow);
    evict = (fun ~now:_ victim flow -> evict t victim flow);
    close_flow = (fun ~now flow -> close_flow t ~now flow);
  }
