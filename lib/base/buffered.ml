type policy = Drop_tail | Drop_front | Longest_queue

let policy_name = function
  | Drop_tail -> "drop-tail"
  | Drop_front -> "drop-front"
  | Longest_queue -> "longest-queue"

type reason = Rejected | Evicted

let reason_name = function Rejected -> "rejected" | Evicted -> "evicted"

type config = { per_flow : int option; aggregate : int option; policy : policy }

let config ?per_flow ?aggregate ?(policy = Drop_tail) () =
  let check what = function
    | Some n when n <= 0 ->
      invalid_arg (Printf.sprintf "Buffered.config: %s must be positive" what)
    | _ -> ()
  in
  check "per_flow" per_flow;
  check "aggregate" aggregate;
  { per_flow; aggregate; policy }

let pp_config ppf c =
  let lim = function None -> "inf" | Some n -> string_of_int n in
  Format.fprintf ppf "%s/flow=%s/agg=%s" (policy_name c.policy) (lim c.per_flow)
    (lim c.aggregate)

type t = {
  cfg : config;
  inner : Sched.t;
  on_drop : now:float -> reason:reason -> Packet.t -> unit;
  (* Flows that ever held a packet, in first-seen order: the
     longest-queue argmax domain, whose ties go to the first-seen flow
     (tracked under [Longest_queue] only, the one policy that reads it).
     A [Vec], so admitting a new flow is O(1) rather than a list
     append. Never pruned — churn workloads recycle ids, so the set
     stays small. *)
  seen : Packet.flow Sfq_util.Vec.t;
  seen_mem : bool Flow_table.t;
  mutable drops : int;
  mutable admitted : int;
}

let wrap ?(on_drop = fun ~now:_ ~reason:_ _ -> ()) cfg inner =
  {
    cfg;
    inner;
    on_drop;
    seen = Sfq_util.Vec.create ();
    seen_mem = Flow_table.create ~default:(fun _ -> false);
    drops = 0;
    admitted = 0;
  }

let drops t = t.drops
let admitted t = t.admitted

let note_drop t ~now ~reason pkt =
  t.drops <- t.drops + 1;
  t.on_drop ~now ~reason pkt

(* Backlogs come from the inner scheduler itself, not a shadow count:
   the admission decision then cannot disagree with the state it
   guards, whatever the discipline does internally. *)
let longest_queue t =
  Sfq_util.Vec.fold t.seen ~init:None ~f:(fun best f ->
      let b = t.inner.Sched.backlog f in
      match best with
      | Some (_, bb) when bb >= b -> best  (* ties: first-seen flow wins *)
      | _ -> if b > 0 then Some (f, b) else best)

let admit t ~now pkt =
  t.admitted <- t.admitted + 1;
  let flow = pkt.Packet.flow in
  if t.cfg.policy = Longest_queue && not (Flow_table.find t.seen_mem flow) then begin
    Flow_table.set t.seen_mem flow true;
    Sfq_util.Vec.push t.seen flow
  end;
  t.inner.Sched.enqueue ~now pkt

(* One eviction restores the invariant (budget checks fire when the
   backlog is already at the bound, and evict-then-admit is net zero),
   so no loops: every [enqueue] makes at most one policy drop. *)
let enqueue t ~now pkt =
  let flow = pkt.Packet.flow in
  let over_flow =
    match t.cfg.per_flow with
    | Some b -> t.inner.Sched.backlog flow >= b
    | None -> false
  in
  if over_flow then begin
    (* The flow's own budget: only its own queue may pay. Drop-front
       evicts its head and admits; drop-tail and longest-queue reject
       the arrival (the arrival IS the flow's newest packet). *)
    match t.cfg.policy with
    | Drop_front -> (
      match t.inner.Sched.evict ~now Sched.Oldest flow with
      | Some victim ->
        note_drop t ~now ~reason:Evicted victim;
        admit t ~now pkt
      | None -> note_drop t ~now ~reason:Rejected pkt)
    | Drop_tail | Longest_queue -> note_drop t ~now ~reason:Rejected pkt
  end
  else begin
    let over_agg =
      match t.cfg.aggregate with
      | Some b -> t.inner.Sched.size () >= b
      | None -> false
    in
    if not over_agg then admit t ~now pkt
    else begin
      let victim =
        match t.cfg.policy with
        | Drop_tail -> None
        | Drop_front -> (
          (* global drop-front: the next packet the server would send *)
          match t.inner.Sched.peek () with
          | Some head -> t.inner.Sched.evict ~now Sched.Oldest head.Packet.flow
          | None -> None)
        | Longest_queue -> (
          match longest_queue t with
          | Some (f, _) -> t.inner.Sched.evict ~now Sched.Newest f
          | None -> None)
      in
      match victim with
      | Some v ->
        note_drop t ~now ~reason:Evicted v;
        admit t ~now pkt
      | None ->
        (* drop-tail, or the discipline cannot evict: reject instead *)
        note_drop t ~now ~reason:Rejected pkt
    end
  end

let sched t =
  {
    Sched.name = t.inner.Sched.name ^ "+buf";
    enqueue = (fun ~now pkt -> enqueue t ~now pkt);
    dequeue = t.inner.Sched.dequeue;
    peek = t.inner.Sched.peek;
    size = t.inner.Sched.size;
    backlog = t.inner.Sched.backlog;
    evict = t.inner.Sched.evict;
    close_flow = t.inner.Sched.close_flow;
  }
