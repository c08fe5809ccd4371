open Sfq_base

type t = {
  sim : Sim.t;
  name : string;
  rate : Rate_process.t;
  sched : Sched.t;
  (* The serving view: [sched] behind a {!Buffered} admission gate when
     budgets are configured, [sched] itself otherwise. *)
  mutable view : Sched.t;
  priority : Packet.t Queue.t;
  mutable arrival_rejected : bool;
  mutable busy : bool;
  (* The server serves one packet at a time, so the packet in service
     and its start time live here and one completion timer per server
     replaces a closure per service. [in_service] is [idle_packet]
     whenever [busy] is false. [start] keeps the clock's boxed float, so
     storing it allocates nothing. *)
  mutable in_service : Packet.t;
  mutable start : float;
  mutable complete : Sim.timer;
  work : float array;  (* [| bits served |]: unboxed, so adding boxes nothing *)
  mutable drops : int;
  mutable closed : int;
  mutable departed : int;
  (* Handler lists are kept in call (registration) order. *)
  mutable inject_handlers : (Packet.t -> unit) list;
  mutable drop_handlers : (reason:Buffered.reason -> Packet.t -> unit) list;
  mutable close_handlers : (flow:Packet.flow -> Packet.t list -> unit) list;
  mutable depart_handlers : (Packet.t -> start:float -> departed:float -> unit) list;
}

let idle_packet = Packet.make ~flow:(-1) ~seq:1 ~len:1 ~born:0.0 ()

let append handlers h = handlers @ [ h ]

(* Loops rather than [List.iter]: a [fun h -> h p] argument would be a
   closure allocated per packet (per drop, per closed flow). *)
let rec call_inject hs p =
  match hs with
  | [] -> ()
  | h :: rest ->
    h p;
    call_inject rest p

let rec call_depart hs p ~start ~departed =
  match hs with
  | [] -> ()
  | h :: rest ->
    h p ~start ~departed;
    call_depart rest p ~start ~departed

let rec call_drop hs ~reason p =
  match hs with
  | [] -> ()
  | h :: rest ->
    h ~reason p;
    call_drop rest ~reason p

let rec call_close hs ~flow flushed =
  match hs with
  | [] -> ()
  | h :: rest ->
    h ~flow flushed;
    call_close rest ~flow flushed

let wire_metrics t m ~delay_range =
  let open Sfq_obs in
  let lo, hi = delay_range in
  let bins = 400 in
  let pfx = t.name ^ "." in
  let injected = Metrics.counter m (pfx ^ "injected") in
  let dropped = Metrics.counter m (pfx ^ "dropped") in
  let rejected = Metrics.counter m (pfx ^ "dropped.rejected") in
  let evicted = Metrics.counter m (pfx ^ "dropped.evicted") in
  let closed = Metrics.counter m (pfx ^ "closed") in
  let departed = Metrics.counter m (pfx ^ "departed") in
  let bits = Metrics.counter m (pfx ^ "bits") in
  (* per-flow arrival-time FIFOs for residence delay, and live backlog
     counts for the gauge; both only exist when metrics are wired *)
  let arrivals : float Queue.t Flow_table.t =
    Flow_table.create ~default:(fun _ -> Queue.create ())
  in
  let backlog : int ref Flow_table.t = Flow_table.create ~default:(fun _ -> ref 0) in
  t.inject_handlers <-
    append t.inject_handlers (fun p ->
      let flow = p.Packet.flow in
      Metrics.incr injected;
      Metrics.incr (Metrics.counter m ~flow (pfx ^ "injected"));
      Queue.push (Sim.now t.sim) (Flow_table.find arrivals flow);
      let b = Flow_table.find backlog flow in
      incr b;
      Metrics.set_gauge (Metrics.gauge m ~flow (pfx ^ "backlog")) (float_of_int !b));
  t.drop_handlers <-
    append t.drop_handlers (fun ~reason p ->
      let flow = p.Packet.flow in
      Metrics.incr dropped;
      Metrics.incr (Metrics.counter m ~flow (pfx ^ "dropped"));
      match reason with
      | Buffered.Rejected -> Metrics.incr rejected
      | Buffered.Evicted ->
        (* the victim was admitted earlier: release its backlog slot and
           one arrival stamp (exact under Drop_front, which evicts the
           oldest; approximate under Longest_queue) *)
        Metrics.incr evicted;
        let b = Flow_table.find backlog flow in
        if !b > 0 then decr b;
        Metrics.set_gauge (Metrics.gauge m ~flow (pfx ^ "backlog")) (float_of_int !b);
        ignore (Queue.take_opt (Flow_table.find arrivals flow)));
  t.close_handlers <-
    append t.close_handlers (fun ~flow flushed ->
      List.iter (fun _ -> Metrics.incr closed) flushed;
      let b = Flow_table.find backlog flow in
      b := 0;
      Metrics.set_gauge (Metrics.gauge m ~flow (pfx ^ "backlog")) 0.0;
      Queue.clear (Flow_table.find arrivals flow));
  t.depart_handlers <-
    append t.depart_handlers (fun p ~start:_ ~departed:at ->
      let flow = p.Packet.flow in
      Metrics.incr departed;
      Metrics.incr (Metrics.counter m ~flow (pfx ^ "departed"));
      Metrics.add bits (float_of_int p.Packet.len);
      let b = Flow_table.find backlog flow in
      if !b > 0 then decr b;
      Metrics.set_gauge (Metrics.gauge m ~flow (pfx ^ "backlog")) (float_of_int !b);
      match Queue.take_opt (Flow_table.find arrivals flow) with
      | Some arrived ->
        Metrics.observe m ~flow ~lo ~hi ~bins (pfx ^ "delay") (at -. arrived)
      | None -> ())

let next_packet t ~now =
  match Queue.take_opt t.priority with
  | Some _ as head -> head
  | None -> t.view.Sched.dequeue ~now

let rec start_service t =
  if not t.busy then begin
    let now = Sim.now t.sim in
    match next_packet t ~now with
    | None -> ()
    | Some p ->
      t.busy <- true;
      t.in_service <- p;
      t.start <- now;
      let finish =
        Rate_process.time_to_serve t.rate ~from:now ~amount:(float_of_int p.Packet.len)
      in
      Sim.arm t.sim t.complete ~at:finish
  end

and complete t =
  let p = t.in_service in
  t.busy <- false;
  t.in_service <- idle_packet;
  t.departed <- t.departed + 1;
  t.work.(0) <- t.work.(0) +. float_of_int p.Packet.len;
  call_depart t.depart_handlers p ~start:t.start ~departed:(Sim.now t.sim);
  start_service t

let create sim ~name ~rate ~sched ?flow_buffer_limit ?buffer ?metrics
    ?(delay_range = (0.0, 10.0)) () =
  (match flow_buffer_limit with
  | Some n when n <= 0 -> invalid_arg "Server.create: flow_buffer_limit must be positive"
  | Some _ | None -> ());
  let cfg =
    match (buffer, flow_buffer_limit) with
    | Some _, Some _ ->
      invalid_arg "Server.create: pass either buffer or flow_buffer_limit, not both"
    | Some cfg, None -> Some cfg
    | None, Some n -> Some (Buffered.config ~per_flow:n ())
    | None, None -> None
  in
  let t =
    {
      sim;
      name;
      rate;
      sched;
      view = sched;
      priority = Queue.create ();
      arrival_rejected = false;
      busy = false;
      in_service = idle_packet;
      start = 0.0;
      complete = Sim.no_timer;
      work = [| 0.0 |];
      drops = 0;
      closed = 0;
      departed = 0;
      inject_handlers = [];
      drop_handlers = [];
      close_handlers = [];
      depart_handlers = [];
    }
  in
  (match cfg with
  | None -> ()
  | Some cfg ->
    let on_drop ~now:_ ~reason pkt =
      t.drops <- t.drops + 1;
      if reason = Buffered.Rejected then t.arrival_rejected <- true;
      call_drop t.drop_handlers ~reason pkt
    in
    t.view <- Buffered.sched (Buffered.wrap ~on_drop cfg sched));
  t.complete <- Sim.timer sim (fun () -> complete t);
  (match metrics with None -> () | Some m -> wire_metrics t m ~delay_range);
  t

let accept t p =
  call_inject t.inject_handlers p;
  start_service t

let inject t p =
  t.arrival_rejected <- false;
  t.view.Sched.enqueue ~now:(Sim.now t.sim) p;
  if t.arrival_rejected then t.arrival_rejected <- false else accept t p

let inject_priority t p =
  Queue.push p t.priority;
  accept t p

let close_flow t flow =
  let flushed = t.view.Sched.close_flow ~now:(Sim.now t.sim) flow in
  t.closed <- t.closed + List.length flushed;
  call_close t.close_handlers ~flow flushed;
  flushed

let on_inject t h = t.inject_handlers <- append t.inject_handlers h
let on_drop t h = t.drop_handlers <- append t.drop_handlers (fun ~reason:_ p -> h p)
let on_drop_reason t h = t.drop_handlers <- append t.drop_handlers h
let on_close t h = t.close_handlers <- append t.close_handlers h
let on_depart t h = t.depart_handlers <- append t.depart_handlers h
let sched t = t.sched
let sim t = t.sim
let name t = t.name
let busy t = t.busy
let drops t = t.drops
let closed t = t.closed
let departed t = t.departed
let work_done t = t.work.(0)
