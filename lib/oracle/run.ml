open Sfq_base

type outcome = {
  violations : Monitor.violation list;
  departures : int;
  drops : int;
  finished_at : float;
}

type op =
  | Arrive of Workload.arrival
  | Reweight of Workload.reweight
  | Close of Workload.churn
  | Rate of Workload.rate_change

let op_time = function
  | Arrive (a : Workload.arrival) -> a.at
  | Reweight (r : Workload.reweight) -> r.at
  | Close (c : Workload.churn) -> c.at
  | Rate (r : Workload.rate_change) -> r.at

let fixed_rate ~sched ?(on_reweight = fun ~flow:_ ~rate:_ -> ()) ~monitors
    (w : Workload.t) =
  (* The live link rate: read by the monitor wrapper's capacity thunk
     and by the loop's finish computation below — the same dereference,
     so both sides see identical floats. *)
  let cap = ref w.Workload.capacity in
  let drops = ref 0 in
  let buffered =
    match w.Workload.buffer with
    | None -> sched
    | Some (b : Workload.buffer) ->
      let cfg =
        { Buffered.per_flow = b.per_flow; aggregate = b.aggregate;
          policy = b.policy }
      in
      let on_drop ~now ~reason pkt =
        incr drops;
        Monitor.drop_event monitors ~now ~reason pkt
      in
      Buffered.sched (Buffered.wrap ~on_drop cfg sched)
  in
  let wrapped = Monitor.wrap buffered ~capacity:(fun () -> !cap) ~monitors in
  let merge = List.merge (fun a b -> compare (op_time a) (op_time b)) in
  let ops =
    merge
      (merge
         (List.map (fun a -> Arrive a) w.arrivals)
         (List.map (fun r -> Reweight r) w.reweights))
      (merge
         (List.map (fun c -> Close c) w.churn)
         (List.map (fun r -> Rate r) w.rate_changes))
  in
  let seq = Flow_table.create ~default:(fun _ -> 0) in
  let next_seq flow =
    let s = Flow_table.find seq flow + 1 in
    Flow_table.set seq flow s;
    s
  in
  let deliver ops ~upto =
    let rec go = function
      | op :: rest when op_time op <= upto ->
        (match op with
        | Arrive a ->
          let pkt =
            Packet.make ?rate:a.rate ~flow:a.flow ~seq:(next_seq a.flow)
              ~len:a.len ~born:a.at ()
          in
          wrapped.Sched.enqueue ~now:a.at pkt
        | Reweight r -> on_reweight ~flow:r.flow ~rate:r.rate
        | Close c ->
          let flushed = wrapped.Sched.close_flow ~now:c.at c.flow in
          drops := !drops + List.length flushed
        | Rate r -> cap := r.capacity);
        go rest
      | rest -> rest
    in
    go ops
  in
  let departures = ref 0 in
  let max_steps = (10 * List.length w.arrivals) + 1000 in
  let steps = ref 0 in
  let rec loop now ops =
    incr steps;
    if !steps > max_steps then now
    else
      match wrapped.Sched.dequeue ~now with
      | Some p ->
        incr departures;
        let finish = now +. (float_of_int p.Packet.len /. !cap) in
        let ops = deliver ops ~upto:finish in
        loop finish ops
      | None -> (
        match ops with
        | [] -> if wrapped.Sched.size () > 0 then loop now ops else now
        | op :: _ ->
          let t = op_time op in
          let ops = deliver ops ~upto:t in
          loop (Float.max now t) ops)
  in
  let t0 = match ops with [] -> 0.0 | op :: _ -> op_time op in
  let rest = deliver ops ~upto:t0 in
  let finished_at = loop t0 rest in
  List.iter (fun m -> Monitor.finalize m ~until:finished_at) monitors;
  {
    violations = List.filter_map Monitor.result monitors;
    departures = !departures;
    drops = !drops;
    finished_at;
  }

(* ------------------------------------------------------------------ *)
(* Domain-parallel sweeps                                               *)

type driver = {
  sched : Sched.t;
  monitors : Monitor.t list;
  on_reweight : (flow:Packet.flow -> rate:float -> unit) option;
}

type cell = { label : string; workload : Workload.t; driver : unit -> driver }

let run_cell (c : cell) =
  (* Audit (parallel safety): the scheduler, its monitors and any
     scratch state are created here, inside the task, so every mutable
     structure a worker touches is domain-local. The workload is
     immutable shared data; the returned outcome is immutable. *)
  let d = c.driver () in
  fixed_rate ~sched:d.sched ?on_reweight:d.on_reweight ~monitors:d.monitors
    c.workload

let sweep ?(domains = 1) ?pool cells =
  let tasks = Array.of_list cells in
  let f _i c = run_cell c in
  match pool with
  | Some p -> Sfq_par.Pool.map p ~f tasks
  | None -> Sfq_par.Pool.run ~domains ~f tasks

let outcome_digest (o : outcome) =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "departures=%d finished_at=%h" o.departures o.finished_at);
  (* Printed only when non-zero: loss-free cells keep the exact digest
     bytes they had before drops existed (golden-corpus stability). *)
  if o.drops > 0 then Buffer.add_string b (Printf.sprintf " drops=%d" o.drops);
  List.iter
    (fun (v : Monitor.violation) ->
      Buffer.add_string b
        (Printf.sprintf " violation=%s@%h:%s" v.Monitor.monitor v.Monitor.at
           v.Monitor.what))
    o.violations;
  Buffer.contents b

let sweep_digest cells outcomes =
  let b = Buffer.create 256 in
  List.iteri
    (fun i (c : cell) ->
      Buffer.add_string b (Printf.sprintf "%s | %s\n" c.label (outcome_digest outcomes.(i))))
    cells;
  Buffer.contents b
