open Sfq_util
open Sfq_base

type t = {
  capacity : float;
  weights : Weights.t;
  real_system_empty : unit -> bool;
  mutable v : float;
  mutable updated : float;  (* real time at which [v] was last correct *)
  mutable sum_active : float;  (* Σ r_j over the fluid-backlogged set *)
  backlogged : (Packet.flow, unit) Hashtbl.t;
  finish : float Flow_table.t;  (* per-flow largest finish tag this busy period *)
  (* Fluid departure events: key = finish tag, payload (and uid, for
     the explicit finish-then-flow order) = flow. Entries go stale when
     a flow receives more packets (its departure moves later); stale
     entries are detected on pop by comparing against [finish]. *)
  departures : Fheap.t;
}

let create ~capacity ?(real_system_empty = fun () -> true) weights =
  if capacity <= 0.0 then invalid_arg "Gps.create: capacity must be positive";
  {
    capacity;
    weights;
    real_system_empty;
    v = 0.0;
    updated = 0.0;
    sum_active = 0.0;
    backlogged = Hashtbl.create 16;
    finish = Flow_table.create ~default:(fun _ -> 0.0);
    departures = Fheap.create ();
  }

let depart t flow =
  Hashtbl.remove t.backlogged flow;
  t.sum_active <- t.sum_active -. Weights.get t.weights flow;
  if Hashtbl.length t.backlogged = 0 then t.sum_active <- 0.0

let rec advance t ~now =
  if t.sum_active > 0.0 then begin
    match Fheap.min t.departures with
    | Some (tag, flow)
      when (not (Hashtbl.mem t.backlogged flow)) || tag < Flow_table.find t.finish flow ->
      (* Stale event: the flow already departed, or received more
         packets and will depart later (a fresher event is queued). *)
      ignore (Fheap.pop t.departures);
      advance t ~now
    | Some (tag, flow) ->
      let dt = (tag -. t.v) *. t.sum_active /. t.capacity in
      if t.updated +. dt <= now then begin
        ignore (Fheap.pop t.departures);
        t.v <- tag;
        t.updated <- t.updated +. dt;
        depart t flow;
        advance t ~now
      end
      else begin
        t.v <- t.v +. ((now -. t.updated) *. t.capacity /. t.sum_active);
        t.updated <- now
      end
    | None ->
      (* sum_active > 0 but no events: impossible by construction. *)
      assert false
  end
  else t.updated <- now

let on_arrival t ~now pkt =
  advance t ~now;
  if Hashtbl.length t.backlogged = 0 && t.real_system_empty () then begin
    (* New busy period (fluid AND real systems drained): the round
       number restarts. If real packets were still queued, a reset
       would give this arrival a smaller tag than its flow's queued
       predecessors. *)
    t.v <- 0.0;
    Flow_table.clear t.finish;
    Fheap.clear t.departures
  end;
  let flow = pkt.Packet.flow in
  let rate = Weights.get t.weights flow in
  let prev_finish = Flow_table.find t.finish flow in
  let start_tag = Float.max t.v prev_finish in
  let finish_tag = start_tag +. (float_of_int pkt.Packet.len /. rate) in
  Flow_table.set t.finish flow finish_tag;
  if not (Hashtbl.mem t.backlogged flow) then begin
    Hashtbl.replace t.backlogged flow ();
    t.sum_active <- t.sum_active +. rate
  end;
  Fheap.add t.departures ~key:finish_tag ~tie:0.0 ~uid:flow flow;
  (start_tag, finish_tag)

let vtime t ~now =
  advance t ~now;
  t.v

let backlogged_flows t = Hashtbl.length t.backlogged

let forget_flow t ~now flow =
  advance t ~now;
  (* Remaining fluid backlog of the flow vanishes (the flow closed);
     its queued departure events go stale and are skipped on pop — a
     later reuse of the id re-enters with finish tag 0, i.e. start tag
     max(v, 0) = v. *)
  if Hashtbl.mem t.backlogged flow then depart t flow;
  Flow_table.remove t.finish flow
