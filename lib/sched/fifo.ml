open Sfq_base

type t = { queue : Packet.t Queue.t; counts : int Flow_table.t }

let create () = { queue = Queue.create (); counts = Flow_table.create ~default:(fun _ -> 0) }

let enqueue t ~now:_ pkt =
  Queue.push pkt t.queue;
  Flow_table.set t.counts pkt.Packet.flow (Flow_table.find t.counts pkt.Packet.flow + 1)

let dequeue t ~now:_ =
  let head = Queue.take_opt t.queue in
  (match head with
  | None -> ()
  | Some p -> Flow_table.set t.counts p.Packet.flow (Flow_table.find t.counts p.Packet.flow - 1));
  head

let peek t = Queue.peek_opt t.queue
let size t = Queue.length t.queue
let backlog t flow = Flow_table.find t.counts flow

(* The single shared queue has no per-flow structure, so eviction is a
   rebuild — O(Q), acceptable off the hot path. *)
let evict t victim flow =
  if Flow_table.find t.counts flow = 0 then None
  else begin
    let items = Array.of_seq (Queue.to_seq t.queue) in
    let n = Array.length items in
    let target = ref (-1) in
    (match (victim : Sched.victim) with
    | Sched.Oldest ->
      let i = ref 0 in
      while !target < 0 && !i < n do
        if items.(!i).Packet.flow = flow then target := !i;
        incr i
      done
    | Sched.Newest ->
      let i = ref (n - 1) in
      while !target < 0 && !i >= 0 do
        if items.(!i).Packet.flow = flow then target := !i;
        decr i
      done);
    if !target < 0 then None
    else begin
      Queue.clear t.queue;
      Array.iteri (fun i p -> if i <> !target then Queue.push p t.queue) items;
      Flow_table.set t.counts flow (Flow_table.find t.counts flow - 1);
      Some items.(!target)
    end
  end

let close_flow t flow =
  let mine, rest =
    List.partition (fun p -> p.Packet.flow = flow) (List.of_seq (Queue.to_seq t.queue))
  in
  Queue.clear t.queue;
  List.iter (fun p -> Queue.push p t.queue) rest;
  Flow_table.remove t.counts flow;
  mine

let sched t =
  {
    Sched.name = "fifo";
    enqueue = (fun ~now pkt -> enqueue t ~now pkt);
    dequeue = (fun ~now -> dequeue t ~now);
    peek = (fun () -> peek t);
    size = (fun () -> size t);
    backlog = (fun flow -> backlog t flow);
    evict = (fun ~now:_ victim flow -> evict t victim flow);
    close_flow = (fun ~now:_ flow -> close_flow t flow);
  }
