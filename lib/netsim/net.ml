open Sfq_base

type node = { name : string; index : int }

type link_state = {
  server : Server.t;
  prop_delay : float;
  (* Packets propagating on the link, each with the route it follows
     and the hop it enters next: a ring (power-of-two capacity) of
     [fly_len] entries from [fly_head], oldest first. One delay and
     time-ordered departures make arrivals FIFO, so one [arrive]
     timer per link, armed once per packet, replaces a closure per
     packet. *)
  mutable fly_pkts : Packet.t array;
  mutable fly_routes : link_state array array;
  mutable fly_hops : int array;
  mutable fly_head : int;
  mutable fly_len : int;
  mutable arrive : Sim.timer;
}

(* Fill for empty ring slots, so a delivered packet is not kept alive by
   the slot it left. *)
let no_packet = Packet.make ~flow:(-1) ~seq:1 ~len:1 ~born:0.0 ()

type t = {
  sim : Sim.t;
  nodes : (string, node) Hashtbl.t;
  links : (int * int, link_state) Hashtbl.t;
  link_ends : (int * int, node * node) Hashtbl.t;
  (* Compiled routes: hop [i] of a flow is [routes.(flow).(i)]. Flows
     may share one array; nothing mutates it. *)
  routes : link_state array Flow_table.t;
  mutable delivered_handlers : (Packet.t -> at:float -> unit) list;  (* call order *)
  mutable delivered : int;
  mutable injected : int;
  mutable next_index : int;
}

let create sim =
  {
    sim;
    nodes = Hashtbl.create 16;
    links = Hashtbl.create 16;
    link_ends = Hashtbl.create 16;
    routes = Flow_table.create ~default:(fun _ -> [||]);
    delivered_handlers = [];
    delivered = 0;
    injected = 0;
    next_index = 0;
  }

let add_node t name =
  if Hashtbl.mem t.nodes name then
    invalid_arg (Printf.sprintf "Net.add_node: duplicate node %S" name);
  let node = { name; index = t.next_index } in
  t.next_index <- t.next_index + 1;
  Hashtbl.replace t.nodes name node;
  node

let node_name node = node.name

let find_link t ~src ~dst = Hashtbl.find_opt t.links (src.index, dst.index)

let rec call_delivered hs p ~at =
  match hs with
  | [] -> ()
  | h :: rest ->
    h p ~at;
    call_delivered rest p ~at

let deliver t p =
  t.delivered <- t.delivered + 1;
  call_delivered t.delivered_handlers p ~at:(Sim.now t.sim)

(* Inject [p] into hop [i] of its compiled route, or deliver it past
   the last hop. *)
let send_from t route i p =
  if i >= Array.length route then deliver t p else Server.inject route.(i).server p

(* Position of [ls] on [route], or -1. *)
let rec hop_of route ls i =
  if i >= Array.length route then -1 else if route.(i) == ls then i else hop_of route ls (i + 1)

let fly_grow ls =
  let cap = Array.length ls.fly_pkts in
  let cap' = max 16 (2 * cap) in
  let pkts = Array.make cap' no_packet
  and routes = Array.make cap' [||]
  and hops = Array.make cap' 0 in
  (* Unwrap: the oldest entry moves to index 0. *)
  for k = 0 to ls.fly_len - 1 do
    let i = (ls.fly_head + k) land (cap - 1) in
    pkts.(k) <- ls.fly_pkts.(i);
    routes.(k) <- ls.fly_routes.(i);
    hops.(k) <- ls.fly_hops.(i)
  done;
  ls.fly_pkts <- pkts;
  ls.fly_routes <- routes;
  ls.fly_hops <- hops;
  ls.fly_head <- 0

(* The oldest packet propagating on [ls] reaches the link's far end. *)
let arrive t ls =
  let i = ls.fly_head in
  let p = ls.fly_pkts.(i) and route = ls.fly_routes.(i) and hop = ls.fly_hops.(i) in
  ls.fly_pkts.(i) <- no_packet;
  ls.fly_routes.(i) <- [||];
  ls.fly_head <- (i + 1) land (Array.length ls.fly_pkts - 1);
  ls.fly_len <- ls.fly_len - 1;
  send_from t route hop p

(* Called when [p] finishes service on [ls]: the flow's route is read
   now, and the packet continues after the propagation delay along the
   route it had when it left. *)
let forward t ls p =
  let flow = p.Packet.flow in
  if Flow_table.mem t.routes flow then begin
    let route = Flow_table.find t.routes flow in
    let i = hop_of route ls 0 in
    if i >= 0 then begin
      if ls.fly_len = Array.length ls.fly_pkts then fly_grow ls;
      let j = (ls.fly_head + ls.fly_len) land (Array.length ls.fly_pkts - 1) in
      ls.fly_pkts.(j) <- p;
      ls.fly_routes.(j) <- route;
      ls.fly_hops.(j) <- i + 1;
      ls.fly_len <- ls.fly_len + 1;
      Sim.arm_after t.sim ls.arrive ~delay:ls.prop_delay
    end
  end

let link t ~src ~dst ~rate ~sched ?(prop_delay = 0.0) ?flow_buffer_limit ?buffer () =
  if prop_delay < 0.0 then invalid_arg "Net.link: negative propagation delay";
  if Hashtbl.mem t.links (src.index, dst.index) then
    invalid_arg (Printf.sprintf "Net.link: %s->%s already exists" src.name dst.name);
  let server =
    Server.create t.sim
      ~name:(Printf.sprintf "%s->%s" src.name dst.name)
      ~rate ~sched ?flow_buffer_limit ?buffer ()
  in
  let ls =
    {
      server;
      prop_delay;
      fly_pkts = [||];
      fly_routes = [||];
      fly_hops = [||];
      fly_head = 0;
      fly_len = 0;
      arrive = Sim.no_timer;
    }
  in
  ls.arrive <- Sim.timer t.sim (fun () -> arrive t ls);
  Hashtbl.replace t.links (src.index, dst.index) ls;
  Hashtbl.replace t.link_ends (src.index, dst.index) (src, dst);
  Server.on_depart server (fun p ~start:_ ~departed:_ -> forward t ls p);
  server

let server t ~src ~dst =
  match find_link t ~src ~dst with Some ls -> ls.server | None -> raise Not_found

type route = { owner : t; links : link_state array }

let compile t path =
  let nodes = Array.of_list path in
  let n = Array.length nodes in
  if n < 2 then invalid_arg "Net.route: a route needs at least two nodes";
  let hop i =
    match find_link t ~src:nodes.(i) ~dst:nodes.(i + 1) with
    | Some ls -> ls
    | None ->
      invalid_arg
        (Printf.sprintf "Net.route: missing link %s->%s" nodes.(i).name nodes.(i + 1).name)
  in
  { owner = t; links = Array.init (n - 1) hop }

let set_route t ~flow r =
  if r.owner != t then invalid_arg "Net.set_route: route compiled for another network";
  Flow_table.set t.routes flow r.links

let route t ~flow path = set_route t ~flow (compile t path)

let unroute t ~flow = Flow_table.remove t.routes flow

let inject t p =
  let flow = p.Packet.flow in
  if not (Flow_table.mem t.routes flow) then
    invalid_arg (Printf.sprintf "Net.inject: no route for flow %d" flow);
  t.injected <- t.injected + 1;
  send_from t (Flow_table.find t.routes flow) 0 p

let on_delivered t h = t.delivered_handlers <- t.delivered_handlers @ [ h ]
let delivered t = t.delivered
let injected t = t.injected

let iter_links t ~f =
  (* Hashtbl order depends on hashing internals; sort by the (src, dst)
     index pair so callers folding over links (digests, counter sums)
     see a deterministic sequence. *)
  Hashtbl.fold (fun key ls acc -> (key, ls) :: acc) t.links []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (key, ls) ->
         let src, dst = Hashtbl.find t.link_ends key in
         f ~src ~dst ls.server)
