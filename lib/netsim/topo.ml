open Sfq_base

type spec =
  | Star of { leaves : int }
  | Line of { hops : int }
  | Tree of { arity : int; depth : int }
  | Dumbbell of { left : int; right : int }

let spec_name = function
  | Star { leaves } -> Printf.sprintf "star%d" leaves
  | Line { hops } -> Printf.sprintf "line%d" hops
  | Tree { arity; depth } -> Printf.sprintf "tree%dx%d" arity depth
  | Dumbbell { left; right } -> Printf.sprintf "dumbbell%dx%d" left right

let spec_entries = function
  | Star { leaves } -> leaves
  | Line _ -> 1
  | Tree { arity; depth } -> int_of_float (float_of_int arity ** float_of_int depth)
  | Dumbbell { left; _ } -> left

let validate = function
  | Star { leaves } -> if leaves < 1 then invalid_arg "Topo: star needs >= 1 leaf"
  | Line { hops } -> if hops < 1 then invalid_arg "Topo: line needs >= 1 hop"
  | Tree { arity; depth } ->
    if arity < 1 || depth < 1 then invalid_arg "Topo: tree needs arity, depth >= 1"
  | Dumbbell { left; right } ->
    if left < 1 || right < 1 then invalid_arg "Topo: dumbbell needs >= 1 host per side"

type hop = { server : Server.t; capacity : float; prop_delay : float }

type t = {
  spec : spec;
  net : Net.t;
  sim : Sim.t;
  paths : Net.node list array;
  routes : Net.route array;  (* [paths], compiled once per entry *)
  hop_lists : hop list array;
  core : Server.t;
  servers : Server.t list;
}

let build sim spec ~access_rate ~core_rate ~mk_sched ?(prop_delay = 0.0) ?buffer () =
  validate spec;
  if access_rate <= 0.0 || core_rate <= 0.0 then
    invalid_arg "Topo.build: rates must be positive";
  let net = Net.create sim in
  let servers = ref [] in
  let mk_link ~src ~dst ~rate =
    let server =
      Net.link net ~src ~dst ~rate:(Rate_process.constant rate)
        ~sched:(mk_sched ~rate) ~prop_delay ?buffer ()
    in
    servers := server :: !servers;
    { server; capacity = rate; prop_delay }
  in
  let paths, hop_lists, core =
    match spec with
    | Star { leaves } ->
      let hub = Net.add_node net "hub" and sink = Net.add_node net "sink" in
      let leaf = Array.init leaves (fun i -> Net.add_node net (Printf.sprintf "leaf%d" i)) in
      let access = Array.map (fun l -> mk_link ~src:l ~dst:hub ~rate:access_rate) leaf in
      let core = mk_link ~src:hub ~dst:sink ~rate:core_rate in
      ( Array.init leaves (fun i -> [ leaf.(i); hub; sink ]),
        Array.init leaves (fun i -> [ access.(i); core ]),
        core )
    | Line { hops } ->
      let nodes = Array.init (hops + 1) (fun i -> Net.add_node net (Printf.sprintf "n%d" i)) in
      let links =
        Array.init hops (fun i -> mk_link ~src:nodes.(i) ~dst:nodes.(i + 1) ~rate:core_rate)
      in
      ( [| Array.to_list nodes |], [| Array.to_list links |], links.(0) )
    | Tree { arity; depth } ->
      (* levels.(j) holds the k^j nodes at depth j; leaves at depth
         [depth] are the entries, the root forwards to a sink. *)
      let levels =
        Array.init (depth + 1) (fun j ->
            let n = int_of_float (float_of_int arity ** float_of_int j) in
            Array.init n (fun m -> Net.add_node net (Printf.sprintf "t%d_%d" j m)))
      in
      let sink = Net.add_node net "sink" in
      (* up.(j).(m): the link from node m at level j toward its parent
         (level j-1); up.(0).(0) is root->sink. *)
      let up =
        Array.init (depth + 1) (fun j ->
            if j = 0 then [| mk_link ~src:levels.(0).(0) ~dst:sink ~rate:core_rate |]
            else
              Array.mapi
                (fun m node ->
                  let rate = if j = depth then access_rate else core_rate in
                  mk_link ~src:node ~dst:levels.(j - 1).(m / arity) ~rate)
                levels.(j))
      in
      let nleaves = Array.length levels.(depth) in
      let path_of i =
        let rec climb j m acc hops =
          let acc = levels.(j).(m) :: acc and hops = up.(j).(m) :: hops in
          if j = 0 then (List.rev acc, List.rev hops) else climb (j - 1) (m / arity) acc hops
        in
        let nodes, hops = climb depth i [] [] in
        (nodes @ [ sink ], hops)
      in
      let pairs = Array.init nleaves path_of in
      (Array.map fst pairs, Array.map snd pairs, up.(0).(0))
    | Dumbbell { left; right } ->
      let a = Net.add_node net "l-router" and b = Net.add_node net "r-router" in
      let srcs = Array.init left (fun i -> Net.add_node net (Printf.sprintf "src%d" i)) in
      let dsts = Array.init right (fun i -> Net.add_node net (Printf.sprintf "dst%d" i)) in
      let ups = Array.map (fun s -> mk_link ~src:s ~dst:a ~rate:access_rate) srcs in
      let core = mk_link ~src:a ~dst:b ~rate:core_rate in
      let downs = Array.map (fun d -> mk_link ~src:b ~dst:d ~rate:access_rate) dsts in
      ( Array.init left (fun i -> [ srcs.(i); a; b; dsts.(i mod right) ]),
        Array.init left (fun i -> [ ups.(i); core; downs.(i mod right) ]),
        core )
  in
  {
    spec;
    net;
    sim;
    paths;
    routes = Array.map (Net.compile net) paths;
    hop_lists;
    core = core.server;
    servers = List.rev !servers;
  }

let spec t = t.spec
let net t = t.net
let sim t = t.sim
let entries t = Array.length t.paths
let path t ~entry = t.paths.(entry)
let hops t ~entry = t.hop_lists.(entry)
let nhops t ~entry = List.length t.hop_lists.(entry)
let core t = t.core
let servers t = t.servers

let route_flow t ~flow ~entry = Net.set_route t.net ~flow t.routes.(entry)

(* Direct recursion: a [List.fold_left] over a [fun] capturing [flow]
   would allocate a closure per closed flow. *)
let rec close_hops flow n = function
  | [] -> n
  | (h : hop) :: rest ->
    close_hops flow (n + List.length (Server.close_flow h.server flow)) rest

let close_flow t ~flow ~entry = close_hops flow 0 t.hop_lists.(entry)

(* Every generated shape is an in-tree toward one sink, so the
   downstream path of a link — and with it the no-queueing time from
   service start at that link to delivery — is a function of the link
   alone. Walking each entry's hop list right-to-left accumulates the
   suffix (tx + propagation) sums; shared links are visited once per
   entry but always receive the same value. *)
let residuals t ~len =
  let servers = Array.of_list t.servers in
  let n = Array.length servers in
  let res = Array.make n nan in
  let index srv =
    let rec go i =
      if i >= n then invalid_arg "Topo.residuals: unknown server"
      else if servers.(i) == srv then i
      else go (i + 1)
    in
    go 0
  in
  let len_f = float_of_int len in
  Array.iter
    (fun hops ->
      ignore
        (List.fold_right
           (fun (h : hop) acc ->
             let acc = acc +. (len_f /. h.capacity) +. h.prop_delay in
             res.(index h.server) <- acc;
             acc)
           hops 0.0
          : float))
    t.hop_lists;
  res

let dropped t = List.fold_left (fun n s -> n + Server.drops s) 0 t.servers
let closed t = List.fold_left (fun n s -> n + Server.closed s) 0 t.servers
let queued t = List.fold_left (fun n s -> n + (Server.sched s).Sched.size ()) 0 t.servers
