(** Multi-node networks: nodes, directed links, static per-flow routes.

    {!Tandem} wires a single chain; this module builds arbitrary
    topologies — the "network of servers" setting of §2.4, where each
    hop is an output link with its own scheduler and rate process (the
    paper's Fig. 1(a) topology is three hosts, a switch and a sink).

    Each directed link owns a {!Server} (the output queue of its source
    node) plus a propagation delay. Forwarding is per-flow source
    routing: a flow's route is the list of nodes it visits; when a
    packet finishes service on link (u,v) it is injected, after the
    propagation delay, into link (v,w) for the next node w on its
    route, until the route ends.

    {!compile} turns a path into the array of links it crosses, once;
    {!set_route} gives a flow a compiled route, held in a
    {!Sfq_base.Flow_table} by flow id. Forwarding indexes that array,
    so a hop costs no table lookup by node pair. A compiled route is
    never mutated, so any number of flows can share it: a topology
    compiles each entry's path once and every flow entering there
    takes the same array, allocating nothing. *)

open Sfq_base

type t
type node

val create : Sim.t -> t
val add_node : t -> string -> node
(** @raise Invalid_argument on a duplicate name. *)

val node_name : node -> string

val link :
  t -> src:node -> dst:node -> rate:Rate_process.t -> sched:Sched.t ->
  ?prop_delay:float -> ?flow_buffer_limit:int -> ?buffer:Buffered.config ->
  unit -> Server.t
(** Create the directed link src→dst and return its server (for
    attaching traces, handlers, priority traffic). [buffer] is the
    link's finite switch memory ({!Server.create}'s admission gate);
    [flow_buffer_limit] is the per-flow drop-tail shorthand.
    @raise Invalid_argument if the link already exists or
    [prop_delay < 0]. *)

val server : t -> src:node -> dst:node -> Server.t
(** @raise Not_found if no such link. *)

type route
(** A path compiled against one network: the links it crosses, in
    order. Immutable, so flows can share it. *)

val compile : t -> node list -> route
(** Check and compile a path. Every consecutive pair must be linked.
    @raise Invalid_argument as {!route} does. *)

val set_route : t -> flow:Packet.flow -> route -> unit
(** Set (or replace) the flow's route, as {!route} does, without
    compiling anything.
    @raise Invalid_argument if the route was compiled for another
    network. *)

val route : t -> flow:Packet.flow -> node list -> unit
(** [set_route t ~flow (compile t path)]: set (or replace) the flow's
    path. Every consecutive pair must be linked; the check happens
    here, and a failed call leaves the previous route in place.

    The route is read each time one of the flow's packets leaves a
    link: the packet continues along the route it finds then, from that
    link's position on it. A packet leaving a link that is not on its
    flow's current route is dropped silently.
    @raise Invalid_argument on a path shorter than 2 nodes or with a
    missing link. *)

val unroute : t -> flow:Packet.flow -> unit
(** Forget the flow's path (no-op when absent). Part of the flow-id
    recycling contract ({!Sfq_base.Flow_registry}): a closed id's route
    must not leak, and must not be visible to a later flow that reuses
    the id.

    Only call once the flow has no packets in flight. A packet queued,
    in service, or propagating toward a later link when the route
    vanishes is dropped silently the next time it leaves a link; only a
    packet already propagating from its last link is still delivered.
    Such a drop is counted nowhere, which breaks the conservation law
    the property tests check. *)

val inject : t -> Packet.t -> unit
(** Send a packet down its flow's route from the first node.
    @raise Invalid_argument if the flow has no route. *)

val on_delivered : t -> (Packet.t -> at:float -> unit) -> unit
(** Fires when a packet completes its route (after the last link's
    service and propagation). *)

val delivered : t -> int

val injected : t -> int
(** Total {!inject} calls — the left-hand side of the network-wide
    conservation law
    [injected = delivered + dropped + closed + in-flight]. *)

val iter_links : t -> f:(src:node -> dst:node -> Server.t -> unit) -> unit
(** Visit every link's server in deterministic (creation-index) order —
    for attaching monitors or summing per-hop counters without
    depending on hash-table iteration order. *)
