(** Topology generators over {!Net}: the multi-server setting of the
    paper's §2.4 end-to-end analysis, at generator scale.

    Each shape wires a {!Net.t} of constant-rate servers and
    pre-computes, per {e entry point} (the node where a flow may enter),
    the route to the sink and the ordered list of hops the route
    crosses. The per-hop record carries the link capacity and
    propagation delay — exactly the [C] and [τ] of Corollary 1's
    composed bound [EAT¹ + Σ β^n + Σ τ], so an end-to-end oracle can be
    parameterized straight off the topology.

    Shapes (all routes end at a single sink):
    - [Star leaves]: leaf_i → hub → sink; 2 hops. The ns2 basestation
      exemplar and the paper's Fig. 1(a) (three hosts into a switch).
    - [Line hops]: n_0 → n_1 → … → n_hops; one entry, [hops] hops — the
      tandem of §2.4.
    - [Tree arity depth]: a complete arity-ary aggregation tree; the
      [arity^depth] leaves are entries, the root forwards to the sink.
    - [Dumbbell left right]: src_i → router → router → dst_(i mod
      right); the shared middle link is the bottleneck.

    Determinism: nodes and links are created in a fixed order, so
    {!servers} (and everything folded over it) is reproducible across
    runs and domain counts. *)

open Sfq_base

type spec =
  | Star of { leaves : int }
  | Line of { hops : int }
  | Tree of { arity : int; depth : int }
  | Dumbbell of { left : int; right : int }

val spec_name : spec -> string
(** Label fragment, e.g. ["star8"], ["line3"], ["tree2x2"],
    ["dumbbell3x2"]. *)

val spec_entries : spec -> int
(** {!entries} of the built topology, computable without building it
    (scenario generators size their reserved-flow sets from this). *)

type hop = { server : Server.t; capacity : float; prop_delay : float }

type t

val build :
  Sim.t ->
  spec ->
  access_rate:float ->
  core_rate:float ->
  mk_sched:(rate:float -> Sched.t) ->
  ?prop_delay:float ->
  ?buffer:Buffered.config ->
  unit ->
  t
(** Wire the topology. [mk_sched] is called once per link with that
    link's capacity (so capacity-parametric disciplines, and monitor
    wrappers that need the rate, can be built per hop); edge links get
    [access_rate], interior/bottleneck links [core_rate]. [prop_delay]
    and [buffer] apply to every link.
    @raise Invalid_argument on a degenerate shape or non-positive
    rate. *)

val spec : t -> spec
val net : t -> Net.t
val sim : t -> Sim.t

val entries : t -> int
(** Number of entry points (1 for [Line]). *)

val path : t -> entry:int -> Net.node list
val hops : t -> entry:int -> hop list
(** The servers the route crosses, in route order, with capacity and
    propagation delay — the [β]/[τ] inputs of the composed bound. *)

val nhops : t -> entry:int -> int
val core : t -> Server.t
(** The designated bottleneck link (hub→sink, first line link,
    root→sink, the dumbbell middle). *)

val servers : t -> Server.t list
(** Every link's server, in creation order (deterministic). *)

val residuals : t -> len:int -> float array
(** Route-aware slack constants: [residuals.(i)] is the no-queueing
    time from the moment a packet of [len] bits starts service at the
    i-th link (in {!servers}' creation order — the order {!build}
    calls [mk_sched]) until its delivery at the sink: the link's own
    transmission and propagation plus those of every downstream hop.
    Well-defined because every generated shape is an in-tree — a
    link's downstream path is unique. This is the [residual] input an
    LSTF replay wants per hop: rank = deadline − residual is the
    latest service-start time that still meets the deadline. *)

val route_flow : t -> flow:Packet.flow -> entry:int -> unit
(** Give the flow the entry's route in the {!Net}. {!build} compiles
    each entry's path once ({!Net.compile}); this installs that shared
    route ({!Net.set_route}), so routing a flow allocates nothing. *)

val close_flow : t -> flow:Packet.flow -> entry:int -> int
(** {!Server.close_flow} at every hop on the entry's route; returns the
    number of flushed packets. The caller still owns route removal
    ({!Net.unroute}) and registry recycling — and must delay both until
    the flow has nothing in flight. *)

val dropped : t -> int
(** Σ {!Server.drops} over all links. *)

val closed : t -> int
(** Σ {!Server.closed} over all links. *)

val queued : t -> int
(** Σ scheduler backlogs over all links (packets queued, excluding any
    in service or in propagation). *)
