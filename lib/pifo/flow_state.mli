(** Dense fixed-point per-flow state for rank programs, indexed by the
    runtime's link-local flow slot.

    One int tag per slot (finish tag, EAT floor — whatever the program
    stores) and a cached [scale /. rate] float so a packet's virtual
    length is one multiply + round. {!Pifo_sched} hands every rank-program hook
    the flow's slot ({!Sfq_util.Slot_map}): slots are assigned on a
    flow's first enqueue at the link and freed when it closes, so these
    arrays are sized by the flows the link carries at once, not by the
    largest flow id. Every operation keeps its floats internal —
    arguments and results are ints or pointers — so a rank program
    built on this module stays allocation-free in steady state even
    across the module boundary (nothing here forces a float box).

    Activation (first packet in a slot since creation or {!forget})
    snapshots the weight: the weight function is read (by the packet's
    flow id) once per flow activation and cached until {!forget}, which
    is the documented int-tag divergence from the float originals under
    mid-backlog reweighting. {!forget} runs when a flow closes, and
    also when the runtime gives an idle flow's slot back because its
    tag is stale ({!Rank_program.t.stale}); so a flow that returns after
    that re-reads its weight, as after a close. With static weights it
    reads the same value. *)

open Sfq_base

type t

val create : ?frac_bits:int -> Weights.t -> t
(** Fresh state over a {!Tag} codec with [frac_bits]
    fractional bits (default 20). *)

val codec : t -> Tag.t

val delta : t -> slot:int -> Packet.t -> int
(** The packet's tag increment [round (len * scale / rate)], clamped to
    [[1, Tag.max_tag]]. Uses the slot's cached rate, activating it (one
    [Weights.get] call on [pkt.flow]) if this is the flow's first
    packet; a per-packet rate override ([pkt.rate = Some r]) replaces
    the flow rate for this packet only. Grows the arrays as needed.
    @raise Invalid_argument if the flow's rate is [<= 0]. *)

val advance : t -> slot:int -> floor:int -> Packet.t -> int
(** Fused SFQ-shape update in one call: grow/activate as needed,
    compute the packet's {!delta} [d] (honouring a per-packet rate
    override), read the slot's previous tag [fprev], take
    [stag = max floor fprev], store [sat_add stag d] back into the
    slot, and return [stag]. The stored finish tag is readable via
    {!last}. Semantically identical to
    [delta]/[get]/[max]/[sat_add]/[set] but one module-boundary call
    and one bounds check instead of three of each — the rank-program
    hot path's answer to the hand-written schedulers' inlined
    enqueue. *)

val advance_reserved : t -> slot:int -> floor:int -> Packet.t -> int
(** {!advance} pricing every packet at the flow's reserved rate
    (ignoring per-packet overrides) — the SCFQ convention. *)

val advance_eat : t -> slot:int -> now:float -> Packet.t -> int
(** Fused Virtual-Clock-shape update: compute [d] (honouring rate
    overrides) and [nt = now_tag now], read the slot's EAT floor
    [fl], take [eat = max nt fl], store [sat_add eat d], and return
    [eat]. The stored stamp is readable via {!last}. *)

val last : t -> int
(** The tag stored by the most recent [advance]/[advance_reserved]/
    [advance_eat] call (0 before the first) — lets a rank program
    publish the secondary output without tupling. *)

val get : t -> int -> int
(** The slot's tag (0 if never written — matching the float
    schedulers' [F = 0] / clamped EAT-floor defaults). *)

val set : t -> int -> int -> unit
(** [set t slot tag]. *)

val now_tag : t -> float -> int
(** Real time encoded as a tag: [round (now * scale)], negative clocks
    clamping to 0 (the slot default) and the rail saturating. *)

val clear : t -> unit
(** Zero every tag, keeping rate caches — SCFQ's idle reset. *)

val forget : t -> int -> unit
(** Flow closure: zero the slot's tag and drop its cached rate, so the
    next flow given this slot starts fresh and re-reads the weight
    function. A negative slot (a flow that held none) is a no-op. *)
