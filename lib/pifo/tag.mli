(** Fixed-point virtual-time tags: scaled int63 with saturation.

    The int-rank layer (the {!Pifo_sched} runtime, its rank programs
    and {!Sp_pifo}) keeps every start/finish tag as
    [round (v * 2^frac_bits)] in a native int, so tag arithmetic is
    integer adds and the priority queues ({!Sfq_util.Iheap},
    {!Sfq_sched.Iflow_heap}) compare ints only. A codec value fixes the number of fractional bits; the
    default of 20 gives a quantum of 2{^-20} ≈ 1e-6 virtual-time units
    and leaves ≈ 2{^41} whole units before {!max_tag}.

    Quantization: encoding rounds to nearest, so an encoded tag differs
    from the real-valued one by at most half a quantum, and per-packet
    increments ([delta]) by at most half a quantum per hop. Workloads
    whose times, lengths and rates are dyadic rationals representable
    within [frac_bits] encode {e exactly}, which is what the
    differential equivalence suite exploits.

    Overflow: tags saturate at {!max_tag} (half of [max_int], so one
    further add cannot wrap). Once a scheduler's virtual time reaches
    the rail, every subsequent tag is [max_tag] and ordering degrades
    to (tie, arrival) — still a total, work-conserving order, but no
    longer SFQ. Schedulers expose the condition via their [saturated]
    accessors; at the default 20 fractional bits the rail is
    ≈ 2.2e12 virtual-time units away, i.e. unreachable in any bounded
    run. *)

type t
(** A codec (scale factor). Immutable; shareable between schedulers. *)

val make : ?frac_bits:int -> unit -> t
(** [make ()] builds a codec with [frac_bits] fractional bits
    (default 20). @raise Invalid_argument unless [0 <= frac_bits <= 52]. *)

val frac_bits : t -> int

val scale : t -> float
(** [2.0 ** frac_bits] — exposed so schedulers can fold it into a
    per-flow [scale /. rate] cache and keep all per-packet float math
    inline. *)

val max_tag : int
(** The saturation rail. [max_int / 2]: the sum of two in-range tags
    cannot wrap around. *)

val max_tag_f : float
(** [float_of_int max_tag] — exposed so schedulers can clamp their
    inlined delta computation without re-deriving the constant. *)

val encode : t -> float -> int
(** Round-to-nearest scaling. Negative inputs clamp to 0, values at or
    beyond the rail to {!max_tag}. *)

val decode : t -> int -> float
(** Exact (the scale is a power of two and tags have at most 62
    significant bits). *)

val scale_over : t -> rate:float -> float
(** [scale c /. rate], validated. The per-flow constant the schedulers
    cache so a packet's tag increment is one multiply + round.
    @raise Invalid_argument if [rate <= 0]. *)

val delta : sor:float -> len:int -> int
(** Tag increment for a packet of [len] bytes given the cached
    [sor = scale/rate]: [round (len * sor)], clamped to [[1, max_tag]].
    The lower clamp keeps tags strictly increasing within a flow even
    when a packet's virtual length underflows the quantum. *)

val sat_add : int -> int -> int
(** Saturating add: clamps at {!max_tag}. Both operands must already be
    in [[0, max_tag]]. *)

val is_saturated : int -> bool
(** Has this tag hit the rail? *)

val headroom : t -> int -> float
(** Virtual-time units left before a tag reaches {!max_tag}; 0 at or
    past the rail. *)

val tie_encode : float -> int
(** Order-preserving int image of a float tie value, for {!Iheap} tie
    slots. Non-strict: doubles 1 ulp apart may collapse onto the same
    int, in which case ordering falls through to the uid (arrival
    order).

    Saturation boundary: the image never wraps. The encoding shifts
    the IEEE-754 bit pattern into 62 significant bits, so even
    [infinity] (the largest representable input) maps to a positive
    int above every finite image, [neg_infinity] to its exact
    negation below every finite image, and [-0.0] to [0] — monotone
    order is preserved across the whole extended real line rather
    than overflowing to the opposite sign. The only rejected input is
    NaN, which has no place in a total order.
    @raise Invalid_argument on NaN. *)
