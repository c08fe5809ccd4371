(** Monomorphic float-keyed binary min-heap (structure of arrays).

    The scheduling hot path orders every queue in this library by the
    same three-field key: a float tag, a float tie refinement, and an
    int arrival number. {!Ds_heap} pays for its generality there — one
    boxed entry per element, a closure comparator call per sift step,
    and (for tuple keys) polymorphic [compare]. This heap hard-codes
    the [(key, tie, uid)] lexicographic order and stores each field in
    its own unboxed array, so comparisons compile to inline float/int
    tests and insertion allocates nothing.

    Ordering: ascending [key], then ascending [tie], then ascending
    [uid]. The [tie] field is a float rather than an int because it
    carries flow weights — OCaml's 63-bit native ints cannot hold an
    order-preserving image of every positive double, while float
    arrays are unboxed anyway, so nothing is lost. Callers encoding
    "prefer the larger weight" negate the weight. [uid] must be unique
    per element whenever popping order must be deterministic; with
    distinct uids the order is total, so pop order is independent of
    insertion order. Keys and ties must not be NaN.

    Payloads are ints. A sift moves every field of the element it
    shifts, and a write to a polymorphic array goes through OCaml's
    generic array path: a float-array tag check, then [caml_modify],
    whose write barrier also darkens the overwritten value when it
    lives in the major heap. An [int array] write is one store. A caller whose
    payload is boxed keeps it in a {!Slab} and stores the handle here,
    so it pays the barrier twice per element (the [Slab.put] and the
    [Slab.take]) instead of once per sift level.

    [add], [pop] and [replace_root] are O(log n);
    [min]/[min_elt]/[min_key_exn] are O(1). Once the arrays have
    reached peak size, [add], [min_elt_exn],
    [remove_root] and [replace_root] allocate nothing: the comparisons
    are inlined, so no float is boxed on a sift. Keep {!Ds_heap} for
    heterogeneous orderings (version counters, multi-field records)
    that do not fit this shape. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty heap. [capacity] (default 16) pre-sizes the
    backing arrays so a heap of known peak size never pays the
    grow-and-copy doubling. @raise Invalid_argument if [capacity < 1]. *)

val length : t -> int
val is_empty : t -> bool

val add : t -> key:float -> tie:float -> uid:int -> int -> unit
(** Insert a payload under the given ordering fields. *)

val min_key_exn : t -> float
(** Smallest key, without allocation.
    @raise Invalid_argument on an empty heap. *)

val min_elt_exn : t -> int
(** Payload of the smallest element, without allocation.
    @raise Invalid_argument on an empty heap. *)

val remove_root : t -> unit
(** Remove the smallest element. With {!min_key_exn} and
    {!min_elt_exn} this pops without building the option and tuple
    {!pop} returns, so a steady-state add/pop cycle allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val replace_root : t -> key:float -> tie:float -> uid:int -> int -> unit
(** [replace_root h ~key ~tie ~uid x] removes the smallest element and
    inserts [x] in one sift down from the root, where {!remove_root}
    then {!add} would sift twice. The heap holds the same elements
    either way, but in a different layout. Pop order depends only on
    the elements when their uids are distinct, so use it only there:
    with a repeated uid, equal [(key, tie, uid)] elements could pop in
    another order, and {!iter} visits elements in layout order.
    @raise Invalid_argument on an empty heap. *)

val min_elt : t -> int option
(** Payload of the smallest element, without removing it. *)

val min : t -> (float * int) option
(** Key and payload of the smallest element, without removing it. *)

val pop : t -> (float * int) option
(** Remove the smallest element; returns its key and payload. *)

val pop_elt : t -> int option
(** Remove the smallest element; returns just the payload. *)

val remove_matching :
  ?newest:bool -> t -> pred:(int -> bool) -> (float * int) option
(** Remove and return the matching element with the smallest [uid]
    (the oldest insertion) — or the largest when [newest] is set.
    O(n) scan plus an O(log n) repair: for eviction paths, which are
    off the per-packet hot path by construction. [None] if nothing
    matches. *)

val capacity : t -> int
(** Allocated slots in the backing arrays (>= {!length}); 0 before the
    first {!add}. Exposed for capacity-leak tests. *)

val clear : t -> unit
(** Remove every element (backing arrays are retained). *)

val iter : t -> f:(float -> int -> unit) -> unit
(** Apply [f key payload] to every element in unspecified order. *)
