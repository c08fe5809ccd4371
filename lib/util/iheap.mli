(** Monomorphic int-keyed binary min-heap (structure of arrays).

    The integer sibling of {!Fheap}, built for the fixed-point fast
    path: tags are scaled int63 virtual times, ties are an
    order-preserving int encoding of the float tie value, and [uid] is
    the usual arrival counter. Every ordering field lives in its own
    [int array] slab, so a sift step compiles to integer loads and
    compares — no float compares, no boxing, no closure dispatch.

    Ordering: ascending [key], then ascending [tie], then ascending
    [uid]. As with {!Fheap}, [uid] must be unique per element whenever
    pop order must be deterministic; with distinct uids the order is
    total. Equal-[(key, tie)] elements therefore pop in ascending [uid]
    — i.e. insertion (FIFO) order when uids come from an arrival
    counter. This FIFO-stable tie order is part of the contract: the
    differential suite relies on int-tag ties resolving exactly like
    float-tag ties, and both heaps delegate that resolution to the same
    uid field.

    Payloads are ints, as in {!Fheap} and for the same reason: a sift
    moves the payload at every level, and a write to a polymorphic
    array pays a float-array tag check and [caml_modify]'s write
    barrier where an [int array] write is one store. The PIFO runtime's
    payload is a flow slot or a {!Slab} handle.

    Like {!Fheap}, this heap exposes a non-allocating removal triple —
    {!min_key_exn} / {!min_elt_exn} / {!remove_root} — so callers on a
    zero-allocation budget can take the root without constructing an
    option or a tuple, and {!replace_root}, which pops and pushes in
    one sift. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty heap. [capacity] (default 16) pre-sizes the
    backing arrays so a heap of known peak size never pays the
    grow-and-copy doubling. @raise Invalid_argument if [capacity < 1]. *)

val length : t -> int
val is_empty : t -> bool

val add : t -> key:int -> tie:int -> uid:int -> int -> unit
(** Insert a payload under the given ordering fields. Allocation-free
    once the backing arrays have reached their peak size. *)

val min_key_exn : t -> int
(** Smallest key, without allocation.
    @raise Invalid_argument on an empty heap. *)

val min_elt_exn : t -> int
(** Payload of the smallest element, without removing it and without
    allocation. @raise Invalid_argument on an empty heap. *)

val min_elt : t -> int option
(** Payload of the smallest element, without removing it. *)

val min : t -> (int * int) option
(** Key and payload of the smallest element, without removing it. *)

val remove_root : t -> unit
(** Remove the smallest element without returning it (read it first via
    {!min_elt_exn}/{!min_key_exn}). The non-allocating companion of
    {!pop}. @raise Invalid_argument on an empty heap. *)

val replace_root : t -> key:int -> tie:int -> uid:int -> int -> unit
(** [replace_root h ~key ~tie ~uid x] removes the smallest element and
    inserts [x] in one sift down from the root, where {!remove_root}
    then {!add} would sift twice. The heap holds the same elements
    either way, but in a different layout. Pop order depends only on
    the elements when their uids are distinct, so use it only there:
    with a repeated uid, equal [(key, tie, uid)] elements could pop in
    another order, and {!iter} visits elements in layout order.
    @raise Invalid_argument on an empty heap. *)

val pop : t -> (int * int) option
(** Remove the smallest element; returns its key and payload. *)

val pop_elt : t -> int option
(** Remove the smallest element; returns just the payload. *)

val remove_matching :
  ?newest:bool -> t -> pred:(int -> bool) -> (int * int) option
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

val iter : t -> f:(int -> int -> unit) -> unit
(** Apply [f key payload] to every element in unspecified order. *)
