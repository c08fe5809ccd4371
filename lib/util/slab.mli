(** Int handles for boxed values.

    {!Fheap} and {!Iheap} carry int payloads, so that a sift, which
    moves the payload at every level, writes no pointer and pays no
    write barrier. A caller whose payload is a boxed value (a packet, a
    closure, a record) puts it here and stores the handle in the heap
    instead: the value is written once by {!put} and cleared once by
    {!take}, two barriered writes per element where a polymorphic
    payload array paid one per sift level.

    Handles freed by {!take} are reused last in, first out, so a slab
    holds as many slots as its caller ever held values at once, in one
    array: the free handles are chained through the freed slots. The
    array is allocated on the first {!put} and grows by doubling; after
    that, {!put}, {!get} and {!take} allocate nothing. *)

type 'a t

val create : unit -> 'a t
(** An empty slab. Allocates one small record; no array yet. *)

val put : 'a t -> 'a -> int
(** [put s x] stores [x] and returns its handle: the handle most
    recently freed by {!take}, or a new one if none is free.
    @raise Invalid_argument if [x] is an immediate (an int, a constant
    constructor): such a value fits in the heap's int payload itself. *)

val get : 'a t -> int -> 'a
(** [get s h] is the value stored under [h].
    @raise Invalid_argument if [h] was never issued or has been freed. *)

val take : 'a t -> int -> 'a
(** [take s h] returns the value stored under [h], clears its slot, so
    the slab no longer keeps the value alive, and frees [h] for reuse.
    @raise Invalid_argument if [h] was never issued or has been freed. *)
