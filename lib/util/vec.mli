(** Growable array (OCaml 5.1 predates [Dynarray]).

    Used for trace records and rate-process segments, where millions of
    small records would stress the GC as list cells and need random
    access for binary search. Amortized O(1) [push]. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-bounds. *)

val pop : 'a t -> 'a
(** Remove and return the last element: with {!push}, a stack. The
    vacated slot is not cleared, like {!clear}'s.
    @raise Invalid_argument when empty. *)

val last : 'a t -> 'a option
val iter : 'a t -> f:('a -> unit) -> unit
val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val clear : 'a t -> unit

val capacity : 'a t -> int
(** Allocated slots (>= {!length}); 0 for a never-pushed vector. *)

val compact : 'a t -> unit
(** Shrink the backing array to exactly {!length} slots (drop it
    entirely when empty), releasing the doubling headroom — long-lived
    vectors that grew during a burst and then emptied ({!clear}) would
    otherwise pin their peak capacity forever. *)

val binary_search_last_le : 'a t -> key:('a -> float) -> float -> int option
(** Index of the last element whose [key] is [<= x], assuming keys are
    non-decreasing; [None] if even the first exceeds [x]. *)
