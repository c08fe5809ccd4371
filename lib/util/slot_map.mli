(** Compact slots for sparse int keys: a non-allocating open-addressing
    map from non-negative keys (flow ids) to small dense slot numbers.

    A key gets a slot on {!find_or_add} and keeps it until {!remove}.
    Slots are handed out from [0] upward, and a freed slot is the next
    one reused (LIFO). So the slots in use always lie below the peak
    number of keys held at once, however large or scattered the keys
    are. Arrays indexed by slot then stay sized by that peak, not by
    the largest key.

    Layout: linear probing over one [int array] that stores each
    bucket's key and slot side by side, so a probe reads one cache
    line. The load factor stays at or below 1/2. {!remove} uses
    backward-shift deletion, so no tombstones build up under churn.
    The arrays are allocated on the first insert. After that, only
    growth of the table or of the free-slot stack allocates. *)

type t

val create : unit -> t
(** An empty map. Allocates nothing but the record. *)

val find : t -> int -> int
(** The key's slot, or [-1] if it has none (negative keys never have
    one). Never assigns. *)

val find_or_add : t -> int -> int
(** The key's slot, assigning the most recently freed slot (else the
    next unused one) if it has none.
    @raise Invalid_argument on a negative key. *)

val remove : t -> int -> int
(** Free the key's slot and return it, or [-1] if the key had none. *)

val length : t -> int
(** Keys currently holding a slot. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f key slot] for every key holding a slot, in
    bucket order. [f] must not add or remove keys. *)
