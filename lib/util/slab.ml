(* Values live in an [Obj.t array], so that a freed slot can be cleared
   (OCaml has no dummy of type ['a]), and the free handles are chained
   through the freed slots themselves: a free slot holds the next free
   handle as an immediate int, or [-1] at the end of the chain. [put]
   refuses immediates, so a slot holding an int is free, [get] and
   [take] refuse it, and a value read back is always one that was put.
   The array is created from an immediate, so it is never a flat float
   array, and a float is stored boxed like any other value. *)

type 'a t = {
  mutable vals : Obj.t array;
  mutable free : int;  (* the last handle freed, or -1 *)
  mutable used : int;  (* handles ever issued: 0 .. used - 1 *)
}

let create () = { vals = [||]; free = -1; used = 0 }

let grow s =
  let vals = Array.make (Stdlib.max 16 (2 * s.used)) (Obj.repr (-1)) in
  Array.blit s.vals 0 vals 0 s.used;
  s.vals <- vals

let put s x =
  let v = Obj.repr x in
  if Obj.is_int v then invalid_arg "Slab.put: an immediate value needs no slab";
  let h =
    if s.free >= 0 then begin
      let h = s.free in
      s.free <- (Obj.obj s.vals.(h) : int);
      h
    end
    else begin
      if s.used = Array.length s.vals then grow s;
      s.used <- s.used + 1;
      s.used - 1
    end
  in
  s.vals.(h) <- v;
  h

let get s h =
  let v = s.vals.(h) in
  if Obj.is_int v then invalid_arg "Slab.get: free handle";
  Obj.obj v

let take s h =
  let v = s.vals.(h) in
  if Obj.is_int v then invalid_arg "Slab.take: free handle";
  s.vals.(h) <- Obj.repr s.free;
  s.free <- h;
  Obj.obj v
