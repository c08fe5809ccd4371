(* Structure-of-arrays binary min-heap on (key, tie, uid).

   The three ordering fields live in unboxed [float array]/[int array]
   slabs and are compared inline, so a sift step costs a handful of
   loads and float/int compares — no closure dispatch, no boxed tuple
   or record per element, no polymorphic [compare]. The payload is an
   int in a fourth unboxed array and is never inspected, so a sift
   writes no pointer and pays no write barrier. *)

type t = {
  mutable keys : float array;
  mutable ties : float array;
  mutable uids : int array;
  mutable data : int array;
  mutable size : int;
  mutable hint : int;  (* requested initial capacity *)
}

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Fheap.create: capacity must be >= 1";
  {
    keys = [||];
    ties = [||];
    uids = [||];
    data = [||];
    size = 0;
    hint = capacity;
  }

let length h = h.size
let is_empty h = h.size = 0

(* The arrays are allocated at the first [add], so an idle heap costs
   one small record. *)
let grow h =
  if Array.length h.data = 0 then begin
    let cap = h.hint in
    h.keys <- Array.make cap 0.0;
    h.ties <- Array.make cap 0.0;
    h.uids <- Array.make cap 0;
    h.data <- Array.make cap 0
  end
  else if h.size = Array.length h.data then begin
    let cap = 2 * h.size in
    let keys = Array.make cap 0.0
    and ties = Array.make cap 0.0
    and uids = Array.make cap 0
    and data = Array.make cap 0 in
    Array.blit h.keys 0 keys 0 h.size;
    Array.blit h.ties 0 ties 0 h.size;
    Array.blit h.uids 0 uids 0 h.size;
    Array.blit h.data 0 data 0 h.size;
    h.keys <- keys;
    h.ties <- ties;
    h.uids <- uids;
    h.data <- data
  end

(* The comparisons are [@inline]: without flambda a float argument of
   an out-of-line call is boxed, so a plain call would allocate two
   floats per sift level. *)

(* Is the loose element (k, tie, uid) strictly below slot [j]? *)
let[@inline] lt_slot h k tie uid j =
  let kj = h.keys.(j) in
  k < kj
  || k = kj
     &&
     let tj = h.ties.(j) in
     tie < tj || (tie = tj && uid < h.uids.(j))

(* Is slot [i] strictly below slot [j]? *)
let[@inline] lt h i j = lt_slot h h.keys.(i) h.ties.(i) h.uids.(i) j

(* Is slot [j] strictly below the loose element (k, tie, uid)? *)
let[@inline] slot_lt h j k tie uid =
  let kj = h.keys.(j) in
  kj < k
  || kj = k
     &&
     let tj = h.ties.(j) in
     tj < tie || (tj = tie && h.uids.(j) < uid)

(* Hole-based sifts: carry the displaced element in registers and shift
   entries over it, writing it back once at its final slot. *)

let sift_up h i0 =
  let k = h.keys.(i0) and tie = h.ties.(i0) and uid = h.uids.(i0) in
  let v = h.data.(i0) in
  let i = ref i0 in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    if lt_slot h k tie uid p then begin
      h.keys.(!i) <- h.keys.(p);
      h.ties.(!i) <- h.ties.(p);
      h.uids.(!i) <- h.uids.(p);
      h.data.(!i) <- h.data.(p);
      i := p
    end
    else moving := false
  done;
  h.keys.(!i) <- k;
  h.ties.(!i) <- tie;
  h.uids.(!i) <- uid;
  h.data.(!i) <- v

let sift_down h i0 =
  let k = h.keys.(i0) and tie = h.ties.(i0) and uid = h.uids.(i0) in
  let v = h.data.(i0) in
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= h.size then moving := false
    else begin
      let r = l + 1 in
      let c = if r < h.size && lt h r l then r else l in
      if slot_lt h c k tie uid then begin
        h.keys.(!i) <- h.keys.(c);
        h.ties.(!i) <- h.ties.(c);
        h.uids.(!i) <- h.uids.(c);
        h.data.(!i) <- h.data.(c);
        i := c
      end
      else moving := false
    end
  done;
  h.keys.(!i) <- k;
  h.ties.(!i) <- tie;
  h.uids.(!i) <- uid;
  h.data.(!i) <- v

let add h ~key ~tie ~uid x =
  grow h;
  let i = h.size in
  h.keys.(i) <- key;
  h.ties.(i) <- tie;
  h.uids.(i) <- uid;
  h.data.(i) <- x;
  h.size <- h.size + 1;
  sift_up h i

let min_key_exn h =
  if h.size = 0 then invalid_arg "Fheap.min_key_exn: empty heap";
  h.keys.(0)

let min_elt_exn h =
  if h.size = 0 then invalid_arg "Fheap.min_elt_exn: empty heap";
  h.data.(0)

let min_elt h = if h.size = 0 then None else Some h.data.(0)
let min h = if h.size = 0 then None else Some (h.keys.(0), h.data.(0))

let remove_root h =
  if h.size = 0 then invalid_arg "Fheap.remove_root: empty heap";
  h.size <- h.size - 1;
  if h.size > 0 then begin
    let n = h.size in
    h.keys.(0) <- h.keys.(n);
    h.ties.(0) <- h.ties.(n);
    h.uids.(0) <- h.uids.(n);
    h.data.(0) <- h.data.(n);
    sift_down h 0
  end

let replace_root h ~key ~tie ~uid x =
  if h.size = 0 then invalid_arg "Fheap.replace_root: empty heap";
  h.keys.(0) <- key;
  h.ties.(0) <- tie;
  h.uids.(0) <- uid;
  h.data.(0) <- x;
  sift_down h 0

let pop h =
  if h.size = 0 then None
  else begin
    let k = h.keys.(0) and v = h.data.(0) in
    remove_root h;
    Some (k, v)
  end

let pop_elt h =
  if h.size = 0 then None
  else begin
    let v = h.data.(0) in
    remove_root h;
    Some v
  end

(* Delete slot [i]: move the last element into the hole and sift it
   whichever way restores the heap property. *)
let delete_at h i =
  let n = h.size - 1 in
  h.size <- n;
  if i < n then begin
    h.keys.(i) <- h.keys.(n);
    h.ties.(i) <- h.ties.(n);
    h.uids.(i) <- h.uids.(n);
    h.data.(i) <- h.data.(n);
    if i > 0 && lt h i ((i - 1) / 2) then sift_up h i else sift_down h i
  end

let remove_matching ?(newest = false) h ~pred =
  let best = ref (-1) in
  for i = 0 to h.size - 1 do
    if pred h.data.(i) then
      match !best with
      | -1 -> best := i
      | b ->
        let take =
          if newest then h.uids.(i) > h.uids.(b) else h.uids.(i) < h.uids.(b)
        in
        if take then best := i
  done;
  match !best with
  | -1 -> None
  | i ->
    let k = h.keys.(i) and v = h.data.(i) in
    delete_at h i;
    Some (k, v)

let capacity h = Array.length h.data

let clear h = h.size <- 0

let iter h ~f =
  for i = 0 to h.size - 1 do
    f h.keys.(i) h.data.(i)
  done
