(* Linear probing over interleaved (key, slot) pairs: bucket i holds its
   key at [cells.(2i)] and its slot at [cells.(2i+1)]. Keys are
   non-negative, so [empty] marks a free bucket. The home bucket is the
   top bits of a multiplicative hash. *)

let empty = -1
let min_buckets = 16

type t = {
  mutable cells : int array;  (* [||] until the first insert *)
  mutable mask : int;  (* buckets - 1 *)
  mutable shift : int;  (* 63 - log2 buckets *)
  mutable count : int;
  mutable free : int array;  (* stack of freed slots *)
  mutable nfree : int;
  mutable next : int;  (* slots handed out so far *)
}

let create () =
  { cells = [||]; mask = 0; shift = 63; count = 0; free = [||]; nfree = 0; next = 0 }

let length t = t.count

let[@inline] home shift k = (k * 0x1e3779b97f4a7c15) lsr shift

(* Bucket holding [k], or the empty bucket that ends its probe run. *)
let rec probe cells mask k i =
  let kk = Array.unsafe_get cells (2 * i) in
  if kk = k || kk = empty then i else probe cells mask k ((i + 1) land mask)

let alloc t buckets =
  let bits = ref 0 in
  while 1 lsl !bits < buckets do
    incr bits
  done;
  t.cells <- Array.make (2 * buckets) empty;
  t.mask <- buckets - 1;
  t.shift <- 63 - !bits

let grow t =
  let old = t.cells in
  alloc t (2 * (t.mask + 1));
  for i = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * i) in
    if k <> empty then begin
      let j = probe t.cells t.mask k (home t.shift k) in
      t.cells.(2 * j) <- k;
      t.cells.((2 * j) + 1) <- old.((2 * i) + 1)
    end
  done

let find t k =
  if t.count = 0 || k < 0 then -1
  else
    let i = probe t.cells t.mask k (home t.shift k) in
    if Array.unsafe_get t.cells (2 * i) = k then Array.unsafe_get t.cells ((2 * i) + 1)
    else -1

let take_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    let s = t.next in
    t.next <- s + 1;
    s
  end

let find_or_add t k =
  if k < 0 then invalid_arg "Slot_map.find_or_add: negative key";
  if Array.length t.cells = 0 then alloc t min_buckets;
  let i = probe t.cells t.mask k (home t.shift k) in
  if Array.unsafe_get t.cells (2 * i) = k then Array.unsafe_get t.cells ((2 * i) + 1)
  else begin
    let i =
      if 2 * (t.count + 1) <= t.mask + 1 then i
      else begin
        grow t;
        probe t.cells t.mask k (home t.shift k)
      end
    in
    let s = take_slot t in
    t.cells.(2 * i) <- k;
    t.cells.((2 * i) + 1) <- s;
    t.count <- t.count + 1;
    s
  end

(* Backward-shift deletion: walk the run after the hole and pull back
   every entry whose home bucket does not lie cyclically in
   (hole, j] — it may then sit at the hole without breaking its probe
   run. The run ends at an empty bucket, which load <= 1/2 ensures. *)
let close_hole t i =
  let cells = t.cells and mask = t.mask in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while cells.(2 * !j) <> empty do
    let k = cells.(2 * !j) in
    if (!j - home t.shift k) land mask >= (!j - !hole) land mask then begin
      cells.(2 * !hole) <- k;
      cells.((2 * !hole) + 1) <- cells.((2 * !j) + 1);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  cells.(2 * !hole) <- empty

let push_free t s =
  if t.nfree = Array.length t.free then begin
    let free = Array.make (Stdlib.max 16 (2 * t.nfree)) 0 in
    Array.blit t.free 0 free 0 t.nfree;
    t.free <- free
  end;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

let remove t k =
  if t.count = 0 || k < 0 then -1
  else
    let i = probe t.cells t.mask k (home t.shift k) in
    if t.cells.(2 * i) <> k then -1
    else begin
      let s = t.cells.((2 * i) + 1) in
      close_hole t i;
      t.count <- t.count - 1;
      push_free t s;
      s
    end

let iter t f =
  for i = 0 to (Array.length t.cells / 2) - 1 do
    let k = t.cells.(2 * i) in
    if k <> empty then f k t.cells.((2 * i) + 1)
  done
