type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let push t x =
  if Array.length t.data = 0 then t.data <- Array.make 16 x
  else if t.size = Array.length t.data then begin
    let data = Array.make (2 * t.size) x in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let pop t =
  if t.size = 0 then invalid_arg "Vec.pop: empty";
  t.size <- t.size - 1;
  t.data.(t.size)

let last t = if t.size = 0 then None else Some t.data.(t.size - 1)

let iter t ~f =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.size (fun i -> t.data.(i))
let to_array t = Array.sub t.data 0 t.size
let clear t = t.size <- 0
let capacity t = Array.length t.data

let compact t =
  let cap = Array.length t.data in
  if t.size = 0 then t.data <- [||]
  else if t.size < cap then t.data <- Array.sub t.data 0 t.size

let binary_search_last_le t ~key x =
  if t.size = 0 || key t.data.(0) > x then None
  else begin
    (* Invariant: key data.(lo) <= x < key data.(hi) (hi may be size). *)
    let lo = ref 0 and hi = ref t.size in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if key t.data.(mid) <= x then lo := mid else hi := mid
    done;
    Some !lo
  end
