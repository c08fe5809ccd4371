(* Flow ids are small dense non-negative ints in every workload this
   library generates (sources number their flows 0, 1, 2, …), so the
   common case is served by a direct array index: one bounds check and
   one byte test instead of a hash + bucket walk per lookup. Negative
   or very large ids fall back to a hashtable so the API keeps
   accepting any int. *)

let dense_limit = 1 lsl 20
(* Flows in [0, dense_limit) use the array; beyond that, spending
   O(id) memory on one flow would be absurd, so they go to the
   hashtable. *)

type 'a t = {
  default : Packet.flow -> 'a;
  mutable dense : 'a array;  (* allocated lazily: no ['a] dummy exists *)
  mutable present : Bytes.t;  (* 1 iff the dense slot holds a live entry *)
  mutable dense_count : int;
  (* Created with the first id outside the dense range, so a table
     that only ever sees dense ids allocates no hashtable. *)
  mutable sparse : (Packet.flow, 'a) Hashtbl.t option;
}

let create ~default =
  { default; dense = [||]; present = Bytes.empty; dense_count = 0; sparse = None }

let sparse t =
  match t.sparse with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 16 in
    t.sparse <- Some h;
    h

let is_dense flow = flow >= 0 && flow < dense_limit

(* Make sure [dense.(flow)] exists, using [v] as the fill for fresh
   slots (never observed: [present] guards every read). *)
let ensure t flow v =
  let cur = Array.length t.dense in
  if flow >= cur then begin
    let cap = ref (if cur = 0 then 8 else 2 * cur) in
    while !cap <= flow do
      cap := 2 * !cap
    done;
    let cap = Stdlib.min !cap dense_limit in
    let dense = Array.make cap v in
    let present = Bytes.make cap '\000' in
    Array.blit t.dense 0 dense 0 cur;
    Bytes.blit t.present 0 present 0 cur;
    t.dense <- dense;
    t.present <- present
  end

let dense_mem t flow =
  flow < Array.length t.dense && Bytes.unsafe_get t.present flow <> '\000'

let set t flow v =
  if is_dense flow then begin
    ensure t flow v;
    if Bytes.unsafe_get t.present flow = '\000' then begin
      Bytes.unsafe_set t.present flow '\001';
      t.dense_count <- t.dense_count + 1
    end;
    Array.unsafe_set t.dense flow v
  end
  else Hashtbl.replace (sparse t) flow v

let find t flow =
  if is_dense flow then
    if dense_mem t flow then Array.unsafe_get t.dense flow
    else begin
      let v = t.default flow in
      set t flow v;
      v
    end
  else begin
    let h = sparse t in
    match Hashtbl.find_opt h flow with
    | Some v -> v
    | None ->
      let v = t.default flow in
      Hashtbl.replace h flow v;
      v
  end

let find_opt t flow =
  if is_dense flow then
    if dense_mem t flow then Some (Array.unsafe_get t.dense flow) else None
  else match t.sparse with Some h -> Hashtbl.find_opt h flow | None -> None

let remove t flow =
  if is_dense flow then begin
    if dense_mem t flow then begin
      Bytes.unsafe_set t.present flow '\000';
      t.dense_count <- t.dense_count - 1
    end
  end
  else match t.sparse with Some h -> Hashtbl.remove h flow | None -> ()

let mem t flow =
  if is_dense flow then dense_mem t flow
  else match t.sparse with Some h -> Hashtbl.mem h flow | None -> false

let iter t ~f =
  for flow = 0 to Array.length t.dense - 1 do
    if Bytes.unsafe_get t.present flow <> '\000' then f flow (Array.unsafe_get t.dense flow)
  done;
  match t.sparse with Some h -> Hashtbl.iter f h | None -> ()

let fold t ~init ~f =
  let acc = ref init in
  for flow = 0 to Array.length t.dense - 1 do
    if Bytes.unsafe_get t.present flow <> '\000' then
      acc := f flow (Array.unsafe_get t.dense flow) !acc
  done;
  match t.sparse with Some h -> Hashtbl.fold f h !acc | None -> !acc

let flows t = fold t ~init:[] ~f:(fun flow _ acc -> flow :: acc) |> List.sort compare
let length t =
  t.dense_count + match t.sparse with Some h -> Hashtbl.length h | None -> 0
let dense_capacity t = Array.length t.dense

let clear t =
  Bytes.fill t.present 0 (Bytes.length t.present) '\000';
  t.dense_count <- 0;
  t.sparse <- None
