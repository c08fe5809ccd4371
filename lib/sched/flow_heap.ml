open Sfq_util
open Sfq_base

(* Per-flow circular buffer of queued entries, structure-of-arrays so a
   packet costs no allocation beyond its slot. Capacities are powers of
   two; slot i of the queue lives at index (head + i) land mask. *)
type 'a ring = {
  mutable rkeys : float array;
  mutable raux : float array;
  mutable rties : float array;
  mutable ruids : int array;
  mutable rdata : 'a array;  (* allocated lazily: no ['a] dummy exists *)
  mutable head : int;
  mutable len : int;
}

let ring_make () =
  {
    rkeys = [||];
    raux = [||];
    rties = [||];
    ruids = [||];
    rdata = [||];
    head = 0;
    len = 0;
  }

let ring_min = 8  (* slots of a fresh ring *)

let ring_grow r v =
  let cur = Array.length r.rdata in
  if cur = 0 then begin
    r.rkeys <- Array.make ring_min 0.0;
    r.raux <- Array.make ring_min 0.0;
    r.rties <- Array.make ring_min 0.0;
    r.ruids <- Array.make ring_min 0;
    r.rdata <- Array.make ring_min v
  end
  else if r.len = cur then begin
    let cap = 2 * cur in
    let rkeys = Array.make cap 0.0
    and raux = Array.make cap 0.0
    and rties = Array.make cap 0.0
    and ruids = Array.make cap 0
    and rdata = Array.make cap v in
    (* Unwrap: oldest entry moves to index 0. *)
    let tail = cur - r.head in
    Array.blit r.rkeys r.head rkeys 0 tail;
    Array.blit r.raux r.head raux 0 tail;
    Array.blit r.rties r.head rties 0 tail;
    Array.blit r.ruids r.head ruids 0 tail;
    Array.blit r.rdata r.head rdata 0 tail;
    Array.blit r.rkeys 0 rkeys tail r.head;
    Array.blit r.raux 0 raux tail r.head;
    Array.blit r.rties 0 rties tail r.head;
    Array.blit r.ruids 0 ruids tail r.head;
    Array.blit r.rdata 0 rdata tail r.head;
    r.rkeys <- rkeys;
    r.raux <- raux;
    r.rties <- rties;
    r.ruids <- ruids;
    r.rdata <- rdata;
    r.head <- 0
  end

let ring_push r ~key ~aux ~tie ~uid v =
  ring_grow r v;
  let i = (r.head + r.len) land (Array.length r.rdata - 1) in
  r.rkeys.(i) <- key;
  r.raux.(i) <- aux;
  r.rties.(i) <- tie;
  r.ruids.(i) <- uid;
  r.rdata.(i) <- v;
  r.len <- r.len + 1

type 'a popped = { key : float; aux : float; uid : int; flow : Packet.flow; value : 'a }

type 'a t = {
  heap : Packet.flow Fheap.t;  (* one entry per backlogged flow: its head *)
  rings : 'a ring Flow_table.t;
  spare : 'a ring list ref;  (* emptied 8-slot rings, handed to new flows *)
  (* [| first value ever pushed |], or [||] before that. OCaml has no
     ['a] dummy, so this value stands in for a cleared ring slot. The
     clearing matters: rings live in the major heap, and a popped value
     still referenced from its old slot stays alive, and is promoted,
     until the slot is reused. *)
  mutable filler : 'a array;
  mutable next_uid : int;
  mutable total : int;
}

let create ?capacity () =
  let spare = ref [] in
  let fresh _ =
    match !spare with
    | r :: rest ->
      spare := rest;
      r
    | [] -> ring_make ()
  in
  {
    heap = Fheap.create ?capacity ();
    rings = Flow_table.create ~default:fresh;
    spare;
    filler = [||];
    next_uid = 0;
    total = 0;
  }

let push t ~flow ~key ?(aux = 0.0) ~tie v =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  t.total <- t.total + 1;
  if Array.length t.filler = 0 then t.filler <- [| v |];
  let r = Flow_table.find t.rings flow in
  let was_empty = r.len = 0 in
  ring_push r ~key ~aux ~tie ~uid v;
  (* Only an idle flow's arrival enters the heap: a backlogged flow is
     already represented by its head packet, and this library's
     disciplines assign non-decreasing tags within a flow, so the head
     stays the flow's minimum. *)
  if was_empty then Fheap.add t.heap ~key ~tie ~uid flow

let pop t =
  match Fheap.pop t.heap with
  | None -> None
  | Some (_, flow) ->
    let r = Flow_table.find t.rings flow in
    let i = r.head in
    let key = r.rkeys.(i) and aux = r.raux.(i) and uid = r.ruids.(i) and v = r.rdata.(i) in
    r.rdata.(i) <- t.filler.(0);
    r.head <- (i + 1) land (Array.length r.rdata - 1);
    r.len <- r.len - 1;
    t.total <- t.total - 1;
    (* Promote the successor: it becomes the flow's representative. *)
    if r.len > 0 then begin
      let j = r.head in
      Fheap.add t.heap ~key:r.rkeys.(j) ~tie:r.rties.(j) ~uid:r.ruids.(j) flow
    end;
    Some { key; aux; uid; flow; value = v }

let peek t =
  match Fheap.min t.heap with
  | None -> None
  | Some (key, flow) ->
    let r = Flow_table.find t.rings flow in
    let i = r.head in
    Some { key; aux = r.raux.(i); uid = r.ruids.(i); flow; value = r.rdata.(i) }

let size t = t.total
let is_empty t = t.total = 0
let backlog t flow = match Flow_table.find_opt t.rings flow with None -> 0 | Some r -> r.len
let active_flows t = Fheap.length t.heap

(* ------------------------------------------------------------------ *)
(* Eviction and flow teardown. All off the per-packet hot path: the
   O(F) heap scan only runs when a buffer policy or a flow closure
   actually removes something. *)

let heap_remove t flow =
  ignore (Fheap.remove_matching t.heap ~pred:(fun f -> f = flow))

let evict_front t flow =
  match Flow_table.find_opt t.rings flow with
  | None -> None
  | Some r when r.len = 0 -> None
  | Some r ->
    let i = r.head in
    let key = r.rkeys.(i) and aux = r.raux.(i) and uid = r.ruids.(i) and v = r.rdata.(i) in
    r.rdata.(i) <- t.filler.(0);
    r.head <- (i + 1) land (Array.length r.rdata - 1);
    r.len <- r.len - 1;
    t.total <- t.total - 1;
    (* the head was the flow's heap representative: replace it *)
    heap_remove t flow;
    if r.len > 0 then begin
      let j = r.head in
      Fheap.add t.heap ~key:r.rkeys.(j) ~tie:r.rties.(j) ~uid:r.ruids.(j) flow
    end;
    Some { key; aux; uid; flow; value = v }

let evict_back t flow =
  match Flow_table.find_opt t.rings flow with
  | None -> None
  | Some r when r.len = 0 -> None
  | Some r ->
    let i = (r.head + r.len - 1) land (Array.length r.rdata - 1) in
    let key = r.rkeys.(i) and aux = r.raux.(i) and uid = r.ruids.(i) and v = r.rdata.(i) in
    r.rdata.(i) <- t.filler.(0);
    r.len <- r.len - 1;
    t.total <- t.total - 1;
    (* the tail is the heap representative only when it was alone *)
    if r.len = 0 then heap_remove t flow;
    Some { key; aux; uid; flow; value = v }

let flush_flow t flow =
  match Flow_table.find_opt t.rings flow with
  | None -> []
  | Some r ->
    let n = r.len in
    let out =
      if n = 0 then []
      else begin
        let mask = Array.length r.rdata - 1 in
        List.init n (fun k ->
            let i = (r.head + k) land mask in
            { key = r.rkeys.(i); aux = r.raux.(i); uid = r.ruids.(i); flow;
              value = r.rdata.(i) })
      end
    in
    if n > 0 then begin
      t.total <- t.total - n;
      heap_remove t flow
    end;
    (* The flow gives its ring up. A ring that never grew is emptied
       and handed to the next new flow, so recycling ids allocates no
       rings; a ring that grew is dropped, so a burst's peak capacity
       is not pinned forever. *)
    Flow_table.remove t.rings flow;
    if Array.length r.rdata = ring_min then begin
      Array.fill r.rdata 0 ring_min t.filler.(0);
      r.head <- 0;
      r.len <- 0;
      t.spare := r :: !(t.spare)
    end;
    out

let ring_capacity t flow =
  match Flow_table.find_opt t.rings flow with
  | None -> 0
  | Some r -> Array.length r.rdata
