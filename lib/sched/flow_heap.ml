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

(* [fill] initialises the new data slots (the store's filler, see
   below), so a fresh slot does not keep a packet alive. *)
let ring_grow r fill =
  let cur = Array.length r.rdata in
  if cur = 0 then begin
    r.rkeys <- Array.make ring_min 0.0;
    r.raux <- Array.make ring_min 0.0;
    r.rties <- Array.make ring_min 0.0;
    r.ruids <- Array.make ring_min 0;
    r.rdata <- Array.make ring_min fill
  end
  else if r.len = cur then begin
    let cap = 2 * cur in
    let rkeys = Array.make cap 0.0
    and raux = Array.make cap 0.0
    and rties = Array.make cap 0.0
    and ruids = Array.make cap 0
    and rdata = Array.make cap fill in
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

let ring_push r ~key ~aux ~tie ~uid ~fill v =
  ring_grow r fill;
  let i = (r.head + r.len) land (Array.length r.rdata - 1) in
  r.rkeys.(i) <- key;
  r.raux.(i) <- aux;
  r.rties.(i) <- tie;
  r.ruids.(i) <- uid;
  r.rdata.(i) <- v;
  r.len <- r.len + 1

(* Rings no flow holds, handed to the next flow that needs one: a stack
   in [stack.(0 .. n - 1)], so a hand-back allocates nothing. A ring
   here is empty and cleared, with 8 slots or none (see [release]). *)
type 'a pool = { mutable stack : 'a ring array; mutable n : int }

let take p =
  if p.n = 0 then ring_make ()
  else begin
    p.n <- p.n - 1;
    p.stack.(p.n)
  end

let give p r =
  if p.n = Array.length p.stack then begin
    let stack = Array.make (Stdlib.max 16 (2 * p.n)) r in
    Array.blit p.stack 0 stack 0 p.n;
    p.stack <- stack
  end;
  p.stack.(p.n) <- r;
  p.n <- p.n + 1

type 'a popped = { key : float; aux : float; uid : int; flow : Packet.flow; value : 'a }

type 'a t = {
  heap : Fheap.t;  (* one entry per backlogged flow: its head; payload = flow *)
  rings : 'a ring Flow_table.t;  (* backlogged flows, and idle grown rings *)
  pool : 'a pool;
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
  let pool = { stack = [||]; n = 0 } in
  {
    heap = Fheap.create ?capacity ();
    rings = Flow_table.create ~default:(fun _ -> take pool);
    pool;
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
  ring_push r ~key ~aux ~tie ~uid ~fill:t.filler.(0) v;
  (* Only an idle flow's arrival enters the heap: a backlogged flow is
     already represented by its head packet, and this library's
     disciplines assign non-decreasing tags within a flow, so the head
     stays the flow's minimum. *)
  if was_empty then Fheap.add t.heap ~key ~tie ~uid flow

(* Take the flow's ring away and put it in the pool; the caller has
   cleared its data slots. A ring that grew past 8 slots goes back as
   an empty shell, so a burst's peak capacity is not pinned. *)
let release t flow r =
  Flow_table.remove t.rings flow;
  if Array.length r.rdata > ring_min then begin
    r.rkeys <- [||];
    r.raux <- [||];
    r.rties <- [||];
    r.ruids <- [||];
    r.rdata <- [||]
  end;
  r.head <- 0;
  r.len <- 0;
  give t.pool r

(* The pop or eviction that empties a flow's queue hands an 8-slot ring
   back, so an idle flow holds none. A ring that grew stays with its
   flow until [flush_flow]: a flow that drains and bursts again (a
   deep backlog draining now and then) does not regrow it each time. *)
let drained t flow r = if Array.length r.rdata = ring_min then release t flow r

let pop t =
  if Fheap.is_empty t.heap then None
  else begin
    let flow = Fheap.min_elt_exn t.heap in
    let r = Flow_table.find t.rings flow in
    let i = r.head in
    let key = r.rkeys.(i) and aux = r.raux.(i) and uid = r.ruids.(i) and v = r.rdata.(i) in
    r.rdata.(i) <- t.filler.(0);
    r.head <- (i + 1) land (Array.length r.rdata - 1);
    r.len <- r.len - 1;
    t.total <- t.total - 1;
    (* Promote the successor: it becomes the flow's representative, in
       the popped head's place and in one sift (uids are unique). *)
    if r.len > 0 then begin
      let j = r.head in
      Fheap.replace_root t.heap ~key:r.rkeys.(j) ~tie:r.rties.(j) ~uid:r.ruids.(j) flow
    end
    else begin
      Fheap.remove_root t.heap;
      drained t flow r
    end;
    Some { key; aux; uid; flow; value = v }
  end

let peek t =
  match Fheap.min t.heap with
  | None -> None
  | Some (key, flow) ->
    let r = Flow_table.find t.rings flow in
    let i = r.head in
    Some { key; aux = r.raux.(i); uid = r.ruids.(i); flow; value = r.rdata.(i) }

let size t = t.total
let is_empty t = t.total = 0
let backlog t flow = if Flow_table.mem t.rings flow then (Flow_table.find t.rings flow).len else 0
let active_flows t = Fheap.length t.heap

(* ------------------------------------------------------------------ *)
(* Eviction and flow teardown. All off the per-packet hot path: the
   O(F) heap scan only runs when a buffer policy or a flow closure
   actually removes something. *)

(* A flow has one heap entry. When it is the root — a drop-front
   eviction of the next flow to serve — remove_root takes it without
   the scan; it moves the same element into the hole as the scan's
   delete at 0 would, so the layout, and every order, is the same. *)
let heap_remove t flow =
  if Fheap.min_elt_exn t.heap = flow then Fheap.remove_root t.heap
  else ignore (Fheap.remove_matching t.heap ~pred:(fun f -> f = flow))

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
    end
    else drained t flow r;
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
    if r.len = 0 then begin
      heap_remove t flow;
      drained t flow r
    end;
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
      heap_remove t flow;
      Array.fill r.rdata 0 (Array.length r.rdata) t.filler.(0)
    end;
    release t flow r;
    out

let ring_capacity t flow =
  match Flow_table.find_opt t.rings flow with
  | None -> 0
  | Some r -> Array.length r.rdata
