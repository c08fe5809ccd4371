open Sfq_base

(* Per-flow state. The packets injected but not yet delivered sit in a
   ring, oldest first: [seqs.(i)] with [eats.(i)], its EAT at the
   first server, for [len] slots from [head] (power-of-two capacity).
   Floats live in float arrays, so recording and checking a packet
   allocates nothing once the ring has grown to the flow's backlog. *)
type flow_state = {
  mutable seqs : int array;
  mutable eats : float array;
  mutable head : int;
  mutable len : int;
  chain : float array;  (* [| EAT of the previous packet (eq. 37); its length |] *)
  mutable seen : bool;
}

type t = {
  name : string;
  rate : Packet.flow -> float;
  betas : Packet.flow -> float list;
  taus : Packet.flow -> float list;
  flows : (Packet.flow, flow_state) Hashtbl.t;
  mutable violation : Monitor.violation option;
  mutable checked : int;
  mutable lost : int;
  sums : float array;  (* [| min slack; Σβ; Στ |] *)
}

let create ~name ~rate ~betas ~taus () =
  {
    name;
    rate;
    betas;
    taus;
    flows = Hashtbl.create 16;
    violation = None;
    checked = 0;
    lost = 0;
    sums = [| infinity; 0.0; 0.0 |];
  }

let ring_init = 16

let state t flow =
  match Hashtbl.find t.flows flow with
  | s -> s
  | exception Not_found ->
    let s =
      {
        seqs = Array.make ring_init 0;
        eats = Array.make ring_init 0.0;
        head = 0;
        len = 0;
        chain = [| 0.0; 0.0 |];
        seen = false;
      }
    in
    Hashtbl.replace t.flows flow s;
    s

let grow s =
  let cap = Array.length s.seqs in
  let seqs = Array.make (2 * cap) 0 and eats = Array.make (2 * cap) 0.0 in
  (* Unwrap: the oldest entry moves to index 0. *)
  for k = 0 to s.len - 1 do
    let i = (s.head + k) land (cap - 1) in
    seqs.(k) <- s.seqs.(i);
    eats.(k) <- s.eats.(i)
  done;
  s.seqs <- seqs;
  s.eats <- eats;
  s.head <- 0

let violate t ~at what =
  match t.violation with
  | None -> t.violation <- Some { Monitor.monitor = t.name; at; what }
  | Some _ -> ()

(* Same relative tolerance as the single-server monitors. *)
let slack b = 1e-9 *. Float.max 1.0 (Float.abs b)

let inject t (p : Packet.t) ~at =
  let s = state t p.Packet.flow in
  let r =
    match p.Packet.rate with Some r -> r | None -> t.rate p.Packet.flow
  in
  let eat = if s.seen then Float.max at (s.chain.(0) +. (s.chain.(1) /. r)) else at in
  s.chain.(0) <- eat;
  s.chain.(1) <- float_of_int p.Packet.len;
  s.seen <- true;
  if s.len = Array.length s.seqs then grow s;
  let j = (s.head + s.len) land (Array.length s.seqs - 1) in
  s.seqs.(j) <- p.Packet.seq;
  s.eats.(j) <- eat;
  s.len <- s.len + 1

(* Per-flow FIFO delivery: pending packets with smaller seq than the
   one delivered were lost along the route (buffer drop / closure
   flush) — skip them, they have no delivery to bound. Returns the ring
   slot of the delivered packet, or -1 after reporting a violation. *)
let rec take t s (p : Packet.t) ~at =
  if s.len = 0 then begin
    violate t ~at
      (Printf.sprintf "flow %d: delivery of seq %d was never injected" p.Packet.flow
         p.Packet.seq);
    -1
  end
  else begin
    let i = s.head in
    let seq = s.seqs.(i) in
    if seq > p.Packet.seq then begin
      violate t ~at
        (Printf.sprintf "flow %d: delivery of seq %d out of order (next pending %d)"
           p.Packet.flow p.Packet.seq seq);
      -1
    end
    else begin
      s.head <- (i + 1) land (Array.length s.seqs - 1);
      s.len <- s.len - 1;
      if seq = p.Packet.seq then i
      else begin
        t.lost <- t.lost + 1;
        take t s p ~at
      end
    end
  end

(* [sums.(k) <- Σ l], folded left from 0.0 as
   {!Sfq_core.Bounds.e2e_departure} folds it, so the bound is
   bit-identical to that function's. *)
let rec sum_into sums k = function
  | [] -> ()
  | x :: rest ->
    sums.(k) <- sums.(k) +. x;
    sum_into sums k rest

let deliver t (p : Packet.t) ~at =
  let s = state t p.Packet.flow in
  let i = take t s p ~at in
  if i >= 0 then begin
    let eat = s.eats.(i) and sums = t.sums in
    sums.(1) <- 0.0;
    sum_into sums 1 (t.betas p.Packet.flow);
    sums.(2) <- 0.0;
    sum_into sums 2 (t.taus p.Packet.flow);
    (* [Bounds.e2e_departure ~eat_first:eat ~betas ~taus] *)
    let bound = eat +. sums.(1) +. sums.(2) in
    t.checked <- t.checked + 1;
    sums.(0) <- Float.min sums.(0) (bound -. at);
    if at > bound +. slack bound then
      violate t ~at
        (Printf.sprintf
           "flow %d seq %d: delivered at %.9g > composed bound %.9g (EAT %.9g)"
           p.Packet.flow p.Packet.seq at bound eat)
  end

let finalize t ~until:_ =
  (* Packets still pending were dropped en route; they have no delivery
     time to check, only the loss count to report. *)
  Hashtbl.iter (fun _ s -> t.lost <- t.lost + s.len) t.flows

let checked t = t.checked
let lost t = t.lost
let min_slack t = t.sums.(0)
let result t = t.violation
