open Sfq_base

(* SP-PIFO-style approximation of SFQ (Alcoz, Dietmüller, Vanbever,
   NSDI'20): ranks — here SFQ start tags, fixed-point — are mapped onto
   N strict-priority FIFO banks whose admission bounds adapt online.

   Admission of a packet with rank r scans banks from lowest priority
   (index n-1) to highest (index 0) and picks the first whose bound is
   <= r, then raises that bound to r ("push-up"). If even the top
   bank's bound exceeds r, the inversion is unavoidable: the packet
   enters the top bank and every bound is decreased by (bound_0 - r)
   ("push-down"), so subsequent small ranks regain headroom. Bounds
   stay sorted ascending by construction: push-up at index i only
   happens after indices > i were rejected (their bounds exceed r), and
   push-down shifts all bounds by a constant.

   Service is strict priority: pop the head of the first non-empty
   bank. Within a bank, FIFO. The result approximates rank order with
   O(number of banks) admission and O(1)-per-bank service, at the cost
   of rank inversions — including within a flow, which is why this
   scheduler is monitored by the *relaxed* fairness oracle (a measured
   budget) rather than the theorem monitors, and is excluded from the
   per-flow FIFO invariant checks.

   Tag bookkeeping is Programs.sfq's (eq. 4 with cached scale/rate); the
   virtual clock v is advanced monotonically to the rank in service so
   reactivating flows keep entering at a sane point even after
   inversions. Steady-state enqueue/dequeue allocate nothing. *)

type bank = {
  mutable branks : int array;  (* rank (start tag) of each queued packet *)
  mutable bftags : int array;  (* finish tag, for v bookkeeping *)
  mutable buids : int array;   (* global arrival number *)
  mutable bdata : Packet.t array;
  mutable bhead : int;
  mutable blen : int;
}

let bank_make () =
  { branks = [||]; bftags = [||]; buids = [||]; bdata = [||]; bhead = 0; blen = 0 }

let bank_grow b v =
  let cur = Array.length b.bdata in
  if cur = 0 then begin
    b.branks <- Array.make 8 0;
    b.bftags <- Array.make 8 0;
    b.buids <- Array.make 8 0;
    b.bdata <- Array.make 8 v
  end
  else if b.blen = cur then begin
    let cap = 2 * cur in
    let branks = Array.make cap 0
    and bftags = Array.make cap 0
    and buids = Array.make cap 0
    and bdata = Array.make cap v in
    let tail = cur - b.bhead in
    Array.blit b.branks b.bhead branks 0 tail;
    Array.blit b.bftags b.bhead bftags 0 tail;
    Array.blit b.buids b.bhead buids 0 tail;
    Array.blit b.bdata b.bhead bdata 0 tail;
    Array.blit b.branks 0 branks tail b.bhead;
    Array.blit b.bftags 0 bftags tail b.bhead;
    Array.blit b.buids 0 buids tail b.bhead;
    Array.blit b.bdata 0 bdata tail b.bhead;
    b.branks <- branks;
    b.bftags <- bftags;
    b.buids <- buids;
    b.bdata <- bdata;
    b.bhead <- 0
  end

let bank_push b ~rank ~ftag ~uid pkt =
  bank_grow b pkt;
  let i = (b.bhead + b.blen) land (Array.length b.bdata - 1) in
  b.branks.(i) <- rank;
  b.bftags.(i) <- ftag;
  b.buids.(i) <- uid;
  b.bdata.(i) <- pkt;
  b.blen <- b.blen + 1

(* Remove the k-th queued entry (0 = head) by shifting the tail left.
   Off the hot path: only eviction/closure use it. *)
let bank_remove_at b k =
  let mask = Array.length b.bdata - 1 in
  for j = k to b.blen - 2 do
    let dst = (b.bhead + j) land mask in
    let src = (b.bhead + j + 1) land mask in
    b.branks.(dst) <- b.branks.(src);
    b.bftags.(dst) <- b.bftags.(src);
    b.buids.(dst) <- b.buids.(src);
    b.bdata.(dst) <- b.bdata.(src)
  done;
  b.blen <- b.blen - 1

type t = {
  weights : Weights.t;
  codec : Tag.t;
  nbanks : int;
  bounds : int array;
  banks : bank array;
  mutable finish : int array;
  mutable sor : float array;
  mutable counts : int array;  (* per-flow backlog *)
  mutable v : int;
  mutable max_finish_served : int;
  mutable total : int;
  mutable next_uid : int;
  mutable high : int;
  mutable pushups : int;
  mutable pushdowns : int;
}

let create ?(banks = 8) ?frac_bits weights =
  if banks < 1 then invalid_arg "Sp_pifo.create: banks must be >= 1";
  {
    weights;
    codec = Tag.make ?frac_bits ();
    nbanks = banks;
    bounds = Array.make banks 0;
    banks = Array.init banks (fun _ -> bank_make ());
    finish = [||];
    sor = [||];
    counts = [||];
    v = 0;
    max_finish_served = 0;
    total = 0;
    next_uid = 0;
    high = 0;
    pushups = 0;
    pushdowns = 0;
  }

let grow t flow =
  let n = Array.length t.finish in
  let cap = Stdlib.max 16 (Stdlib.max (2 * n) (flow + 1)) in
  let finish = Array.make cap 0 in
  Array.blit t.finish 0 finish 0 n;
  t.finish <- finish;
  let sor = Array.make cap 0.0 in
  Array.blit t.sor 0 sor 0 n;
  t.sor <- sor;
  let counts = Array.make cap 0 in
  Array.blit t.counts 0 counts 0 n;
  t.counts <- counts

let activate t flow =
  let s = Tag.scale_over t.codec ~rate:(Weights.get t.weights flow) in
  t.sor.(flow) <- s;
  s

let enqueue t ~now:_ pkt =
  let flow = pkt.Packet.flow in
  if flow < 0 then invalid_arg "Sp_pifo.enqueue: flow id must be >= 0";
  if flow >= Array.length t.finish then grow t flow;
  let sor = t.sor.(flow) in
  let sor = if sor > 0.0 then sor else activate t flow in
  let d =
    match pkt.Packet.rate with
    | None ->
      let x = Float.round (float_of_int pkt.Packet.len *. sor) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
    | Some r ->
      let x = Float.round (float_of_int pkt.Packet.len *. (Tag.scale t.codec /. r)) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
  in
  let fprev = t.finish.(flow) in
  let rank = if t.v > fprev then t.v else fprev in
  let ftag =
    let s = rank + d in
    if s > Tag.max_tag then Tag.max_tag else s
  in
  t.finish.(flow) <- ftag;
  if ftag > t.high then t.high <- ftag;
  t.counts.(flow) <- t.counts.(flow) + 1;
  t.total <- t.total + 1;
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  (* scan lowest priority -> highest for the first bound <= rank *)
  let i = ref (t.nbanks - 1) in
  while !i >= 0 && t.bounds.(!i) > rank do
    decr i
  done;
  if !i >= 0 then begin
    (* push-up: the admitting bank's bound rises to the admitted rank *)
    t.bounds.(!i) <- rank;
    t.pushups <- t.pushups + 1;
    bank_push t.banks.(!i) ~rank ~ftag ~uid pkt
  end
  else begin
    (* unavoidable inversion: admit at top, relax every bound down *)
    let cost = t.bounds.(0) - rank in
    for j = 0 to t.nbanks - 1 do
      t.bounds.(j) <- t.bounds.(j) - cost
    done;
    t.pushdowns <- t.pushdowns + 1;
    bank_push t.banks.(0) ~rank ~ftag ~uid pkt
  end

let dequeue_exn t =
  if t.total = 0 then invalid_arg "Sp_pifo.dequeue_exn: empty queue";
  let i = ref 0 in
  while t.banks.(!i).blen = 0 do
    incr i
  done;
  let b = t.banks.(!i) in
  let j = b.bhead in
  let rank = b.branks.(j) and ftag = b.bftags.(j) in
  let pkt = b.bdata.(j) in
  b.bhead <- (j + 1) land (Array.length b.bdata - 1);
  b.blen <- b.blen - 1;
  t.total <- t.total - 1;
  t.counts.(pkt.Packet.flow) <- t.counts.(pkt.Packet.flow) - 1;
  (* monotone advance: inversions may serve an older (smaller) rank
     after a newer one; v never moves backwards *)
  if rank > t.v then t.v <- rank;
  if ftag > t.max_finish_served then t.max_finish_served <- ftag;
  pkt

let dequeue t ~now:_ =
  if t.total = 0 then begin
    (* idle poll, as in SFQ: a reactivating flow must not lag v *)
    if t.max_finish_served > t.v then t.v <- t.max_finish_served;
    None
  end
  else Some (dequeue_exn t)

let peek t =
  if t.total = 0 then None
  else begin
    let i = ref 0 in
    while t.banks.(!i).blen = 0 do
      incr i
    done;
    let b = t.banks.(!i) in
    Some b.bdata.(b.bhead)
  end

let size t = t.total
let is_empty t = t.total = 0

let backlog t flow =
  if flow >= 0 && flow < Array.length t.counts then t.counts.(flow) else 0

let vtag t = t.v
let vtime t = Tag.decode t.codec t.v
let codec t = t.codec
let banks t = t.nbanks
let bounds t = Array.copy t.bounds
let pushups t = t.pushups
let pushdowns t = t.pushdowns
let saturated t = Tag.is_saturated t.high
let headroom t = Tag.headroom t.codec t.high

(* Find flow's oldest (or newest) queued entry across all banks; return
   (bank index, position) or (-1, _). O(total queued) — eviction path. *)
let find_extreme t ~newest flow =
  let bi = ref (-1) and bk = ref 0 and best_uid = ref 0 in
  for i = 0 to t.nbanks - 1 do
    let b = t.banks.(i) in
    let mask = if Array.length b.bdata = 0 then 0 else Array.length b.bdata - 1 in
    for k = 0 to b.blen - 1 do
      let s = (b.bhead + k) land mask in
      if b.bdata.(s).Packet.flow = flow then begin
        let u = b.buids.(s) in
        let take =
          !bi < 0 || if newest then u > !best_uid else u < !best_uid
        in
        if take then begin
          bi := i;
          bk := k;
          best_uid := u
        end
      end
    done
  done;
  (!bi, !bk)

let evict t victim flow =
  if flow < 0 || flow >= Array.length t.counts || t.counts.(flow) = 0 then None
  else begin
    let newest = match (victim : Sched.victim) with Sched.Oldest -> false | Sched.Newest -> true in
    let bi, bk = find_extreme t ~newest flow in
    if bi < 0 then None
    else begin
      let b = t.banks.(bi) in
      let s = (b.bhead + bk) land (Array.length b.bdata - 1) in
      let pkt = b.bdata.(s) in
      bank_remove_at b bk;
      t.total <- t.total - 1;
      t.counts.(flow) <- t.counts.(flow) - 1;
      (* finish tag untouched: dropped virtual service stays charged *)
      Some pkt
    end
  end

let close_flow t flow =
  if flow < 0 || flow >= Array.length t.counts || t.counts.(flow) = 0 then begin
    if flow >= 0 && flow < Array.length t.finish then begin
      t.finish.(flow) <- 0;
      t.sor.(flow) <- 0.0
    end;
    []
  end
  else begin
    (* collect (uid, pkt) across banks, then compact each bank in place *)
    let acc = ref [] in
    for i = 0 to t.nbanks - 1 do
      let b = t.banks.(i) in
      let mask = if Array.length b.bdata = 0 then 0 else Array.length b.bdata - 1 in
      let k = ref 0 in
      while !k < b.blen do
        let s = (b.bhead + !k) land mask in
        if b.bdata.(s).Packet.flow = flow then begin
          acc := (b.buids.(s), b.bdata.(s)) :: !acc;
          bank_remove_at b !k
        end
        else incr k
      done
    done;
    let n = List.length !acc in
    t.total <- t.total - n;
    t.counts.(flow) <- 0;
    t.finish.(flow) <- 0;
    t.sor.(flow) <- 0.0;
    (* oldest first, as the other disciplines' close_flow returns *)
    List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !acc)
  end

let sched t =
  {
    Sched.name = "sp-pifo";
    enqueue = (fun ~now pkt -> enqueue t ~now pkt);
    dequeue = (fun ~now -> dequeue t ~now);
    peek = (fun () -> peek t);
    size = (fun () -> size t);
    backlog = (fun flow -> backlog t flow);
    evict = (fun ~now:_ victim flow -> evict t victim flow);
    close_flow = (fun ~now:_ flow -> close_flow t flow);
  }
