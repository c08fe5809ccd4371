open Sfq_base

(* Every array is indexed by the runtime's link-local flow slot, not by
   flow id, so it is sized by the flows the link carries at once. *)
type t = {
  weights : Weights.t;
  codec : Tag.t;
  scale : float;  (* Tag.scale codec, cached for the override branch *)
  mutable tag : int array;
  mutable sor : float array;  (* scale/rate, 0.0 = unseen since create/forget *)
  mutable last : int;  (* stored tag of the latest advance_* call *)
}

let create ?frac_bits weights =
  let codec = Tag.make ?frac_bits () in
  { weights; codec; scale = Tag.scale codec; tag = [||]; sor = [||]; last = 0 }

let codec t = t.codec

let grow t slot =
  let n = Array.length t.tag in
  let cap = Stdlib.max 16 (Stdlib.max (2 * n) (slot + 1)) in
  let tag = Array.make cap 0 in
  Array.blit t.tag 0 tag 0 n;
  t.tag <- tag;
  let sor = Array.make cap 0.0 in
  Array.blit t.sor 0 sor 0 n;
  t.sor <- sor

(* Cold path: first packet of a flow activation. The weight function
   is keyed by flow id; only the cache is per slot. [Weights.get] has
   checked the rate is positive; dividing here rather than calling
   [Tag.scale_over] keeps the quotient unboxed, so an activation
   allocates nothing. *)
let activate t slot pkt =
  t.sor.(slot) <- t.scale /. Weights.get t.weights pkt.Packet.flow

(* Unit-returning on purpose: callers re-read [t.sor.(slot)] locally.
   A float-returning helper would box its result on every call
   (ocamlopt only unboxes floats within a body), costing 2 minor words
   per enqueue — the alloc gate in test_pifo_equiv watches this. *)
let ensure t slot pkt =
  if slot >= Array.length t.tag then grow t slot;
  if t.sor.(slot) <= 0.0 then activate t slot pkt

(* The delta multiply+round is written out inline in both branches so
   no float crosses a function boundary on the steady path. *)
let delta t ~slot pkt =
  ensure t slot pkt;
  let sor = t.sor.(slot) in
  match pkt.Packet.rate with
  | None ->
    let x = Float.round (float_of_int pkt.Packet.len *. sor) in
    if x >= Tag.max_tag_f then Tag.max_tag
    else
      let i = int_of_float x in
      if i < 1 then 1 else i
  | Some r ->
    let x = Float.round (float_of_int pkt.Packet.len *. (t.scale /. r)) in
    if x >= Tag.max_tag_f then Tag.max_tag
    else
      let i = int_of_float x in
      if i < 1 then 1 else i

(* Fused per-packet updates for the common rank-program shapes. Each
   does the whole grow/activate/delta/read/max/add/store sequence in
   one body behind a single module-boundary call — the separate
   delta/get/set entry points above cost three calls and three bounds
   checks per packet, which was most of the rank-program dispatch
   premium. The stored tag lands in [t.last] so the
   caller can publish it (e.g. into [regs.aux]) without a tuple. *)

let advance t ~slot ~floor pkt =
  if slot >= Array.length t.tag then grow t slot;
  if t.sor.(slot) <= 0.0 then activate t slot pkt;
  let d =
    match pkt.Packet.rate with
    | None ->
      let x = Float.round (float_of_int pkt.Packet.len *. t.sor.(slot)) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
    | Some r ->
      let x = Float.round (float_of_int pkt.Packet.len *. (t.scale /. r)) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
  in
  let fprev = t.tag.(slot) in
  let stag = if floor > fprev then floor else fprev in
  let ftag = Tag.sat_add stag d in
  t.tag.(slot) <- ftag;
  t.last <- ftag;
  stag

let advance_reserved t ~slot ~floor pkt =
  if slot >= Array.length t.tag then grow t slot;
  if t.sor.(slot) <= 0.0 then activate t slot pkt;
  let d =
    let x = Float.round (float_of_int pkt.Packet.len *. t.sor.(slot)) in
    if x >= Tag.max_tag_f then Tag.max_tag
    else
      let i = int_of_float x in
      if i < 1 then 1 else i
  in
  let fprev = t.tag.(slot) in
  let stag = if floor > fprev then floor else fprev in
  let ftag = Tag.sat_add stag d in
  t.tag.(slot) <- ftag;
  t.last <- ftag;
  stag

let advance_eat t ~slot ~now pkt =
  if slot >= Array.length t.tag then grow t slot;
  if t.sor.(slot) <= 0.0 then activate t slot pkt;
  let d =
    match pkt.Packet.rate with
    | None ->
      let x = Float.round (float_of_int pkt.Packet.len *. t.sor.(slot)) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
    | Some r ->
      let x = Float.round (float_of_int pkt.Packet.len *. (t.scale /. r)) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
  in
  let nt =
    let x = Float.round (now *. t.scale) in
    if x >= Tag.max_tag_f then Tag.max_tag else if x <= 0.0 then 0 else int_of_float x
  in
  let fl = t.tag.(slot) in
  let eat = if nt > fl then nt else fl in
  let stamp = Tag.sat_add eat d in
  t.tag.(slot) <- stamp;
  t.last <- stamp;
  eat

let last t = t.last

let get t slot = if slot < Array.length t.tag then t.tag.(slot) else 0

let set t slot v =
  if slot >= Array.length t.tag then grow t slot;
  t.tag.(slot) <- v

let now_tag t now =
  let x = Float.round (now *. t.scale) in
  if x >= Tag.max_tag_f then Tag.max_tag else if x <= 0.0 then 0 else int_of_float x

let clear t = Array.fill t.tag 0 (Array.length t.tag) 0

let forget t slot =
  if slot >= 0 && slot < Array.length t.tag then begin
    t.tag.(slot) <- 0;
    t.sor.(slot) <- 0.0
  end
