(* Fixed-point codec for virtual time.

   A tag is a scaled int: [round (v * 2^frac_bits)]. With the default
   20 fractional bits the quantum is ~1e-6 virtual-time units — far
   below the per-packet tag increment l/r of every workload in this
   repo — and an int63 leaves ~2^41 whole units of range before the
   saturation rail. All tag arithmetic in the int-rank schedulers is then
   integer adds and compares; the only float operations left on the
   hot path are one multiply + round per packet (length times the
   cached scale/rate), done inline by the schedulers themselves so no
   float crosses a non-inlined function boundary. *)

type t = { frac : int; scale : float; inv_scale : float }

(* Saturation rail: half of max_int, so that the sum of two in-range
   tags — the largest intermediate the schedulers form — cannot wrap
   (max_tag + max_tag = max_int - 1). *)
let max_tag = max_int / 2
let max_tag_f = float_of_int max_tag

let make ?(frac_bits = 20) () =
  if frac_bits < 0 || frac_bits > 52 then
    invalid_arg "Tag.make: frac_bits must be in [0, 52]";
  {
    frac = frac_bits;
    scale = Float.ldexp 1.0 frac_bits;
    inv_scale = Float.ldexp 1.0 (-frac_bits);
  }

let frac_bits c = c.frac
let scale c = c.scale

let encode c f =
  if f <= 0.0 then 0
  else
    let x = Float.round (f *. c.scale) in
    if x >= max_tag_f then max_tag else int_of_float x

let decode c i = float_of_int i *. c.inv_scale

let scale_over c ~rate =
  if rate <= 0.0 then invalid_arg "Tag.scale_over: rate must be positive";
  c.scale /. rate

let delta ~sor ~len =
  let x = Float.round (float_of_int len *. sor) in
  if x >= max_tag_f then max_tag
  else
    let i = int_of_float x in
    if i < 1 then 1 else i

let sat_add a b =
  let s = a + b in
  if s > max_tag then max_tag else s

let is_saturated tag = tag >= max_tag

let headroom c tag =
  let left = max_tag - tag in
  if left <= 0 then 0.0 else float_of_int left *. c.inv_scale

(* Order-preserving int encoding of a float tie value.

   For non-negative doubles the IEEE-754 bit pattern is monotone in the
   value; shifting the 63 significant bits right by one makes the image
   fit a 63-bit OCaml int, and negating for negative inputs restores
   the global order. The shift collapses doubles that differ only in
   the lowest mantissa bit (1 ulp) onto the same int — such "ties that
   weren't quite ties" then fall through to the uid, i.e. arrival
   order. Every tie value this repo uses (flow weights and their
   negations) is either exactly equal or separated by far more than an
   ulp, so the collapse is unobservable in practice; it is the
   documented caveat for exotic callers. *)
let tie_encode f =
  if f = 0.0 then 0
  else if f <> f then invalid_arg "Tag.tie_encode: NaN tie"
  else
    let m =
      Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float (Float.abs f)) 1)
    in
    if f > 0.0 then m else -m
