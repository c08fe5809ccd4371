type metrics = {
  m_events : Sfq_obs.Metrics.counter;
  m_pending : Sfq_obs.Metrics.gauge;
  m_now : Sfq_obs.Metrics.gauge;
}

type t = {
  (* The pending events: a binary min-heap on (keys, seqs) = (firing
     time, scheduling order) over parallel arrays, so a sift writes no
     pointer. [ids.(i)] is the table entry event [i] fires: a timer's
     entry as is, a one-shot entry as [lnot entry]. *)
  mutable keys : float array;
  mutable seqs : int array;
  mutable ids : int array;
  mutable size : int;
  (* The callback table. Entries [0, used) have been issued; a timer's
     entry is never freed, a one-shot entry is freed (reset to [nop],
     its index pushed on [free]) when it fires. *)
  mutable fns : (unit -> unit) array;
  mutable free : int array;
  mutable nfree : int;
  mutable used : int;
  (* [clock.(0)] is the current time, unboxed, so a pop advances it
     without allocating; [now] boxes it at most once per instant, into
     [boxed]. *)
  clock : float array;
  mutable boxed : float;
  mutable boxed_valid : bool;
  mutable next_seq : int;
  mutable fired : int;
  mutable metrics : metrics option;
}

type timer = { owner : t; entry : int }

let nop () = ()

let create () =
  {
    keys = Array.make 32 0.0;
    seqs = Array.make 32 0;
    ids = Array.make 32 0;
    size = 0;
    fns = Array.make 32 nop;
    free = Array.make 32 0;
    nfree = 0;
    used = 0;
    clock = [| 0.0 |];
    boxed = 0.0;
    boxed_valid = true;
    next_seq = 0;
    fired = 0;
    metrics = None;
  }

let no_timer = { owner = create (); entry = 0 }

let now t =
  if not t.boxed_valid then begin
    t.boxed <- t.clock.(0);
    t.boxed_valid <- true
  end;
  t.boxed

(* ------------------------------------------------------------------ *)
(* Callback table                                                       *)

let grow_table t =
  let cap = 2 * t.used in
  let fns = Array.make cap nop and free = Array.make cap 0 in
  Array.blit t.fns 0 fns 0 t.used;
  t.fns <- fns;
  t.free <- free

let new_entry t fn =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    let e = t.free.(t.nfree) in
    t.fns.(e) <- fn;
    e
  end
  else begin
    if t.used = Array.length t.fns then grow_table t;
    let e = t.used in
    t.used <- e + 1;
    t.fns.(e) <- fn;
    e
  end

let timer t fn = { owner = t; entry = new_entry t fn }

(* ------------------------------------------------------------------ *)
(* Heap                                                                 *)

let grow_heap t =
  let cap = 2 * t.size in
  let keys = Array.make cap 0.0 and seqs = Array.make cap 0 and ids = Array.make cap 0 in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.ids 0 ids 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.ids <- ids

(* Hole-based sifts: carry the displaced event in registers and shift
   entries over it, writing it back once at its final slot. Only a new
   event sifts up, and its sequence number is the largest queued, so it
   passes a parent only with a strictly earlier time. *)
let sift_up t i0 =
  let keys = t.keys and seqs = t.seqs and ids = t.ids in
  let k = keys.(i0) and s = seqs.(i0) and id = ids.(i0) in
  let i = ref i0 in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    if k < keys.(p) then begin
      keys.(!i) <- keys.(p);
      seqs.(!i) <- seqs.(p);
      ids.(!i) <- ids.(p);
      i := p
    end
    else moving := false
  done;
  keys.(!i) <- k;
  seqs.(!i) <- s;
  ids.(!i) <- id

let sift_down t i0 =
  let keys = t.keys and seqs = t.seqs and ids = t.ids and n = t.size in
  let k = keys.(i0) and s = seqs.(i0) and id = ids.(i0) in
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r >= n then l
        else
          let kl = keys.(l) and kr = keys.(r) in
          if kr < kl || (kr = kl && seqs.(r) < seqs.(l)) then r else l
      in
      let kc = keys.(c) in
      if kc < k || (kc = k && seqs.(c) < s) then begin
        keys.(!i) <- kc;
        seqs.(!i) <- seqs.(c);
        ids.(!i) <- ids.(c);
        i := c
      end
      else moving := false
    end
  done;
  keys.(!i) <- k;
  seqs.(!i) <- s;
  ids.(!i) <- id

(* [@inline], so a firing time computed by the caller lands in [keys]
   unboxed: without flambda an out-of-line float argument is boxed. *)
let[@inline] push t key id =
  if t.size = Array.length t.keys then grow_heap t;
  let i = t.size in
  t.keys.(i) <- key;
  t.seqs.(i) <- t.next_seq;
  t.ids.(i) <- id;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let past what at now =
  invalid_arg (Printf.sprintf "Sim.%s: at=%g is before now=%g" what at now)

let schedule t ~at fn =
  if at < t.clock.(0) then past "schedule" at t.clock.(0);
  push t at (lnot (new_entry t fn))

let schedule_after t ~delay fn =
  if delay < 0.0 then invalid_arg "Sim.schedule_after: negative delay";
  push t (t.clock.(0) +. delay) (lnot (new_entry t fn))

let check_owner t tm =
  if tm.owner != t then invalid_arg "Sim.arm: timer of another simulation"

let arm t tm ~at =
  check_owner t tm;
  if at < t.clock.(0) then past "arm" at t.clock.(0);
  push t at tm.entry

let arm_after t tm ~delay =
  check_owner t tm;
  if delay < 0.0 then invalid_arg "Sim.arm_after: negative delay";
  push t (t.clock.(0) +. delay) tm.entry

(* Pop the earliest event (the queue is not empty) and fire it. The root
   leaves the heap before its callback runs, so the callback may
   schedule or arm anything, itself included. A one-shot entry is freed
   first, so a fired closure is not kept alive. *)
let pop_fire t =
  let id = t.ids.(0) in
  t.clock.(0) <- t.keys.(0);
  t.boxed_valid <- false;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    t.keys.(0) <- t.keys.(n);
    t.seqs.(0) <- t.seqs.(n);
    t.ids.(0) <- t.ids.(n);
    sift_down t 0
  end;
  t.fired <- t.fired + 1;
  (match t.metrics with
  | None -> ()
  | Some m ->
    Sfq_obs.Metrics.incr m.m_events;
    Sfq_obs.Metrics.set_gauge m.m_pending (float_of_int t.size);
    Sfq_obs.Metrics.set_gauge m.m_now (now t));
  if id >= 0 then t.fns.(id) ()
  else begin
    let e = lnot id in
    let fn = t.fns.(e) in
    t.fns.(e) <- nop;
    t.free.(t.nfree) <- e;
    t.nfree <- t.nfree + 1;
    fn ()
  end

let run t ~until =
  while t.size > 0 && t.keys.(0) <= until do
    pop_fire t
  done;
  if until > t.clock.(0) then begin
    t.clock.(0) <- until;
    t.boxed_valid <- false
  end

let run_all t ?(limit = 100_000_000) () =
  let n = ref 0 in
  while !n < limit && t.size > 0 do
    pop_fire t;
    incr n
  done

let pending t = t.size
let events_fired t = t.fired

let set_metrics t m ~prefix =
  let open Sfq_obs in
  t.metrics <-
    Some
      {
        m_events = Metrics.counter m (prefix ^ ".events");
        m_pending = Metrics.gauge m (prefix ^ ".pending");
        m_now = Metrics.gauge m (prefix ^ ".now");
      }
