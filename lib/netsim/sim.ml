open Sfq_util

type metrics = {
  m_events : Sfq_obs.Metrics.counter;
  m_pending : Sfq_obs.Metrics.gauge;
  m_now : Sfq_obs.Metrics.gauge;
}

type t = {
  (* key = firing time, uid = scheduling order: equal-time events fire
     in scheduling order, and the monomorphic heap spares the netsim
     loop a closure call per comparison. The payload is the callback's
     handle in [callbacks], so a sift moves no pointer. *)
  queue : Fheap.t;
  callbacks : (unit -> unit) Slab.t;
  (* [clock.(0)] is the current time, unboxed, so a pop advances it
     without allocating; [now] boxes it at most once per instant, into
     [boxed]. [next.(0)] is scratch for [run]'s horizon test. *)
  clock : float array;
  next : float array;
  mutable boxed : float;
  mutable boxed_valid : bool;
  mutable next_seq : int;
  mutable fired : int;
  mutable metrics : metrics option;
}

let create () =
  {
    queue = Fheap.create ~capacity:64 ();
    callbacks = Slab.create ();
    clock = [| 0.0 |];
    next = [| 0.0 |];
    boxed = 0.0;
    boxed_valid = true;
    next_seq = 0;
    fired = 0;
    metrics = None;
  }

let now t =
  if not t.boxed_valid then begin
    t.boxed <- t.clock.(0);
    t.boxed_valid <- true
  end;
  t.boxed

let schedule t ~at fn =
  if at < t.clock.(0) then
    invalid_arg (Printf.sprintf "Sim.schedule: at=%g is before now=%g" at t.clock.(0));
  Fheap.add t.queue ~key:at ~tie:0.0 ~uid:t.next_seq (Slab.put t.callbacks fn);
  t.next_seq <- t.next_seq + 1

let schedule_after t ~delay fn =
  if delay < 0.0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(t.clock.(0) +. delay) fn

(* Pop the earliest event (the queue is not empty) and fire it. Reading
   the root through [min_key_into]/[min_elt_exn]/[remove_root] builds
   no [Some (key, fn)] and boxes no float. [Slab.take] clears the
   callback's slot, so a fired callback is not kept alive. *)
let pop_fire t =
  Fheap.min_key_into t.queue t.clock;
  t.boxed_valid <- false;
  let fn = Slab.take t.callbacks (Fheap.min_elt_exn t.queue) in
  Fheap.remove_root t.queue;
  t.fired <- t.fired + 1;
  (match t.metrics with
  | None -> ()
  | Some m ->
    Sfq_obs.Metrics.incr m.m_events;
    Sfq_obs.Metrics.set_gauge m.m_pending (float_of_int (Fheap.length t.queue));
    Sfq_obs.Metrics.set_gauge m.m_now (now t));
  fn ()

let run t ~until =
  let due = ref true in
  while !due && not (Fheap.is_empty t.queue) do
    Fheap.min_key_into t.queue t.next;
    if t.next.(0) <= until then pop_fire t else due := false
  done;
  if until > t.clock.(0) then begin
    t.clock.(0) <- until;
    t.boxed_valid <- false
  end

let run_all t ?(limit = 100_000_000) () =
  let n = ref 0 in
  while !n < limit && not (Fheap.is_empty t.queue) do
    pop_fire t;
    incr n
  done

let pending t = Fheap.length t.queue
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
