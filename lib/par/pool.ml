(* Domain pool with caller participation. One mutex/condvar pair
   synchronizes job hand-off and the completion barrier; the task loop
   itself is lock-free (one Atomic.fetch_and_add per chunk). Results
   are written into per-index slots, so reduction order is the task
   order by construction and the output cannot depend on domain count
   or interleaving. *)

type job = unit -> unit

type t = {
  n_domains : int;
  mutex : Mutex.t;
  wake : Condition.t;  (* workers: a new epoch or shutdown *)
  barrier : Condition.t;  (* submitter: all workers finished the epoch *)
  mutable job : job option;
  mutable epoch : int;
  mutable active : int;  (* workers still inside the current epoch's job *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* True while the current domain is executing pool tasks — set in
   workers for their whole life and in the submitter around its
   participation — so nested submission is detected across pools. *)
let inside_task : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let worker_main t =
  Domain.DLS.get inside_task := true;
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.closed) && t.epoch = !seen do
      Condition.wait t.wake t.mutex
    done;
    if t.closed then Mutex.unlock t.mutex
    else begin
      seen := t.epoch;
      let job = t.job in
      Mutex.unlock t.mutex;
      (match job with Some f -> f () | None -> ());
      Mutex.lock t.mutex;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.signal t.barrier;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      n_domains = domains;
      mutex = Mutex.create ();
      wake = Condition.create ();
      barrier = Condition.create ();
      job = None;
      epoch = 0;
      active = 0;
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_main t));
  t

let domains t = t.n_domains

let shutdown t =
  let ws =
    Mutex.lock t.mutex;
    let ws = t.workers in
    t.closed <- true;
    t.workers <- [];
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    ws
  in
  List.iter Domain.join ws

(* Keep the smallest-index failure: with no cancellation every task
   runs, so the winning entry is the global minimum — deterministic. *)
let record_error slot entry =
  let idx, _, _ = entry in
  let rec go () =
    match Atomic.get slot with
    | Some (j, _, _) when j <= idx -> ()
    | cur -> if not (Atomic.compare_and_set slot cur (Some entry)) then go ()
  in
  go ()

let map ?(chunk = 1) t ~f tasks =
  if !(Domain.DLS.get inside_task) then
    invalid_arg "Pool.map: nested submit from inside a pool task";
  if t.closed then invalid_arg "Pool.map: pool is shut down";
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let chunk = max 1 chunk in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let job () =
      let rec go () =
        let lo = Atomic.fetch_and_add next chunk in
        if lo < n then begin
          let hi = min n (lo + chunk) in
          for i = lo to hi - 1 do
            match f i tasks.(i) with
            | v -> results.(i) <- Some v
            | exception e ->
              record_error error (i, e, Printexc.get_raw_backtrace ())
          done;
          go ()
        end
      in
      go ()
    in
    Mutex.lock t.mutex;
    t.job <- Some job;
    t.epoch <- t.epoch + 1;
    t.active <- List.length t.workers;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    (* the submitting domain is a worker too *)
    let flag = Domain.DLS.get inside_task in
    flag := true;
    Fun.protect ~finally:(fun () -> flag := false) job;
    Mutex.lock t.mutex;
    while t.active > 0 do
      Condition.wait t.barrier t.mutex
    done;
    t.job <- None;
    Mutex.unlock t.mutex;
    match Atomic.get error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map (function Some v -> v | None -> assert false) results
  end

(* One domain needs no pool: run in the caller, which may itself be a
   pool task. Leaving [inside_task] untouched matters there — the pool
   path clears it on exit, which would unmark the enclosing task. *)
let run ?chunk ~domains ~f tasks =
  if domains = 1 then Array.mapi f tasks
  else
    let t = create ~domains in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> map ?chunk t ~f tasks)

let default_domains () = Domain.recommended_domain_count ()
