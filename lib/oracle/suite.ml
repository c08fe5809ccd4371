open Sfq_base
open Sfq_sched
open Sfq_core

let weights_of (w : Workload.t) = Weights.of_list ~default:1.0 w.Workload.weights

(* ------------------------------------------------------------------ *)
(* Frozen pools (fixed seeds: same traces everywhere)                   *)

(* Built on first use, not at module initialisation, which every
   process linking this library would pay for. Domain-safe where a
   [Lazy.t] is not: racing first callers may each build the pool (the
   same traces), and all of them return the one published first. *)
let frozen build =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some pool -> pool
    | None ->
      let pool = build () in
      if Atomic.compare_and_set cell None (Some pool) then pool
      else Option.get (Atomic.get cell)

let theorem_pool =
  frozen (fun () -> Workload.deterministic_pool ~rate_overrides:false ~seed:0x5f9 ~n:120 ())

let override_pool =
  frozen (fun () -> Workload.deterministic_pool ~rate_overrides:true ~seed:0xacd ~n:120 ())

let reweight_pool =
  frozen (fun () ->
      Workload.deterministic_pool ~reweights:true ~rate_overrides:false ~seed:0xbee
        ~n:60 ())

let stress_pool =
  frozen (fun () ->
      Workload.deterministic_pool ~rate_overrides:false ~churn:true ~overload:true
        ~rate_fluct:true ~seed:0xd1e ~n:40 ())

(* ------------------------------------------------------------------ *)
(* Monitor sets                                                         *)

let structural () = [ Monitor.work_conserving (); Monitor.flow_fifo () ]

(* Structural invariants + the packet-conservation law, probing the
   given scheduler's own backlog count. The only set sound under
   drops, closures and server-rate fluctuation: the theorem monitors
   presuppose a loss-free constant-rate server. *)
let stress_set (s : Sched.t) =
  structural () @ [ Monitor.conservation ~size:s.Sched.size () ]

(* Full SFQ set: Theorems 1, 2 and 4 plus the structural invariants.
   Sound only when packets carry no rate overrides (Theorems 1 and 2
   are stated against the reserved rates). *)
let sfq_set ?(allow_idle_reset = false) (w : Workload.t) ~vtime =
  let rate = Workload.rate_table w and lmax = Workload.lmax_table w in
  let flows = Workload.flows w and capacity = w.Workload.capacity in
  structural ()
  @ [
      Monitor.tag_monotone ~name:"tag_monotone" ~allow_idle_reset ~vtime ();
      Monitor.fairness ~rate ();
      Monitor.sfq_delay ~flows ~lmax ~rate ~capacity ();
      Monitor.sfq_throughput ~flows ~lmax ~rate ~capacity ();
    ]

let scfq_set (w : Workload.t) ~vtime =
  let rate = Workload.rate_table w and lmax = Workload.lmax_table w in
  let flows = Workload.flows w and capacity = w.Workload.capacity in
  structural ()
  @ [
      Monitor.tag_monotone ~name:"tag_monotone" ~vtime ();
      Monitor.fairness ~bound:Bounds.h_scfq ~rate ();
      Monitor.scfq_delay ~flows ~lmax ~rate ~capacity ();
    ]

(* Theorem 4 survives per-packet rate overrides (generalized SFQ, §2.3)
   but Theorems 1/2 do not apply to override traffic. *)
let sfq_override_set (w : Workload.t) ~vtime =
  let rate = Workload.rate_table w and lmax = Workload.lmax_table w in
  let flows = Workload.flows w and capacity = w.Workload.capacity in
  structural ()
  @ [
      Monitor.tag_monotone ~name:"tag_monotone" ~allow_idle_reset:false ~vtime ();
      Monitor.sfq_delay ~flows ~lmax ~rate ~capacity ();
    ]

(* ------------------------------------------------------------------ *)
(* Cells. Every driver thunk builds its scheduler and monitors at
   execution time: all mutable state is task-local (see Run.sweep). *)

let cells ~what ~driver pool =
  List.mapi
    (fun i w ->
      {
        Run.label = Printf.sprintf "%s#%d" what i;
        workload = w;
        driver = (fun () -> driver w);
      })
    pool

let sfq_driver w =
  let s = Sfq.create (weights_of w) in
  {
    Run.sched = Sfq.sched s;
    monitors = sfq_set w ~vtime:(fun () -> Sfq.vtime s);
    on_reweight = None;
  }

let sfq_cells ?(pool = theorem_pool ()) () = cells ~what:"sfq" ~driver:sfq_driver pool

let scfq_cells ?(pool = theorem_pool ()) () =
  cells ~what:"scfq" pool ~driver:(fun w ->
      let s = Scfq.create (weights_of w) in
      {
        Run.sched = Scfq.sched s;
        monitors = scfq_set w ~vtime:(fun () -> Scfq.vtime s);
        on_reweight = None;
      })

let sfq_override_cells ?(pool = override_pool ()) () =
  cells ~what:"sfq+overrides" pool ~driver:(fun w ->
      let s = Sfq.create (weights_of w) in
      {
        Run.sched = Sfq.sched s;
        monitors = sfq_override_set w ~vtime:(fun () -> Sfq.vtime s);
        on_reweight = None;
      })

(* Factories, not schedulers: the Sched.t is only built inside the
   driver thunk, on the domain that runs the cell. *)
let discipline_factories (w : Workload.t) =
  let cap = w.Workload.capacity in
  let specs () =
    List.map
      (fun (f, r) -> (f, { Delay_edd.rate = r; deadline = 1.0; max_len = 1000 }))
      w.Workload.weights
  in
  [
    ("sfq", fun () -> Sfq.sched (Sfq.create (weights_of w)));
    ("scfq", fun () -> Scfq.sched (Scfq.create (weights_of w)));
    ("fqs", fun () -> Fqs.sched (Fqs.create ~capacity:cap (weights_of w)));
    ("vc", fun () -> Virtual_clock.sched (Virtual_clock.create (weights_of w)));
    ("wfq-fluid", fun () -> Wfq.sched (Wfq.create ~capacity:cap (weights_of w)));
    ("wfq-real", fun () -> Wfq.sched (Wfq.create ~capacity:cap ~clock:`Real (weights_of w)));
    ("wf2q", fun () -> Wf2q.sched (Wf2q.create ~capacity:cap (weights_of w)));
    ("drr", fun () -> Drr.sched (Drr.create (weights_of w)));
    ("edd", fun () -> Delay_edd.sched (Delay_edd.create (specs ())));
  ]

let structural_cells ?(pool = override_pool ()) () =
  List.concat
    (List.mapi
       (fun i w ->
         List.map
           (fun (name, make) ->
             {
               Run.label = Printf.sprintf "%s#%d" name i;
               workload = w;
               driver =
                 (fun () ->
                   { Run.sched = make (); monitors = structural (); on_reweight = None });
             })
           (discipline_factories w))
       pool)

let dyn_weights (w : Workload.t) =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (f, r) -> Hashtbl.replace tbl f r) w.Workload.weights;
  let wt =
    Weights.of_fun (fun f ->
        match Hashtbl.find_opt tbl f with Some r -> r | None -> 1.0)
  in
  (wt, fun ~flow ~rate -> Hashtbl.replace tbl flow rate)

let reweight_cells ?(pool = reweight_pool ()) () =
  List.concat
    (List.mapi
       (fun i w ->
         let cell name mk =
           {
             Run.label = Printf.sprintf "%s+reweight#%d" name i;
             workload = w;
             driver = mk;
           }
         in
         [
           cell "sfq" (fun () ->
               let wt, f = dyn_weights w in
               {
                 Run.sched = Sfq.sched (Sfq.create wt);
                 monitors = structural ();
                 on_reweight = Some f;
               });
           cell "scfq" (fun () ->
               let wt, f = dyn_weights w in
               {
                 Run.sched = Scfq.sched (Scfq.create wt);
                 monitors = structural ();
                 on_reweight = Some f;
               });
         ])
       pool)

let stress_cells ?(pool = stress_pool ()) () =
  List.concat
    (List.mapi
       (fun i w ->
         List.map
           (fun (name, make) ->
             {
               Run.label = Printf.sprintf "%s+stress#%d" name i;
               workload = w;
               driver =
                 (fun () ->
                   let s = make () in
                   { Run.sched = s; monitors = stress_set s; on_reweight = None });
             })
           (discipline_factories w))
       pool)

(* SP-PIFO approximates rank order by design, so it gets the
   structural/conservation checks plus the *relaxed* fairness oracle,
   which measures a budget and never fails. *)
let sp_pifo_cells ?(pool = theorem_pool ()) () =
  cells ~what:"sp-pifo" pool ~driver:(fun w ->
      let s = Sfq_pifo.Sp_pifo.create (weights_of w) in
      let sched = Sfq_pifo.Sp_pifo.sched s in
      let budget, _ = Monitor.fairness_measured ~rate:(Workload.rate_of w) () in
      {
        Run.sched = sched;
        monitors =
          [
            Monitor.work_conserving ();
            Monitor.conservation ~size:sched.Sched.size ();
            budget;
          ];
        on_reweight = None;
      })

(* Rank-program cells: every Programs port through the Pifo_sched
   runtime faces the same monitor set as its float original over a
   90-trace slice of the theorem pool — pifo-sfq/pifo-scfq keep the
   full theorem sets (equivalence with the float original is the
   point), the clock- and GPS-driven ports carry the structural
   invariants like their float originals in [structural_cells]. *)
let pifo_cells ?(pool = theorem_pool ()) () =
  let open Sfq_pifo in
  let pool = List.filteri (fun i _ -> i < 90) pool in
  let specs (w : Workload.t) =
    List.map
      (fun (f, r) -> (f, { Delay_edd.rate = r; deadline = 1.0; max_len = 1000 }))
      w.Workload.weights
  in
  let structural_cell what mk =
    cells ~what pool ~driver:(fun w ->
        {
          Run.sched = Pifo_sched.sched (Pifo_sched.create (mk w));
          monitors = structural ();
          on_reweight = None;
        })
  in
  cells ~what:"pifo-sfq" pool ~driver:(fun w ->
      let s = Pifo_sched.create (Programs.sfq (weights_of w)) in
      {
        Run.sched = Pifo_sched.sched s;
        monitors = sfq_set w ~vtime:(fun () -> Pifo_sched.vtime s);
        on_reweight = None;
      })
  @ cells ~what:"pifo-scfq" pool ~driver:(fun w ->
        let s = Pifo_sched.create (Programs.scfq (weights_of w)) in
        {
          Run.sched = Pifo_sched.sched s;
          monitors = scfq_set w ~vtime:(fun () -> Pifo_sched.vtime s);
          on_reweight = None;
        })
  @ structural_cell "pifo-vc" (fun w -> Programs.virtual_clock (weights_of w))
  @ structural_cell "pifo-edd" (fun w -> Programs.delay_edd (specs w))
  @ structural_cell "pifo-fqs" (fun w ->
        Programs.fqs ~capacity:w.Workload.capacity (weights_of w))
  @ structural_cell "pifo-wf2q" (fun w ->
        Programs.wf2q ~capacity:w.Workload.capacity (weights_of w))

let all_cells () =
  sfq_cells () @ scfq_cells () @ sfq_override_cells () @ structural_cells ()
  @ reweight_cells () @ stress_cells () @ sp_pifo_cells () @ pifo_cells ()

(* The full SFQ theorem set presupposes a loss-free run, so the
   buffer-overflow mutant gets the stress set (its expected monitor,
   flow_fifo, is structural); every other mutant keeps the theorems. *)
let mutant_monitors mode w ~vtime ~sched =
  match (mode : Mutant.mode) with
  | Wrong_queue_drop -> stress_set sched
  | _ ->
    sfq_set ~allow_idle_reset:true w ~vtime
    @ [ Monitor.conservation ~size:sched.Sched.size () ]

let mutant_cells () =
  List.map
    (fun mode ->
      let w = Mutant.workload mode in
      ( mode,
        {
          Run.label = "mutant-" ^ Mutant.name mode;
          workload = w;
          driver =
            (fun () ->
              let sched, vtime = Mutant.sched mode (weights_of w) in
              {
                Run.sched;
                monitors = mutant_monitors mode w ~vtime ~sched;
                on_reweight = None;
              });
        } ))
    Mutant.all
