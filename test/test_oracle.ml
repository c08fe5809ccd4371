(* The theorem-oracle layer: directed monitor unit tests, every
   discipline against its applicable monitor set over deterministic
   pools of adversarial workloads, and the mutation self-check proving
   the monitors have teeth. *)

open Sfq_base
open Sfq_core
open Sfq_oracle

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let weights_of (w : Workload.t) = Weights.of_list ~default:1.0 w.Workload.weights

(* Monitor sets and frozen workload pools live in Sfq_oracle.Suite so
   the serial suite here, the domain-parallel determinism suite
   (test_par) and the bench/CLI consumers share one definition. *)
let structural = Suite.structural
let sfq_set = Suite.sfq_set
let theorem_pool = Suite.theorem_pool ()
let override_pool = Suite.override_pool ()
let reweight_pool = Suite.reweight_pool ()

(* A sweep is clean when no cell tripped a monitor. *)
let assert_clean_sweep cells =
  let outcomes = Run.sweep cells in
  List.iteri
    (fun i (c : Run.cell) ->
      match outcomes.(i).Run.violations with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "%s: %s@.%s" c.Run.label
          (Format.asprintf "%a" Monitor.pp_violation v)
          (Workload.to_string c.Run.workload))
    cells

(* ------------------------------------------------------------------ *)
(* Directed monitor tests                                               *)

let p ?rate ~flow ~seq ~len () = Packet.make ?rate ~flow ~seq ~len ~born:0.0 ()

let tripped m = Monitor.result m <> None

let test_work_conserving_trips () =
  let m = Monitor.work_conserving () in
  Monitor.observe m (Monitor.Arrival { at = 0.0; pkt = p ~flow:1 ~seq:1 ~len:100 () });
  Monitor.observe m (Monitor.Idle { at = 0.5; backlog = 1 });
  check_bool "idle with backlog trips" true (tripped m);
  let ok = Monitor.work_conserving () in
  Monitor.observe ok (Monitor.Idle { at = 0.0; backlog = 0 });
  check_bool "idle while empty is fine" false (tripped ok)

let test_flow_fifo_trips_on_reorder () =
  let m = Monitor.flow_fifo () in
  Monitor.observe m (Monitor.Arrival { at = 0.0; pkt = p ~flow:1 ~seq:1 ~len:100 () });
  Monitor.observe m (Monitor.Arrival { at = 0.0; pkt = p ~flow:1 ~seq:2 ~len:100 () });
  Monitor.observe m
    (Monitor.Departure { start = 0.0; finish = 1.0; pkt = p ~flow:1 ~seq:2 ~len:100 () });
  check_bool "out-of-order departure trips" true (tripped m)

let test_flow_fifo_trips_on_drop () =
  let m = Monitor.flow_fifo () in
  Monitor.observe m (Monitor.Arrival { at = 0.0; pkt = p ~flow:3 ~seq:1 ~len:100 () });
  Monitor.finalize m ~until:10.0;
  check_bool "undeparted packet trips at finalize" true (tripped m)

let test_tag_monotone_trips () =
  let v = ref 0.0 in
  let m = Monitor.tag_monotone ~name:"tag_monotone" ~vtime:(fun () -> !v) () in
  v := 1.0;
  Monitor.observe m (Monitor.Arrival { at = 0.0; pkt = p ~flow:1 ~seq:1 ~len:100 () });
  v := 0.5;
  Monitor.observe m (Monitor.Arrival { at = 1.0; pkt = p ~flow:1 ~seq:2 ~len:100 () });
  check_bool "vtime regression trips" true (tripped m)

let test_tag_monotone_idle_reset_allowed () =
  let v = ref 5.0 in
  let m = Monitor.tag_monotone ~name:"tag_monotone" ~vtime:(fun () -> !v) () in
  Monitor.observe m (Monitor.Arrival { at = 0.0; pkt = p ~flow:1 ~seq:1 ~len:100 () });
  v := 0.0;
  Monitor.observe m (Monitor.Idle { at = 1.0; backlog = 0 });
  check_bool "busy-period reset is allowed" false (tripped m)

let test_scfq_delay_trips () =
  (* eq. 56 bound for the lone packet: EAT + l2max/C + l/r = 32.2 s;
     a departure at 110 s is far outside it. *)
  let m =
    Monitor.scfq_delay ~flows:[ 1; 2 ]
      ~lmax:(fun _ -> 1000.0)
      ~rate:(fun _ -> 45.0)
      ~capacity:100.0 ()
  in
  Monitor.observe m (Monitor.Arrival { at = 0.0; pkt = p ~flow:1 ~seq:1 ~len:1000 () });
  Monitor.observe m
    (Monitor.Departure { start = 100.0; finish = 110.0; pkt = p ~flow:1 ~seq:1 ~len:1000 () });
  check_bool "late departure trips eq. 56" true (tripped m)

let test_sfq_throughput_trips () =
  (* Flow 1 backlogged for 110 s but served only 1000 bits; Theorem 2
     promises 45·110 − 45·2000/100 − 1000 = 3050 bits. *)
  let m =
    Monitor.sfq_throughput ~flows:[ 1; 2 ]
      ~lmax:(fun _ -> 1000.0)
      ~rate:(fun _ -> 45.0)
      ~capacity:100.0 ()
  in
  Monitor.observe m (Monitor.Arrival { at = 0.0; pkt = p ~flow:1 ~seq:1 ~len:1000 () });
  for seq = 1 to 10 do
    Monitor.observe m (Monitor.Arrival { at = 0.0; pkt = p ~flow:2 ~seq ~len:1000 () })
  done;
  for seq = 1 to 10 do
    let start = float_of_int (seq - 1) *. 10.0 in
    Monitor.observe m
      (Monitor.Departure { start; finish = start +. 10.0; pkt = p ~flow:2 ~seq ~len:1000 () })
  done;
  Monitor.observe m
    (Monitor.Departure { start = 100.0; finish = 110.0; pkt = p ~flow:1 ~seq:1 ~len:1000 () });
  Monitor.finalize m ~until:110.0;
  check_bool "starved flow trips Theorem 2" true (tripped m)

(* ------------------------------------------------------------------ *)
(* flow_fifo against a list model of per-flow FIFO service              *)

(* Each flow's pending seqs as a list, oldest first; the first
   violation latched, and finalize naming the lowest flow id. *)
type fifo_model = {
  mutable pending : (Packet.flow * int list) list;
  mutable first : Monitor.violation option;
}

let model_report mdl ~at what =
  if mdl.first = None then mdl.first <- Some { Monitor.monitor = "flow_fifo"; at; what }

let model_seqs mdl f = Option.value (List.assoc_opt f mdl.pending) ~default:[]
let model_set mdl f l = mdl.pending <- (f, l) :: List.remove_assoc f mdl.pending

let model_observe mdl (ev : Monitor.event) =
  if mdl.first = None then
    match ev with
    | Arrival { pkt; _ } -> model_set mdl pkt.flow (model_seqs mdl pkt.flow @ [ pkt.seq ])
    | Departure { finish; pkt; _ } -> (
      match model_seqs mdl pkt.flow with
      | [] ->
        model_report mdl ~at:finish
          (Printf.sprintf "flow %d: seq %d departed but never arrived" pkt.flow pkt.seq)
      | s :: rest ->
        model_set mdl pkt.flow rest;
        if s <> pkt.seq then
          model_report mdl ~at:finish
            (Printf.sprintf "flow %d: expected seq %d to depart next, got %d" pkt.flow s
               pkt.seq))
    | Drop { at; pkt; reason } -> (
      let rec take = function
        | [] -> None
        | s :: rest when s = pkt.seq -> Some rest
        | s :: rest -> Option.map (fun r -> s :: r) (take rest)
      in
      match take (model_seqs mdl pkt.flow) with
      | Some rest -> model_set mdl pkt.flow rest
      | None ->
        model_report mdl ~at
          (Printf.sprintf "flow %d: %s seq %d was not pending" pkt.flow
             (Monitor.drop_reason_name reason) pkt.seq))
    | Idle _ -> ()

let model_finalize mdl ~until =
  if mdl.first = None then
    match List.sort compare (List.filter (fun (_, l) -> l <> []) mdl.pending) with
    | (f, l) :: _ ->
      model_report mdl ~at:until
        (Printf.sprintf "flow %d: %d packet(s) never departed" f (List.length l))
    | [] -> ()

(* One step of a random stream, over flow indices 0-3. [Depart (f, k)]
   sends the k-th pending seq (mod the backlog) of the first flow from
   [f] on with one pending: k = 0 is in order. [Drop_pending] picks the
   same way; both become an idle poll when nothing is pending.
   [Ghost_depart] and [Ghost_drop] name a seq that is not pending:
   never sent, or (stale) the flow's first seq once it has left. Half
   the streams have no reordering and no ghosts, so they run to the
   end and finalize with flows still pending. *)
type step =
  | Arrive of int
  | Depart of int * int
  | Drop_pending of int * int * Monitor.drop_reason
  | Poll
  | Ghost_depart of int
  | Ghost_drop of int * bool * Monitor.drop_reason

let step_to_string = function
  | Arrive f -> Printf.sprintf "Arrive %d" f
  | Depart (f, k) -> Printf.sprintf "Depart (%d, %d)" f k
  | Drop_pending (f, k, r) ->
    Printf.sprintf "Drop_pending (%d, %d, %s)" f k (Monitor.drop_reason_name r)
  | Poll -> "Poll"
  | Ghost_depart f -> Printf.sprintf "Ghost_depart %d" f
  | Ghost_drop (f, stale, r) ->
    Printf.sprintf "Ghost_drop (%d, %b, %s)" f stale (Monitor.drop_reason_name r)

let arb_stream =
  let open QCheck.Gen in
  let fi = int_bound 3 in
  let reason = oneofl [ Monitor.Rejected; Monitor.Evicted; Monitor.Closed ] in
  let step ~faults =
    frequency
      [
        (10, map (fun f -> Arrive f) fi);
        ( 9,
          map2
            (fun f k -> Depart (f, k))
            fi
            (frequency [ (20, return 0); (faults, int_range 1 3) ]) );
        (3, map3 (fun f k r -> Drop_pending (f, k, r)) fi (int_bound 7) reason);
        (2, return Poll);
        (faults, map (fun f -> Ghost_depart f) fi);
        (faults, map3 (fun f stale r -> Ghost_drop (f, stale, r)) fi bool reason);
      ]
  in
  let gen =
    int_range 1 4 >>= fun nflows ->
    oneofl [ 0; 1 ] >>= fun faults ->
    list_size (int_bound 300) (step ~faults) >|= fun steps -> (nflows, steps)
  in
  QCheck.make gen
    ~print:(fun (nflows, steps) ->
      Printf.sprintf "%d flows: [%s]" nflows
        (String.concat "; " (List.map step_to_string steps)))
    ~shrink:QCheck.Shrink.(pair nil (list ~shrink:nil))

(* Sparse ids, so the slot map does not see its keys in slot order. *)
let stream_flows = [| 9; 0; 1 lsl 20; 3 |]

let prop_flow_fifo_matches_model =
  QCheck.Test.make ~count:1000 ~name:"flow_fifo latches what a list model of FIFO latches"
    arb_stream (fun (nflows, steps) ->
      let m = Monitor.flow_fifo () in
      let mdl = { pending = []; first = None } in
      let next = Array.make nflows 1 in
      let flow i = stream_flows.(i mod nflows) in
      let backlogged i =
        let rec go k =
          if k = nflows then None
          else
            let j = (i + k) mod nflows in
            match model_seqs mdl (flow j) with [] -> go (k + 1) | l -> Some (j, l)
        in
        go 0
      in
      let pkt i seq = p ~flow:(flow i) ~seq ~len:100 () in
      let ghost i ~stale =
        if stale && next.(i mod nflows) > 1 && not (List.mem 1 (model_seqs mdl (flow i)))
        then 1
        else 1_000_000 + next.(i mod nflows)
      in
      let event at = function
        | Arrive i ->
          let i = i mod nflows in
          next.(i) <- next.(i) + 1;
          Monitor.Arrival { at; pkt = pkt i (next.(i) - 1) }
        | Depart (i, k) -> (
          match backlogged i with
          | None -> Monitor.Idle { at; backlog = 0 }
          | Some (j, l) ->
            let seq = List.nth l (k mod List.length l) in
            Monitor.Departure { start = at; finish = at +. 0.5; pkt = pkt j seq })
        | Drop_pending (i, k, reason) -> (
          match backlogged i with
          | None -> Monitor.Idle { at; backlog = 0 }
          | Some (j, l) ->
            Monitor.Drop { at; pkt = pkt j (List.nth l (k mod List.length l)); reason })
        | Poll -> Monitor.Idle { at; backlog = 0 }
        | Ghost_depart i ->
          Monitor.Departure
            { start = at; finish = at +. 0.5; pkt = pkt i (ghost i ~stale:false) }
        | Ghost_drop (i, stale, reason) ->
          Monitor.Drop { at; pkt = pkt i (ghost i ~stale); reason }
      in
      List.iteri
        (fun n st ->
          let ev = event (float_of_int n) st in
          Monitor.observe m ev;
          model_observe mdl ev;
          if Monitor.result m <> mdl.first then
            QCheck.Test.fail_reportf "after step %d (%s): monitor %s, model %s" n
              (step_to_string st)
              (Option.fold ~none:"none" ~some:(Format.asprintf "%a" Monitor.pp_violation)
                 (Monitor.result m))
              (Option.fold ~none:"none" ~some:(Format.asprintf "%a" Monitor.pp_violation)
                 mdl.first))
        steps;
      let until = float_of_int (List.length steps) in
      Monitor.finalize m ~until;
      model_finalize mdl ~until;
      Monitor.result m = mdl.first)

(* A flow holds state at a hop only while it has packets pending there:
   100k flows that each pass one packet leave the monitor as small as
   one flow does. *)
let test_flow_fifo_state_bounded () =
  let m = Monitor.flow_fifo () in
  for flow = 0 to 99_999 do
    let pkt = p ~flow ~seq:1 ~len:100 () in
    Monitor.observe m (Monitor.Arrival { at = 0.0; pkt });
    Monitor.observe m (Monitor.Departure { start = 0.0; finish = 1.0; pkt })
  done;
  check_bool "no violation" false (tripped m);
  let words = Obj.reachable_words (Obj.repr m) in
  check_bool
    (Printf.sprintf "%d words reachable after 100k flows (at most 256)" words)
    true (words <= 256)

(* Monitors cost a wrapped scheduler no allocation: a warm
   enqueue/dequeue pair through [wrap] allocates only the scheduler's
   [Some], 2 words. The departure times reach the hooks unboxed. *)
let test_wrap_alloc () =
  let inner =
    Sfq_pifo.Pifo_sched.sched
      (Sfq_pifo.Pifo_sched.create (Sfq_pifo.Programs.sfq (Weights.uniform 100.0)))
  in
  let monitors = [ Monitor.flow_fifo (); Monitor.conservation ~size:inner.Sched.size () ] in
  let s = Monitor.wrap inner ~capacity:(fun () -> 1000.0) ~monitors in
  let warm = 1_000 and n = 10_000 in
  let pkts = Array.init (warm + n) (fun i -> p ~flow:(i land 7) ~seq:(i + 1) ~len:100 ()) in
  let step pkt =
    s.Sched.enqueue ~now:0.0 pkt;
    ignore (s.Sched.dequeue ~now:0.0)
  in
  for i = 0 to warm - 1 do
    step pkts.(i)
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for i = warm to warm + n - 1 do
    step pkts.(i)
  done;
  Gc.minor ();
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  List.iter (fun m -> check_bool (Monitor.name m ^ " silent") false (tripped m)) monitors;
  check_bool
    (Printf.sprintf "%.4f minor words per enqueue/dequeue pair (at most 2)" words)
    true (words <= 2.0)

(* ------------------------------------------------------------------ *)
(* Theorem monitors against their reference models (Oracle_model)       *)

(* SFQ, SCFQ and every seeded mutant, so that violations do fire. *)
let differential_scheds =
  let module Scfq = Sfq_sched.Scfq in
  Array.of_list
    (("sfq", fun wt -> let s = Sfq.create wt in (Sfq.sched s, fun () -> Sfq.vtime s))
    :: ("scfq", fun wt -> let s = Scfq.create wt in (Scfq.sched s, fun () -> Scfq.vtime s))
    :: List.map (fun m -> (Mutant.name m, Mutant.sched m)) Mutant.all)

let theorem_names = [| "fairness"; "sfq_delay"; "scfq_delay"; "sfq_throughput" |]

(* violations latched by each model, over all cases run *)
let model_fired = Array.make (Array.length theorem_names) 0
let model_cases = ref 0

let same_violation a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Monitor.violation), Some (y : Monitor.violation) ->
    x.monitor = y.monitor && Printf.sprintf "%h" x.at = Printf.sprintf "%h" y.at
    && x.what = y.what
  | _ -> false

let show_violation =
  Option.fold ~none:"none" ~some:(fun (v : Monitor.violation) ->
      Printf.sprintf "%s@%h:%s" v.monitor v.at v.what)

(* Each case replays a random trace (overrides, churn, overload,
   reweights, rate changes) through one scheduler under the Suite's
   SFQ and SCFQ sets, [fairness_measured] and a tap that records the
   event stream they all see. The models replay that stream: every
   latched violation (monitor, %h time, text) and the fairness budget
   must match exactly. *)
let prop_theorem_monitors_match_models =
  QCheck.Test.make ~count:1000
    ~name:"theorem monitors latch what the reference models latch"
    (QCheck.pair
       (Workload.arbitrary ~reweights:true ~rate_overrides:true ~churn:true ~overload:true
          ~rate_fluct:true ())
       (QCheck.int_bound (Array.length differential_scheds - 1)))
    (fun (w, k) ->
      let name, make = differential_scheds.(k) in
      let tbl = Hashtbl.create 8 in
      List.iter (fun (f, r) -> Hashtbl.replace tbl f r) w.Workload.weights;
      let wt =
        Weights.of_fun (fun f -> Option.value (Hashtbl.find_opt tbl f) ~default:1.0)
      in
      let sched, vtime = make wt in
      let events = ref [] in
      let measured, budget = Monitor.fairness_measured ~rate:(Workload.rate_table w) () in
      let monitors =
        (Monitor.tap (fun ev -> events := ev :: !events)
        :: measured :: Suite.sfq_set ~allow_idle_reset:true w ~vtime)
        @ Suite.scfq_set w ~vtime
      in
      let o =
        Run.fixed_rate ~sched
          ~on_reweight:(fun ~flow ~rate -> Hashtbl.replace tbl flow rate)
          ~monitors w
      in
      let rate = Workload.rate_of w and lmax = Workload.lmax w in
      let flows = Workload.flows w and capacity = w.Workload.capacity in
      let model_measured, model_budget = Oracle_model.fairness_measured ~rate () in
      let models =
        [|
          Oracle_model.fairness ~rate ();
          Oracle_model.sfq_delay ~flows ~lmax ~rate ~capacity ();
          Oracle_model.scfq_delay ~flows ~lmax ~rate ~capacity ();
          Oracle_model.sfq_throughput ~flows ~lmax ~rate ~capacity ();
        |]
      in
      let events = List.rev !events in
      let feed m =
        List.iter (Oracle_model.observe m) events;
        Oracle_model.finalize m ~until:o.Run.finished_at
      in
      Array.iter feed models;
      feed model_measured;
      incr model_cases;
      let bits = Int64.bits_of_float in
      let b = budget () and mb = model_budget () in
      if
        b.pairs_checked <> mb.pairs_checked || b.worst_pair <> mb.worst_pair
        || bits b.max_h <> bits mb.max_h || bits b.max_bound <> bits mb.max_bound
        || bits b.max_excess <> bits mb.max_excess
      then
        QCheck.Test.fail_reportf "fairness budget under %s: %d pairs, max_h %h; model %d, %h"
          name b.pairs_checked b.max_h mb.pairs_checked mb.max_h;
      Array.iteri
        (fun i mdl ->
          let mon = List.find (fun m -> Monitor.name m = theorem_names.(i)) monitors in
          let want = Oracle_model.result mdl in
          if want <> None then model_fired.(i) <- model_fired.(i) + 1;
          if not (same_violation (Monitor.result mon) want) then
            QCheck.Test.fail_reportf "%s under %s: monitor %s, model %s" theorem_names.(i)
              name (show_violation (Monitor.result mon)) (show_violation want))
        models;
      true)

(* The property above is vacuous unless the models actually fire. *)
let test_models_fired () =
  Array.iteri
    (fun i n ->
      Printf.printf "%s: violation in %d of %d cases\n" theorem_names.(i) n !model_cases;
      check_bool (theorem_names.(i) ^ " fired") true (n > 0))
    model_fired

(* ------------------------------------------------------------------ *)
(* Exact-count budgets for the theorem layer                            *)

(* Minor words per departure of whole theorem cells (scheduler, driver,
   monitors and their finalize) over the first 30 traces of the frozen
   theorem pool, read with [Gc.minor_words] fenced by [Gc.minor] as
   test_net's budgets are. A second pass is measured, so lazy set-up is
   not counted. Each budget sits just above the count (171.32, 132.00
   and 154.06 words), so one more allocation per event fails it. *)
let theorem_budget cells budget () =
  List.iter (fun c -> ignore (Run.run_cell c)) cells;
  Gc.minor ();
  let before = Gc.minor_words () in
  let departures =
    List.fold_left (fun acc c -> acc + (Run.run_cell c).Run.departures) 0 cells
  in
  Gc.minor ();
  let words = (Gc.minor_words () -. before) /. float_of_int departures in
  check_bool
    (Printf.sprintf "%.4f minor words per departure (at most %g)" words budget)
    true (words <= budget)

let budget_slice () = List.filteri (fun i _ -> i < 30) theorem_pool

let test_sfq_budget () = theorem_budget (Suite.sfq_cells ~pool:(budget_slice ()) ()) 172.0 ()
let test_scfq_budget () = theorem_budget (Suite.scfq_cells ~pool:(budget_slice ()) ()) 132.5 ()

let test_pifo_sfq_budget () =
  (* the first 30 pifo cells are the pifo-sfq ones *)
  let cells = List.filteri (fun i _ -> i < 30) (Suite.pifo_cells ~pool:(budget_slice ()) ()) in
  theorem_budget cells 154.5 ()

(* ------------------------------------------------------------------ *)
(* Acceptance sweeps                                                    *)

let test_sfq_theorems () = assert_clean_sweep (Suite.sfq_cells ())

let test_stress_all_disciplines () =
  let cells = Suite.stress_cells () in
  assert_clean_sweep cells;
  (* the pool must actually exercise the drop machinery, or the clean
     sweep is vacuous *)
  let outcomes = Run.sweep cells in
  let drops =
    Array.fold_left (fun acc (o : Run.outcome) -> acc + o.Run.drops) 0 outcomes
  in
  check_bool "stress pool causes drops" true (drops > 0)
let test_scfq_theorems () = assert_clean_sweep (Suite.scfq_cells ())
let test_sfq_delay_under_overrides () = assert_clean_sweep (Suite.sfq_override_cells ())
let test_structural_all_disciplines () = assert_clean_sweep (Suite.structural_cells ())
let test_reweight_structural () = assert_clean_sweep (Suite.reweight_cells ())

(* ------------------------------------------------------------------ *)
(* Mutation self-check                                                  *)

let test_mutants_all_caught () =
  List.iter
    (fun (mode, cell) ->
      let o = Run.run_cell cell in
      let expected = Mutant.expected_monitor mode in
      let names = List.map (fun (v : Monitor.violation) -> v.Monitor.monitor) o.Run.violations in
      if not (List.mem expected names) then
        Alcotest.failf "mutant %s: expected monitor %s to trip; tripped: [%s]"
          (Mutant.name mode) expected
          (String.concat ", " names))
    (Suite.mutant_cells ())

let test_real_sfq_passes_mutant_workloads () =
  (* The crafted traces are within the theorems for the real scheduler:
     the mutants trip because of their bugs, not because the workloads
     are outside the guarantees. *)
  List.iter
    (fun mode ->
      let w = Mutant.workload mode in
      let s = Sfq.create (weights_of w) in
      let monitors =
        (* drops void the theorem premises: the lossy workload gets the
           structural + conservation set, like Suite.mutant_cells *)
        match mode with
        | Mutant.Wrong_queue_drop -> Suite.stress_set (Sfq.sched s)
        | _ -> sfq_set w ~vtime:(fun () -> Sfq.vtime s)
      in
      match (Run.fixed_rate ~sched:(Sfq.sched s) ~monitors w).Run.violations with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "real sfq tripped on the %s workload: %s" (Mutant.name mode)
          (Format.asprintf "%a" Monitor.pp_violation v))
    Mutant.all

(* ------------------------------------------------------------------ *)
(* Workload generator plumbing                                          *)

let test_pool_deterministic () =
  let a = Workload.deterministic_pool ~seed:17 ~n:5 () in
  let b = Workload.deterministic_pool ~seed:17 ~n:5 () in
  check_bool "same seed, same pool" true (a = b);
  let c = Workload.deterministic_pool ~seed:18 ~n:5 () in
  check_bool "different seed, different pool" true (a <> c)

let test_pool_is_adversarial () =
  (* The pool must actually contain the stressors the generator
     advertises: bursts, long idle gaps and multi-flow traces. *)
  let has_burst (w : Workload.t) =
    let rec go = function
      | (a : Workload.arrival) :: (b : Workload.arrival) :: tl ->
        a.Workload.at = b.Workload.at || go (b :: tl)
      | _ -> false
    in
    go w.Workload.arrivals
  in
  let has_idle_gap (w : Workload.t) =
    let srv = 1000.0 /. w.Workload.capacity in
    let rec go = function
      | (a : Workload.arrival) :: (b : Workload.arrival) :: tl ->
        b.Workload.at -. a.Workload.at >= 5.0 *. srv || go (b :: tl)
      | _ -> false
    in
    go w.Workload.arrivals
  in
  check_bool "bursts present" true (List.exists has_burst theorem_pool);
  check_bool "idle gaps present" true (List.exists has_idle_gap theorem_pool);
  check_bool "multi-flow traces present" true
    (List.exists (fun w -> List.length (Workload.flows w) >= 3) theorem_pool);
  check_bool "rate overrides present in override pool" true
    (List.exists
       (fun (w : Workload.t) ->
         List.exists (fun (a : Workload.arrival) -> a.Workload.rate <> None) w.Workload.arrivals)
       override_pool);
  check_bool "reweights present in reweight pool" true
    (List.exists (fun (w : Workload.t) -> w.Workload.reweights <> []) reweight_pool)

let test_shrink_candidates_valid () =
  let w = List.hd override_pool in
  let n = List.length w.Workload.arrivals in
  let count = ref 0 in
  Workload.shrink w (fun w' ->
      incr count;
      check_bool "no new arrivals" true (List.length w'.Workload.arrivals <= n);
      let rec sorted = function
        | (a : Workload.arrival) :: (b : Workload.arrival) :: tl ->
          a.Workload.at <= b.Workload.at && sorted (b :: tl)
        | _ -> true
      in
      check_bool "still time-sorted" true (sorted w'.Workload.arrivals);
      check_bool "capacity preserved" true (w'.Workload.capacity = w.Workload.capacity));
  check_bool "shrinker yields candidates" true (!count > 0)

(* A passing qcheck property through the arbitrary (exercises the
   generator + shrinker wiring end to end under a fixed PRNG). *)
let prop_sfq_structural_random =
  QCheck.Test.make ~count:40 ~name:"sfq structural monitors on random workloads"
    (Workload.arbitrary ~rate_overrides:true ())
    (fun w ->
      let s = Sfq.create (weights_of w) in
      (Run.fixed_rate ~sched:(Sfq.sched s) ~monitors:(structural ()) w).Run.violations
      = [])

let test_outcome_counts_departures () =
  let w = List.hd theorem_pool in
  let s = Sfq.create (weights_of w) in
  let o = Run.fixed_rate ~sched:(Sfq.sched s) ~monitors:[] w in
  check_int "every arrival departs" (List.length w.Workload.arrivals) o.Run.departures

(* The tables answer what [rate_of] and [lmax] answer for every id,
   inside the workload's id range and outside it: a repeated binding
   keeps its first rate, a flow with a weight but no arrivals has
   lmax 0, one with arrivals but no weight has rate 0. *)
let test_workload_tables () =
  let arrival flow len = { Workload.at = 0.0; flow; len; rate = None } in
  let w =
    {
      (List.hd theorem_pool) with
      Workload.weights = [ (0, 1e5); (3, 2e5); (0, 4e5) ];
      arrivals = [ arrival 0 800; arrival 5 1200; arrival 0 1500; arrival 5 400 ];
    }
  in
  let rate = Workload.rate_table w and lmax = Workload.lmax_table w in
  for f = -2 to 8 do
    check_bool (Printf.sprintf "rate of flow %d" f) true (rate f = Workload.rate_of w f);
    check_bool (Printf.sprintf "lmax of flow %d" f) true (lmax f = Workload.lmax w f)
  done;
  check_bool "first binding" true (rate 0 = 1e5);
  check_bool "largest arrival" true (lmax 0 = 1500.0);
  let negative = { w with Workload.arrivals = arrival (-1) 100 :: w.Workload.arrivals } in
  Alcotest.check_raises "negative flow id"
    (Invalid_argument "Workload: flow ids must be non-negative") (fun () ->
      ignore (Workload.rate_table negative 0 : float))

(* ------------------------------------------------------------------ *)

let q test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x0c5 |])
    ~speed_level:`Quick test

let () =
  Alcotest.run "oracle"
    [
      ( "monitors",
        [
          Alcotest.test_case "work_conserving trips" `Quick test_work_conserving_trips;
          Alcotest.test_case "flow_fifo reorder" `Quick test_flow_fifo_trips_on_reorder;
          Alcotest.test_case "flow_fifo drop" `Quick test_flow_fifo_trips_on_drop;
          Alcotest.test_case "tag_monotone regression" `Quick test_tag_monotone_trips;
          Alcotest.test_case "tag_monotone idle reset" `Quick
            test_tag_monotone_idle_reset_allowed;
          Alcotest.test_case "scfq_delay trips" `Quick test_scfq_delay_trips;
          Alcotest.test_case "sfq_throughput trips" `Quick test_sfq_throughput_trips;
          q prop_flow_fifo_matches_model;
          Alcotest.test_case "flow_fifo state bounded by pending flows" `Quick
            test_flow_fifo_state_bounded;
          Alcotest.test_case "wrap allocates nothing per event" `Quick test_wrap_alloc;
          q prop_theorem_monitors_match_models;
          Alcotest.test_case "theorem models fired" `Quick test_models_fired;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "sfq: Theorems 1/2/4 over 120 workloads" `Quick
            test_sfq_theorems;
          Alcotest.test_case "scfq: Theorem 1 + eq. 56 over 120 workloads" `Quick
            test_scfq_theorems;
          Alcotest.test_case "sfq: Theorem 4 under rate overrides" `Quick
            test_sfq_delay_under_overrides;
          Alcotest.test_case "all disciplines: structural invariants" `Quick
            test_structural_all_disciplines;
          Alcotest.test_case "sfq/scfq: structural under reweights" `Quick
            test_reweight_structural;
          Alcotest.test_case "all disciplines: conservation under churn/overload"
            `Quick test_stress_all_disciplines;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "sfq cell words per departure" `Quick test_sfq_budget;
          Alcotest.test_case "scfq cell words per departure" `Quick test_scfq_budget;
          Alcotest.test_case "pifo-sfq cell words per departure" `Quick test_pifo_sfq_budget;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "each mutation is caught" `Quick test_mutants_all_caught;
          Alcotest.test_case "real sfq passes the mutant workloads" `Quick
            test_real_sfq_passes_mutant_workloads;
        ] );
      ( "workload",
        [
          Alcotest.test_case "pool determinism" `Quick test_pool_deterministic;
          Alcotest.test_case "pool adversarial content" `Quick test_pool_is_adversarial;
          Alcotest.test_case "shrink candidates valid" `Quick test_shrink_candidates_valid;
          Alcotest.test_case "run counts departures" `Quick test_outcome_counts_departures;
          Alcotest.test_case "rate and lmax tables" `Quick test_workload_tables;
          q prop_sfq_structural_random;
        ] );
    ]
