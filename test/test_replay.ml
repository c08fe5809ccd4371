(* The schedule-replay universality suite (E28, DESIGN.md §14).

   Single hop: recording any shipped discipline on a frozen workload
   and replaying the arrivals under LSTF (deadline = recorded output
   time, residual = len/C) must reproduce the schedule
   packet-for-packet — the ranks are the recorded start times, distinct
   and increasing, so this is a theorem and any divergence is a harness
   or scheduler bug. Multi-hop: the UPS criterion (no packet later than
   recorded) over the E27 grid, SFQ as the diverging negative control.
   Seeded mutants (lstf-wrong-slack, lstf-priority-tie) must die at
   every domain count, and the Lstf discipline's lifecycle semantics
   (monotone rank floor through evict, forgotten at close) get the same
   battery as the PR 5 robustness suite. *)

open Sfq_base
open Sfq_oracle
module Lstf = Sfq_sched.Lstf
module Tag_queue = Sfq_sched.Tag_queue
module Net_sweep = Sfq_experiments.Net_sweep
module Lr = Sfq_experiments.Lstf_replay
module Disc = Sfq_experiments.Disc
module Topo = Sfq_netsim.Topo
module Sim = Sfq_netsim.Sim
module Pool = Sfq_par.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let is_replayed = function Replay.Replayed _ -> true | Replay.Diverged _ -> false

let domain_counts =
  let base = [ 1; 2; 4; 8 ] in
  match Sys.getenv_opt "SFQ_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && not (List.mem n base) -> base @ [ n ]
    | _ -> base)
  | None -> base

let assert_identical ~what digests =
  match digests with
  | [] -> ()
  | (_, reference) :: rest ->
    List.iter
      (fun (domains, d) ->
        if not (String.equal d reference) then
          Alcotest.failf "%s: digest at %d domains differs from serial run" what
            domains)
      rest

(* ------------------------------------------------------------------ *)
(* Single-hop record/replay                                             *)

let arr at flow len = { Workload.at; flow; len; rate = None }

let workload arrivals =
  {
    Workload.capacity = 1000.0;
    weights = [ (0, 250.0); (1, 250.0); (2, 250.0) ];
    arrivals;
    reweights = [];
    churn = [];
    rate_changes = [];
    buffer = None;
  }

let burst =
  workload
    [
      arr 0.0 0 2000;
      arr 0.0 1 1000;
      arr 0.1 2 1500;
      arr 2.0 0 500;
      arr 2.0 1 500;
      arr 6.0 2 1000;
    ]

let mk disc (w : Workload.t) () =
  Disc.make disc (Weights.of_list ~default:1.0 w.Workload.weights)

let test_roundtrip () =
  let sch = Replay.record ~sched:(mk Disc.Sfq burst ()) burst in
  let order = Replay.order sch in
  check_int "every packet recorded" (List.length burst.Workload.arrivals)
    (Array.length order);
  Alcotest.(check (float 0.0)) "capacity kept" 1000.0 (Replay.capacity sch);
  Array.iter
    (fun k ->
      match Replay.output_time sch k with
      | Some o -> check_bool "output time positive" true (o > 0.0)
      | None -> Alcotest.fail "recorded packet has no output time")
    order;
  (* output times are distinct and increasing in departure order — the
     premise of the single-hop replay argument *)
  let times = Array.map (fun k -> Option.get (Replay.output_time sch k)) order in
  Array.iteri
    (fun i o ->
      if i > 0 then check_bool "strictly increasing" true (o > times.(i - 1)))
    times;
  match Replay.replay_lstf sch burst with
  | Replay.Replayed n -> check_int "all packets replayed" (Array.length order) n
  | Replay.Diverged _ as v ->
    Alcotest.failf "LSTF failed to replay SFQ: %s" (Replay.verdict_digest v)

(* Reflexivity, directed: recording a discipline and re-running the
   same arrivals under a fresh instance of the same discipline is the
   degenerate replay — identical departure schedule. *)
let test_reflexive_directed () =
  List.iter
    (fun disc ->
      let make = mk disc burst in
      let sch = Replay.record ~sched:(make ()) burst in
      match Replay.replay ~sched:(make ()) sch burst with
      | Replay.Replayed _ -> ()
      | Replay.Diverged _ as v ->
        Alcotest.failf "%s not reflexive: %s" (Disc.name disc)
          (Replay.verdict_digest v))
    [ Disc.Sfq; Disc.Fifo; Disc.Drr { quantum = 8192.0 } ]

let test_workload_guards () =
  let reject what w =
    match Replay.record ~sched:(mk Disc.Sfq w ()) w with
    | _ -> Alcotest.failf "%s workload must be rejected" what
    | exception Invalid_argument _ -> ()
  in
  reject "churned"
    { burst with Workload.churn = [ { Workload.at = 1.0; flow = 0 } ] };
  reject "rate-fluctuating"
    {
      burst with
      Workload.rate_changes = [ { Workload.at = 1.0; capacity = 500.0 } ];
    };
  reject "buffered"
    {
      burst with
      Workload.buffer =
        Some
          {
            Workload.per_flow = Some 2;
            aggregate = None;
            policy = Buffered.Drop_tail;
          };
    }

let test_unknown_packet_rejected () =
  (* a schedule missing one of the workload's packets cannot assign it
     a deadline: replay must refuse loudly, not invent a rank *)
  let sch =
    Replay.of_table ~capacity:1000.0
      [ ({ Replay.flow = 0; seq = 1 }, 2.0); ({ Replay.flow = 1; seq = 1 }, 3.0) ]
  in
  let w = workload [ arr 0.0 0 2000; arr 0.0 1 1000; arr 0.1 2 1500 ] in
  match Replay.replay_lstf sch w with
  | _ -> Alcotest.fail "packet absent from the schedule must raise"
  | exception Invalid_argument _ -> ()

let test_suite_cells_replayed () =
  List.iter
    (fun (c : Replay.cell) ->
      match c.Replay.run () with
      | Replay.Replayed _ -> ()
      | Replay.Diverged _ as v ->
        Alcotest.failf "%s: %s" c.Replay.label (Replay.verdict_digest v))
    (Replay.suite_cells ~limit:3 ())

(* ------------------------------------------------------------------ *)
(* Seeded-mutant kills, at every domain count                           *)

let test_directed_kills_all_domains () =
  let tasks = Array.of_list (Replay.directed_kills ()) in
  let digests =
    List.map
      (fun domains ->
        let rows =
          Pool.run ~domains
            ~f:(fun _ (m, label, thunk) ->
              (* audit (parallel safety): each thunk builds its
                 schedulers and schedule inside the call *)
              let correct, mutant = thunk () in
              if not (is_replayed correct) then
                Alcotest.failf "%s at %d domains: correct LSTF diverged: %s"
                  label domains
                  (Replay.verdict_digest correct);
              if is_replayed mutant then
                Alcotest.failf "%s at %d domains: mutant %s survived replay"
                  label domains (Replay.mutant_name m);
              Printf.sprintf "%s correct=%s mutant=%s" label
                (Replay.verdict_digest correct)
                (Replay.verdict_digest mutant))
            tasks
        in
        (domains, String.concat "\n" (Array.to_list rows)))
      domain_counts
  in
  assert_identical ~what:"directed kills" digests

let star4_sfq_cell () =
  match
    List.find_opt
      (fun (c : Net_sweep.scenario) -> c.Net_sweep.label = "star4/SFQ/r0")
      (Net_sweep.default_cells ())
  with
  | Some c -> c
  | None -> Alcotest.fail "star4/SFQ/r0 missing from the E27 grid"

let test_net_wrong_slack_kill_all_domains () =
  let cell = star4_sfq_cell () in
  let digests =
    List.map
      (fun domains ->
        let rows =
          Pool.run ~domains
            ~f:(fun _ s ->
              let ns, _ = Net_sweep.record_net s in
              let correct = Net_sweep.replay_net ns Net_sweep.Under_lstf in
              let mutant =
                Net_sweep.replay_net ns
                  (Net_sweep.Under_mutant Replay.Wrong_slack)
              in
              (match correct with
              | Net_sweep.Late _ ->
                Alcotest.failf "correct net LSTF late at %d domains: %s" domains
                  (Net_sweep.net_verdict_digest correct)
              | Net_sweep.Exact _ | Net_sweep.On_time _ -> ());
              (match mutant with
              | Net_sweep.Late _ -> ()
              | v ->
                Alcotest.failf "net wrong-slack survived at %d domains: %s"
                  domains
                  (Net_sweep.net_verdict_digest v));
              Net_sweep.net_verdict_digest correct ^ " | "
              ^ Net_sweep.net_verdict_digest mutant)
            [| cell |]
        in
        (domains, rows.(0)))
      domain_counts
  in
  assert_identical ~what:"net wrong-slack kill" digests

(* ------------------------------------------------------------------ *)
(* Multi-hop grid, negative control, E28 rows                           *)

let test_e28_rows () =
  let r = Lr.run ~limit:1 () in
  let all_ok what rows =
    List.iter
      (fun (x : Lr.row) ->
        if not x.Lr.ok then Alcotest.failf "%s %s: %s" what x.Lr.cell x.Lr.verdict)
      rows
  in
  all_ok "single" r.Lr.single;
  all_ok "net" r.Lr.net;
  all_ok "kill" r.Lr.kills;
  check_int "grid covers every (topology x discipline) cell" 16
    (List.length r.Lr.net);
  (* the negative control must actually diverge somewhere: SFQ is not
     universal, which is what makes the net rows evidence *)
  check_bool "SFQ delivers late on at least one DRR recording" true
    (List.exists (fun (x : Lr.row) -> x.Lr.ok) r.Lr.control)

let test_record_net_guards () =
  let churned =
    Net_sweep.scenario ~label:"guard/churn" ~spec:(Topo.Star { leaves = 3 })
      ~disc:Disc.Sfq ~churn:true ()
  in
  (match Net_sweep.record_net churned with
  | _ -> Alcotest.fail "churned scenario must be rejected"
  | exception Invalid_argument _ -> ());
  let buffered =
    Net_sweep.scenario ~label:"guard/buffer" ~spec:(Topo.Star { leaves = 3 })
      ~disc:Disc.Sfq
      ~buffer:
        (Buffered.config ~per_flow:4 ~aggregate:16 ~policy:Buffered.Drop_tail ())
      ()
  in
  match Net_sweep.record_net buffered with
  | _ -> Alcotest.fail "buffered scenario must be rejected"
  | exception Invalid_argument _ -> ()

let test_replay_exact_and_hash_stable () =
  let cell = star4_sfq_cell () in
  let ns1, o1 = Net_sweep.record_net cell in
  let ns2, o2 = Net_sweep.record_net cell in
  check_bool "recording is deterministic" true
    (Net_sweep.net_schedule_hash ns1 = Net_sweep.net_schedule_hash ns2
    && o1.Net_sweep.order_hash = o2.Net_sweep.order_hash);
  check_bool "recorded scenario kept" true
    ((Net_sweep.net_schedule_scenario ns1).Net_sweep.label = "star4/SFQ/r0");
  check_bool "delivery order non-empty" true
    (Array.length (Net_sweep.net_schedule_order ns1) > 0);
  (* same-discipline re-run is the degenerate replay: exact order *)
  (match Net_sweep.replay_net ns1 (Net_sweep.Under_disc Disc.Sfq) with
  | Net_sweep.Exact n ->
    check_int "every delivery reproduced"
      (Array.length (Net_sweep.net_schedule_order ns1))
      n
  | v ->
    Alcotest.failf "SFQ not reflexive on its own recording: %s"
      (Net_sweep.net_verdict_digest v));
  match Net_sweep.replay_net ns1 Net_sweep.Under_lstf with
  | Net_sweep.Exact _ -> ()
  | v ->
    Alcotest.failf "LSTF does not replay star4/SFQ exactly: %s"
      (Net_sweep.net_verdict_digest v)

let test_residuals_route_aware () =
  (* star: residual at an access link covers its own tx + prop plus the
     core's; the core link covers only itself. Creation order is
     access links first (leaf order), core last. *)
  let topo =
    Topo.build (Sim.create ()) (Topo.Star { leaves = 2 }) ~access_rate:500.0
      ~core_rate:1000.0
      ~mk_sched:(fun ~rate:_ -> Sfq_sched.Fifo.sched (Sfq_sched.Fifo.create ()))
      ~prop_delay:0.5 ()
  in
  let r = Topo.residuals topo ~len:1000 in
  check_int "one residual per link" 3 (Array.length r);
  Alcotest.(check (float 1e-9)) "core: own tx + prop" 1.5 r.(2);
  Alcotest.(check (float 1e-9)) "access: own + downstream" 4.0 r.(0);
  Alcotest.(check (float 1e-9)) "access links symmetric" r.(0) r.(1)

(* ------------------------------------------------------------------ *)
(* QCheck: replay is reflexive on random network cells                  *)

let q test =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x28 |])
    ~speed_level:`Quick test

let reflexive_specs =
  [|
    Topo.Star { leaves = 3 };
    Topo.Line { hops = 2 };
    Topo.Tree { arity = 2; depth = 2 };
    Topo.Dumbbell { left = 2; right = 2 };
  |]

let reflexive_discs =
  [|
    Disc.Sfq;
    Disc.Scfq;
    Disc.Pifo_sfq;
    Disc.Drr { quantum = 8192.0 };
  |]

let reflexive_gen =
  QCheck.Gen.(
    quad
      (int_range 0 (Array.length reflexive_specs - 1))
      (int_range 0 (Array.length reflexive_discs - 1))
      bool (int_range 0 0xffff))

let print_reflexive (si, di, churn, seed) =
  Printf.sprintf "%s/%s churn=%b seed=%#x"
    (Topo.spec_name reflexive_specs.(si))
    (Disc.name reflexive_discs.(di))
    churn seed

let prop_net_replay_reflexive =
  QCheck.Test.make ~count:12
    ~name:"same-discipline replay reproduces the recording"
    (QCheck.make ~print:print_reflexive reflexive_gen)
    (fun (si, di, churn, seed) ->
      let spec = reflexive_specs.(si) and disc = reflexive_discs.(di) in
      let s =
        Net_sweep.scenario
          ~label:(Printf.sprintf "reflexive/%s" (Topo.spec_name spec))
          ~spec ~disc ~churn ~seed ()
      in
      if churn then
        (* churn is outside the replay guards: reflexivity there is
           delivery-order determinism of the run itself *)
        (Net_sweep.run_scenario s).Net_sweep.order_hash
        = (Net_sweep.run_scenario s).Net_sweep.order_hash
      else
        let ns, _ = Net_sweep.record_net s in
        match Net_sweep.replay_net ns (Net_sweep.Under_disc disc) with
        | Net_sweep.Exact _ -> true
        | v ->
          Printf.eprintf "reflexive replay: %s\n"
            (Net_sweep.net_verdict_digest v);
          false)

(* ------------------------------------------------------------------ *)
(* Lstf lifecycle: the PR 5 battery (tags never roll back; reopened
   flows re-enter correctly)                                            *)

(* deadline rides in [born], so each packet's target is explicit *)
let dpkt flow seq deadline = Packet.make ~flow ~seq ~len:1000 ~born:deadline ()
let mk_lstf () = Lstf.create ~deadline:(fun p -> p.Packet.born) ()

let test_floor_clamps_undercutting_deadline () =
  let t = mk_lstf () in
  Lstf.enqueue t ~now:0.0 (dpkt 1 1 10.0);
  check_bool "floor tracks the last rank" true (Lstf.last_rank t 1 = Some 10.0);
  Alcotest.(check (float 0.0)) "undercutting deadline clamps to the floor" 10.0
    (Lstf.rank t (dpkt 1 2 5.0));
  Lstf.enqueue t ~now:0.0 (dpkt 1 2 5.0);
  check_bool "floor never rolls back" true (Lstf.last_rank t 1 = Some 10.0);
  (* a later deadline raises the floor *)
  Lstf.enqueue t ~now:0.0 (dpkt 1 3 12.0);
  check_bool "floor advances" true (Lstf.last_rank t 1 = Some 12.0);
  (* per-flow FIFO survives the non-monotone deadlines *)
  let order =
    List.map (fun p -> p.Packet.seq) (Sched.drain (Lstf.sched t) ~now:0.0)
  in
  check_bool "per-flow FIFO" true (order = [ 1; 2; 3 ])

let test_evict_keeps_floor () =
  let t = mk_lstf () in
  Lstf.enqueue t ~now:0.0 (dpkt 1 1 10.0);
  Lstf.enqueue t ~now:0.0 (dpkt 1 2 20.0);
  (match Lstf.evict t Sched.Newest 1 with
  | Some p -> check_int "newest evicted" 2 p.Packet.seq
  | None -> Alcotest.fail "evict found nothing");
  (* the evicted packet's rank stays charged: tags never roll back *)
  check_bool "floor survives eviction" true (Lstf.last_rank t 1 = Some 20.0);
  Alcotest.(check (float 0.0)) "next packet enters at the floor" 20.0
    (Lstf.rank t (dpkt 1 3 5.0));
  match Lstf.evict t Sched.Oldest 1 with
  | Some p ->
    check_int "oldest evicted" 1 p.Packet.seq;
    check_bool "floor survives emptying the flow" true
      (Lstf.last_rank t 1 = Some 20.0)
  | None -> Alcotest.fail "evict found nothing"

let test_close_forgets_floor () =
  let t = mk_lstf () in
  Lstf.enqueue t ~now:0.0 (dpkt 1 1 10.0);
  Lstf.enqueue t ~now:0.0 (dpkt 1 2 11.0);
  Lstf.enqueue t ~now:0.0 (dpkt 2 1 5.0);
  let flushed = Lstf.close_flow t 1 in
  check_bool "flushed oldest first" true
    (List.map (fun p -> p.Packet.seq) flushed = [ 1; 2 ]);
  check_bool "floor forgotten" true (Lstf.last_rank t 1 = None);
  (* the reopened flow re-enters on raw deadlines: 3.0 now beats flow
     2's 5.0, where the stale floor (10.0) would have lost *)
  Lstf.enqueue t ~now:0.0 (dpkt 1 5 3.0);
  check_bool "reopened floor is the raw rank" true
    (Lstf.last_rank t 1 = Some 3.0);
  match Lstf.dequeue t ~now:0.0 with
  | Some p -> check_int "reopened flow serves first" 1 p.Packet.flow
  | None -> Alcotest.fail "dequeue found nothing"

let test_stale_floor_before_close_loses () =
  (* the other half of the reopen contract: without close_flow, the
     floor from deadline 10 makes the late packet rank 10 and flow 2
     (rank 5) wins *)
  let t = mk_lstf () in
  Lstf.enqueue t ~now:0.0 (dpkt 1 1 10.0);
  ignore (Lstf.dequeue t ~now:0.0);
  Lstf.enqueue t ~now:0.0 (dpkt 2 1 5.0);
  Lstf.enqueue t ~now:0.0 (dpkt 1 2 3.0);
  match Lstf.dequeue t ~now:0.0 with
  | Some p -> check_int "clamped flow waits" 2 p.Packet.flow
  | None -> Alcotest.fail "dequeue found nothing"

let test_residual_and_ties () =
  (* rank = deadline − residual; equal ranks break FIFO by default and
     by the tie override when given *)
  let mk ?tie () =
    Lstf.create ?tie
      ~residual:(fun p -> float_of_int p.Packet.len /. 1000.0)
      ~deadline:(fun p -> p.Packet.born)
      ()
  in
  let fill t =
    (* ranks: 10 − 1 = 9 and 11 − 2 = 9 — tied *)
    Lstf.enqueue t ~now:0.0 (Packet.make ~flow:1 ~seq:1 ~len:1000 ~born:10.0 ());
    Lstf.enqueue t ~now:0.0 (Packet.make ~flow:2 ~seq:1 ~len:2000 ~born:11.0 ())
  in
  let t = mk () in
  fill t;
  (match Lstf.dequeue t ~now:0.0 with
  | Some p -> check_int "FIFO tie-break" 1 p.Packet.flow
  | None -> Alcotest.fail "dequeue found nothing");
  let t2 = mk ~tie:(Tag_queue.High_rate (fun f -> float_of_int f)) () in
  fill t2;
  match Lstf.dequeue t2 ~now:0.0 with
  | Some p -> check_int "tie override prefers the higher key" 2 p.Packet.flow
  | None -> Alcotest.fail "dequeue found nothing"

let test_sched_view () =
  let t = mk_lstf () in
  let s = Lstf.sched t in
  check_bool "named lstf" true (s.Sched.name = "lstf");
  s.Sched.enqueue ~now:0.0 (dpkt 3 1 4.0);
  s.Sched.enqueue ~now:0.0 (dpkt 3 2 6.0);
  check_int "size" 2 (s.Sched.size ());
  check_int "backlog" 2 (s.Sched.backlog 3);
  check_int "peek is the least rank" 1 (Option.get (Lstf.peek t)).Packet.seq;
  ignore (s.Sched.close_flow ~now:0.0 3);
  check_int "close flushes" 0 (s.Sched.size ())

(* Random op soup: whatever the deadline pattern, per-flow service
   stays FIFO within a close_flow epoch and nothing raises — the rank
   floor is doing its job (the Flow_heap monotone-tag invariant would
   abort the run if it were not). *)
let lstf_ops_gen =
  QCheck.Gen.(
    list_size (int_range 10 120)
      (triple (int_range 0 3) (int_range 0 99) (int_range 0 5)))

let print_lstf_ops ops =
  String.concat ";"
    (List.map (fun (f, d, k) -> Printf.sprintf "(%d,%d,%d)" f d k) ops)

let prop_lifecycle_soup =
  QCheck.Test.make ~count:200
    ~name:"per-flow FIFO within each epoch under op soup"
    (QCheck.make ~print:print_lstf_ops lstf_ops_gen)
    (fun ops ->
      let t = mk_lstf () in
      let seqs = Array.make 4 0 in
      let epoch = Array.make 4 0 in
      let served = ref [] in
      (* stamp the flow's close epoch at service time: close flushes
         the whole queue, so a served packet always belongs to its
         flow's current epoch *)
      let serve (p : Packet.t) =
        served :=
          (p.Packet.flow, epoch.(p.Packet.flow), p.Packet.seq) :: !served
      in
      List.iter
        (fun (f, d, k) ->
          match k with
          | 0 | 1 | 2 ->
            seqs.(f) <- seqs.(f) + 1;
            Lstf.enqueue t ~now:0.0 (dpkt f seqs.(f) (float_of_int d))
          | 3 -> (
            match Lstf.dequeue t ~now:0.0 with Some p -> serve p | None -> ())
          | 4 ->
            ignore
              (Lstf.evict t
                 (if d mod 2 = 0 then Sched.Oldest else Sched.Newest)
                 f)
          | _ ->
            ignore (Lstf.close_flow t f);
            (* a reopened flow restarts its seq space *)
            epoch.(f) <- epoch.(f) + 1;
            seqs.(f) <- 0)
        ops;
      List.iter serve (Sched.drain (Lstf.sched t) ~now:0.0);
      let last = Hashtbl.create 16 in
      List.for_all
        (fun (f, e, seq) ->
          (* eviction only removes packets, so the surviving seqs of
             one (flow, epoch) must still be served increasing *)
          let prev = Option.value ~default:0 (Hashtbl.find_opt last (f, e)) in
          Hashtbl.replace last (f, e) seq;
          seq > prev)
        (List.rev !served))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "replay"
    [
      ( "single-hop",
        [
          Alcotest.test_case "record/replay round trip" `Quick test_roundtrip;
          Alcotest.test_case "reflexive on sfq/fifo/drr" `Quick
            test_reflexive_directed;
          Alcotest.test_case "churn/buffer/rate-fluctuation rejected" `Quick
            test_workload_guards;
          Alcotest.test_case "packet absent from schedule raises" `Quick
            test_unknown_packet_rejected;
          Alcotest.test_case "every discipline replays on the theorem pool"
            `Quick test_suite_cells_replayed;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "directed kills at 1/2/4/8 domains" `Quick
            test_directed_kills_all_domains;
          Alcotest.test_case "net wrong-slack kill at 1/2/4/8 domains" `Quick
            test_net_wrong_slack_kill_all_domains;
        ] );
      ( "network",
        [
          Alcotest.test_case "E28 rows: grid replays, control diverges" `Quick
            test_e28_rows;
          Alcotest.test_case "record_net guards churn and buffers" `Quick
            test_record_net_guards;
          Alcotest.test_case "star4 recording: exact replay, stable hash" `Quick
            test_replay_exact_and_hash_stable;
          Alcotest.test_case "Topo.residuals are route-aware" `Quick
            test_residuals_route_aware;
          q prop_net_replay_reflexive;
        ] );
      ( "lstf-lifecycle",
        [
          Alcotest.test_case "floor clamps undercutting deadlines" `Quick
            test_floor_clamps_undercutting_deadline;
          Alcotest.test_case "evict keeps the floor charged" `Quick
            test_evict_keeps_floor;
          Alcotest.test_case "close forgets the floor; reopen is raw" `Quick
            test_close_forgets_floor;
          Alcotest.test_case "stale floor loses until closed" `Quick
            test_stale_floor_before_close_loses;
          Alcotest.test_case "residual ranks and tie orders" `Quick
            test_residual_and_ties;
          Alcotest.test_case "sched view" `Quick test_sched_view;
          q prop_lifecycle_soup;
        ] );
    ]
