(* The programmable-scheduler runtime, held to the hand-written
   originals: every Programs rank program runs the same dyadic
   scenarios as its frozen counterpart and must return the {e same
   physical packets} in the same order from every dequeue, evict and
   close; outcome digests must agree over the frozen theorem pool at
   1/2/4/8 domains; the runtime core itself is modelled against a
   naive sorted list under qcheck; the unshaped hot path must not
   allocate in steady state; and user ranks must saturate at the Tag
   rail, never wrap. *)

open Sfq_base
module Rng = Sfq_util.Rng
module Tag = Sfq_pifo.Tag
module Tag_queue = Sfq_sched.Tag_queue
module Sfq = Sfq_core.Sfq
module Scfq = Sfq_sched.Scfq
module Vc = Sfq_sched.Virtual_clock
module Edd = Sfq_sched.Delay_edd
module Fqs = Sfq_sched.Fqs
module Wf2q = Sfq_sched.Wf2q
module Hsfq = Sfq_core.Hsfq
module Rank_program = Sfq_pifo.Rank_program
module Pifo = Sfq_pifo.Pifo_sched
module Programs = Sfq_pifo.Programs
module Ptree = Sfq_pifo.Pifo_tree
module O = Sfq_oracle

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

(* ------------------------------------------------------------------ *)
(* Dyadic differential scenarios (weights and rate overrides from
   100·2^k, lengths multiples of 100, clocks in quarter steps — every
   tag arithmetic step is exact in 20 fractional bits, so the ports
   promise packet-for-packet identity with the float originals).      *)

let dyadic_rates = [| 100.0; 200.0; 400.0; 800.0; 1600.0; 3200.0 |]

type action =
  | Enq of Packet.t
  | Deq
  | Evict of Sched.victim * int
  | Close of int

let gen_scenario seed =
  let r = Rng.create seed in
  let nflows = 1 + Rng.int r 4 in
  let weights =
    List.init nflows (fun f -> (f, dyadic_rates.(Rng.int r (Array.length dyadic_rates))))
  in
  let seqs = Array.make nflows 0 in
  let now = ref 0.0 in
  let nops = 40 + Rng.int r 120 in
  let ops = ref [] in
  for _ = 1 to nops do
    now := !now +. (0.25 *. float_of_int (Rng.int r 5));
    let t = !now in
    let a =
      let roll = Rng.int r 100 in
      if roll < 55 then begin
        let f = Rng.int r nflows in
        seqs.(f) <- seqs.(f) + 1;
        let len = 100 * (1 + Rng.int r 15) in
        let rate =
          if Rng.int r 4 = 0 then
            Some dyadic_rates.(Rng.int r (Array.length dyadic_rates))
          else None
        in
        Enq (Packet.make ?rate ~flow:f ~seq:seqs.(f) ~len ~born:t ())
      end
      else if roll < 85 then Deq
      else if roll < 93 then
        Evict ((if Rng.bool r then Sched.Oldest else Sched.Newest), Rng.int r nflows)
      else Close (Rng.int r nflows)
    in
    ops := (t, a) :: !ops
  done;
  (weights, List.rev !ops, !now)

let pkt_str = function
  | None -> "None"
  | Some p -> Printf.sprintf "flow %d seq %d len %d" p.Packet.flow p.Packet.seq p.Packet.len

let popt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some p, Some q -> p == q
  | _ -> false

(* Both schedulers see the same physical packets, so equivalence is
   physical equality of every dequeue/evict/close result. *)
let run_differential ~name mk_float mk_pifo (weights, ops, final) =
  let w = Weights.of_list ~default:1.0 weights in
  let a = mk_float w in
  let b = mk_pifo w in
  List.iteri
    (fun i (now, action) ->
      match action with
      | Enq p ->
        a.Sched.enqueue ~now p;
        b.Sched.enqueue ~now p
      | Deq ->
        let x = a.Sched.dequeue ~now in
        let y = b.Sched.dequeue ~now in
        if not (popt_equal x y) then
          Alcotest.failf "%s: op %d dequeue at %g: float %s, pifo %s" name i now
            (pkt_str x) (pkt_str y)
      | Evict (v, f) ->
        let x = a.Sched.evict ~now v f in
        let y = b.Sched.evict ~now v f in
        if not (popt_equal x y) then
          Alcotest.failf "%s: op %d evict flow %d: float %s, pifo %s" name i f
            (pkt_str x) (pkt_str y)
      | Close f ->
        let x = a.Sched.close_flow ~now f in
        let y = b.Sched.close_flow ~now f in
        if List.length x <> List.length y || not (List.for_all2 ( == ) x y) then
          Alcotest.failf "%s: op %d close flow %d: %d vs %d packets (or order differs)"
            name i f (List.length x) (List.length y))
    ops;
  check_int (name ^ ": residual backlog") (a.Sched.size ()) (b.Sched.size ());
  let da = Sched.drain a ~now:final in
  let db = Sched.drain b ~now:final in
  if List.length da <> List.length db || not (List.for_all2 ( == ) da db) then
    Alcotest.failf "%s: final drain order diverges" name

let tie_of w = function
  | `Arrival -> Tag_queue.Arrival
  | `Low -> Tag_queue.Low_rate (Weights.get w)
  | `High -> Tag_queue.High_rate (Weights.get w)

let tie_name = function `Arrival -> "arrival" | `Low -> "low" | `High -> "high"
let ties = [ `Arrival; `Low; `High ]
let pifo ?tie prog = Pifo.sched (Pifo.create ?tie prog)

let test_sfq_program_differential () =
  List.iter
    (fun tie ->
      List.iter
        (fun (bname, busy) ->
          for seed = 1 to 20 do
            let name = Printf.sprintf "sfq[%s/%s] seed %d" (tie_name tie) bname seed in
            run_differential ~name
              (fun w -> Sfq.sched (Sfq.create ~tie:(tie_of w tie) ~busy_rule:busy w))
              (fun w -> pifo ~tie:(tie_of w tie) (Programs.sfq ~busy_rule:busy w))
              (gen_scenario (seed * 6101))
          done)
        [ ("idle_poll", Sfq.Idle_poll); ("on_empty", Sfq.On_empty) ])
    ties

let test_scfq_program_differential () =
  List.iter
    (fun tie ->
      for seed = 1 to 20 do
        let name = Printf.sprintf "scfq[%s] seed %d" (tie_name tie) seed in
        run_differential ~name
          (fun w -> Scfq.sched (Scfq.create ~tie:(tie_of w tie) w))
          (fun w -> pifo ~tie:(tie_of w tie) (Programs.scfq w))
          (gen_scenario ((seed * 6101) + 1))
      done)
    ties

let test_vc_program_differential () =
  List.iter
    (fun tie ->
      for seed = 1 to 20 do
        let name = Printf.sprintf "vc[%s] seed %d" (tie_name tie) seed in
        run_differential ~name
          (fun w -> Vc.sched (Vc.create ~tie:(tie_of w tie) w))
          (fun w -> pifo ~tie:(tie_of w tie) (Programs.virtual_clock w))
          (gen_scenario ((seed * 6101) + 2))
      done)
    ties

let edd_specs weights =
  List.map
    (fun (f, r) -> (f, { Edd.rate = r; deadline = 1.0; max_len = 1500 }))
    weights

let test_edd_program_differential () =
  for seed = 1 to 20 do
    let name = Printf.sprintf "edd seed %d" seed in
    let ((weights, _, _) as scenario) = gen_scenario ((seed * 6101) + 3) in
    let specs = edd_specs weights in
    run_differential ~name
      (fun _ -> Edd.sched (Edd.create specs))
      (fun _ -> pifo (Programs.delay_edd specs))
      scenario
  done

(* The GPS-clocked programs rank by fluid tags whose divisions are not
   dyadic in general, but encoding is monotone (round-to-nearest of a
   non-decreasing map), so on these scenarios the quantized order
   still matches the float order packet-for-packet — the frozen seeds
   pin that. *)
let gps_capacity = 800.0

let test_fqs_program_differential () =
  List.iter
    (fun tie ->
      for seed = 1 to 20 do
        let name = Printf.sprintf "fqs[%s] seed %d" (tie_name tie) seed in
        run_differential ~name
          (fun w -> Fqs.sched (Fqs.create ~capacity:gps_capacity ~tie:(tie_of w tie) w))
          (fun w -> pifo ~tie:(tie_of w tie) (Programs.fqs ~capacity:gps_capacity w))
          (gen_scenario ((seed * 6101) + 4))
      done)
    ties

let test_wf2q_program_differential () =
  List.iter
    (fun tie ->
      for seed = 1 to 20 do
        let name = Printf.sprintf "wf2q[%s] seed %d" (tie_name tie) seed in
        run_differential ~name
          (fun w -> Wf2q.sched (Wf2q.create ~capacity:gps_capacity ~tie:(tie_of w tie) w))
          (fun w -> pifo ~tie:(tie_of w tie) (Programs.wf2q ~capacity:gps_capacity w))
          (gen_scenario ((seed * 6101) + 5))
      done)
    ties

(* ------------------------------------------------------------------ *)
(* Hierarchy: the int-tag PIFO tree vs the float class tree, inner
   SFQ leaves on both sides (float leaves run the float Sfq, tree
   leaves run the pifo-sfq rank program — each pair is itself
   differentially identical, so any divergence is the tree's).          *)

let split_classes weights =
  List.partition (fun (f, _) -> f mod 2 = 0) weights

let float_hier weights =
  let left_flows, right_flows = split_classes weights in
  let h = Hsfq.create () in
  let root = Hsfq.root h in
  let leaves_under parent flows =
    List.map
      (fun (f, r) ->
        let w = Weights.of_list ~default:1.0 [ (f, r) ] in
        (f, Hsfq.add_leaf h ~parent ~weight:r (Sfq.sched (Sfq.create w))))
      flows
  in
  let leaves =
    (if left_flows = [] then []
     else leaves_under (Hsfq.add_class h ~parent:root ~weight:200.0) left_flows)
    @
    if right_flows = [] then []
    else leaves_under (Hsfq.add_class h ~parent:root ~weight:100.0) right_flows
  in
  Hsfq.set_classifier h (Hsfq.classifier_by_flow leaves);
  Hsfq.sched h

let pifo_hier weights =
  let left_flows, right_flows = split_classes weights in
  let h = Ptree.create () in
  let root = Ptree.root h in
  let leaves_under parent flows =
    List.map
      (fun (f, r) ->
        let w = Weights.of_list ~default:1.0 [ (f, r) ] in
        (f, Ptree.add_leaf h ~parent ~weight:r (pifo (Programs.sfq w))))
      flows
  in
  let leaves =
    (if left_flows = [] then []
     else leaves_under (Ptree.add_class h ~parent:root ~weight:200.0) left_flows)
    @
    if right_flows = [] then []
    else leaves_under (Ptree.add_class h ~parent:root ~weight:100.0) right_flows
  in
  Ptree.set_classifier h (Ptree.classifier_by_flow leaves);
  Ptree.sched h

let test_hsfq_tree_differential () =
  for seed = 1 to 20 do
    let name = Printf.sprintf "hsfq seed %d" seed in
    let ((weights, _, _) as scenario) = gen_scenario ((seed * 6101) + 6) in
    run_differential ~name
      (fun _ -> float_hier weights)
      (fun _ -> pifo_hier weights)
      scenario
  done

(* ------------------------------------------------------------------ *)
(* Oracle digests: every port ≡ its original at 1/2/4/8 domains.
   outcome_digest covers departures, finish time and violations — the
   cross-implementation invariant that survives fixed-point
   quantization on the non-dyadic pool traces (both sides are
   work-conserving, so busy periods and their end times coincide).      *)

let structural_cell ~what mk =
  List.mapi (fun i w ->
      {
        O.Run.label = Printf.sprintf "%s#%d" what i;
        workload = w;
        driver =
          (fun () ->
            { O.Run.sched = mk w; monitors = O.Suite.structural (); on_reweight = None });
      })

let by_prefix prefix cells =
  List.filter
    (fun (c : O.Run.cell) -> String.starts_with ~prefix (c.O.Run.label))
    cells

let assert_port_digests_match ~what float_cells pifo_cells =
  check_int (what ^ ": cell counts line up")
    (List.length float_cells) (List.length pifo_cells);
  let digests ~domains cells =
    Array.map O.Run.outcome_digest (O.Run.sweep ~domains cells)
  in
  let reference = digests ~domains:1 float_cells in
  List.iter
    (fun domains ->
      let fd = digests ~domains pifo_cells in
      Array.iteri
        (fun i expected ->
          check_string
            (Printf.sprintf "%s cell %d at %d domains" what i domains)
            expected fd.(i))
        reference)
    [ 1; 2; 4; 8 ]

let test_port_digests_across_domains () =
  let pool = take 18 (O.Suite.theorem_pool ()) in
  let pifo_cells = O.Suite.pifo_cells ~pool () in
  let weights_of (w : O.Workload.t) = Weights.of_list ~default:1.0 w.O.Workload.weights in
  let specs (w : O.Workload.t) = edd_specs w.O.Workload.weights in
  List.iter
    (fun (what, float_cells) ->
      assert_port_digests_match ~what float_cells
        (by_prefix (what ^ "#") pifo_cells))
    [
      ("pifo-sfq", O.Suite.sfq_cells ~pool ());
      ("pifo-scfq", O.Suite.scfq_cells ~pool ());
      ( "pifo-vc",
        structural_cell ~what:"vc" (fun w -> Vc.sched (Vc.create (weights_of w))) pool );
      ( "pifo-edd",
        structural_cell ~what:"edd" (fun w -> Edd.sched (Edd.create (specs w))) pool );
      ( "pifo-fqs",
        structural_cell ~what:"fqs"
          (fun w -> Fqs.sched (Fqs.create ~capacity:w.O.Workload.capacity (weights_of w)))
          pool );
      ( "pifo-wf2q",
        structural_cell ~what:"wf2q"
          (fun w -> Wf2q.sched (Wf2q.create ~capacity:w.O.Workload.capacity (weights_of w)))
          pool );
    ]

(* ------------------------------------------------------------------ *)
(* Runtime core model: push/pop/evict/close against a naive sorted
   list. The rank program is a per-flow byte counter (rank = bytes
   already queued by the flow), so per-flow ranks are non-decreasing
   — the runtime's documented precondition — and cross-flow ties are
   plentiful (every flow starts at 0), exercising FIFO-stable
   tie-breaking by global arrival order.                                *)

(* [MEvict_next] evicts from the flow whose head is served next: its
   heap entry is the root, the drop-front victim of an aggregate
   overflow. *)
type mop =
  | MPush of int * int
  | MPop
  | MEvict of bool * int
  | MEvict_next of bool
  | MClose of int

let gen_mop =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun f l -> MPush (f, 100 * (1 + l))) (int_bound 2) (int_bound 9));
        (4, return MPop);
        (1, map2 (fun newest f -> MEvict (newest, f)) bool (int_bound 2));
        (2, map (fun newest -> MEvict_next newest) bool);
        (1, map (fun f -> MClose f) (int_bound 2));
      ])

let arb_mops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | MPush (f, l) -> Printf.sprintf "push(%d,%d)" f l
             | MPop -> "pop"
             | MEvict (n, f) -> Printf.sprintf "evict(%b,%d)" n f
             | MEvict_next n -> Printf.sprintf "evict_next(%b)" n
             | MClose f -> Printf.sprintf "close(%d)" f)
           ops))
    QCheck.Gen.(list_size (int_range 1 200) gen_mop)

let counter_prog () =
  let tags = Hashtbl.create 16 in
  let regs = Rank_program.regs () in
  {
    Rank_program.name = "model-counter";
    regs;
    shaped = false;
    rank =
      (fun ~now:_ ~slot:_ pkt ->
        let f = pkt.Packet.flow in
        let t = Option.value (Hashtbl.find_opt tags f) ~default:0 in
        Hashtbl.replace tags f (t + pkt.Packet.len);
        regs.aux <- t + pkt.Packet.len;
        t);
    on_dequeue = Rank_program.no_dequeue;
    on_idle = Rank_program.no_idle;
    horizon = Rank_program.no_horizon;
    attach = Rank_program.no_attach;
    on_close = (fun ~now:_ ~slot:_ f -> Hashtbl.remove tags f);
    vtime = Rank_program.no_vtime;
    stale = Rank_program.never_stale;
  }

(* Reference: entries in push order; service order is the stable sort
   by (rank, push index). *)
type mentry = { mkey : int; muid : int; mpkt : Packet.t }

let prop_runtime_matches_sorted_list =
  QCheck.Test.make ~count:300 ~name:"Pifo_sched == naive sorted list" arb_mops
    (fun ops ->
      let t = Pifo.create (counter_prog ()) in
      let model = ref [] (* newest first *) in
      let mtags = Hashtbl.create 16 in
      let uid = ref 0 in
      let seqs = Array.make 3 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let model_min () =
        List.fold_left
          (fun best e ->
            match best with
            | None -> Some e
            | Some b ->
              if (e.mkey, e.muid) < (b.mkey, b.muid) then Some e else Some b)
          None !model
      in
      let remove e = model := List.filter (fun x -> x != e) !model in
      let evict newest f =
        let got = Pifo.evict t (if newest then Sched.Newest else Sched.Oldest) f in
        let mine = List.filter (fun e -> e.mpkt.Packet.flow = f) !model in
        let want =
          (* newest first in [model], so hd = newest of the flow *)
          match mine with
          | [] -> None
          | hd :: _ when newest -> Some hd
          | l -> Some (List.nth l (List.length l - 1))
        in
        match (got, want) with
        | None, None -> ()
        | Some p, Some e when p == e.mpkt -> remove e
        | got, want ->
          fail "evict flow %d: runtime %s, model %s" f (pkt_str got)
            (pkt_str (Option.map (fun e -> e.mpkt) want))
      in
      List.iter
        (fun op ->
          match op with
          | MPush (f, len) ->
            seqs.(f) <- seqs.(f) + 1;
            let p = Packet.make ~flow:f ~seq:seqs.(f) ~len ~born:0.0 () in
            let k = Option.value (Hashtbl.find_opt mtags f) ~default:0 in
            Hashtbl.replace mtags f (k + len);
            Pifo.enqueue t ~now:0.0 p;
            incr uid;
            model := { mkey = k; muid = !uid; mpkt = p } :: !model
          | MPop -> (
            let got = Pifo.dequeue t ~now:0.0 in
            match (got, model_min ()) with
            | None, None -> ()
            | Some p, Some e when p == e.mpkt -> remove e
            | got, want ->
              fail "pop: runtime %s, model %s" (pkt_str got)
                (pkt_str (Option.map (fun e -> e.mpkt) want)))
          | MEvict (newest, f) -> evict newest f
          | MEvict_next newest -> (
            match model_min () with
            | Some e -> evict newest e.mpkt.Packet.flow
            | None -> evict newest 0)
          | MClose f ->
            let got = Pifo.close_flow t ~now:0.0 f in
            let want =
              List.rev
                (List.filter_map
                   (fun e -> if e.mpkt.Packet.flow = f then Some e.mpkt else None)
                   !model)
            in
            Hashtbl.remove mtags f;
            model := List.filter (fun e -> e.mpkt.Packet.flow <> f) !model;
            if
              List.length got <> List.length want
              || not (List.for_all2 ( == ) got want)
            then fail "close flow %d: %d vs %d packets" f (List.length got) (List.length want))
        ops;
      if Pifo.size t <> List.length !model then
        fail "size: runtime %d, model %d" (Pifo.size t) (List.length !model);
      for f = 0 to 2 do
        let b = List.length (List.filter (fun e -> e.mpkt.Packet.flow = f) !model) in
        if Pifo.backlog t f <> b then
          fail "backlog %d: runtime %d, model %d" f (Pifo.backlog t f) b
      done;
      true)

let test_fifo_stable_ties () =
  (* Three flows, all at rank 0: service must be global arrival order
     (the PIFO contract's FIFO tie stability), not heap layout. *)
  let t = Pifo.create (counter_prog ()) in
  let pkts =
    List.init 9 (fun i ->
        Packet.make ~flow:(i mod 3) ~seq:(1 + (i / 3)) ~len:100 ~born:0.0 ())
  in
  (* every flow's FIRST packet has rank 0; later ones rank 100, 200 —
     so service order is p0 p1 p2 (ties at 0), then p3 p4 p5 (100)… *)
  List.iter (Pifo.enqueue t ~now:0.0) pkts;
  List.iter
    (fun want ->
      let got = Pifo.dequeue_exn t in
      check_bool "FIFO-stable tie order" true (got == want))
    pkts;
  check_bool "drained" true (Pifo.is_empty t)

(* ------------------------------------------------------------------ *)
(* Stale slots: a runtime that gives a drained flow's slot back once the
   program calls its state stale must answer every call exactly like
   the same program that never does. Streams run 24-64 flows through a
   window of ten that slides along the ids and wraps, so flows go quiet
   and return; with the sweep mark at 16, sweeps fire.                 *)

type xop =
  | XEnq of int * int * int option  (* window offset, length, rate override *)
  | XDeq
  | XPeek
  | XEvict of bool * int  (* newest?, window offset *)
  | XClose of int
  | XGap of int  (* the clock jumps this many quarter seconds *)

type xcase = { nflows : int; rates : int array; xops : (int * xop) list }

let gen_xcase =
  QCheck.Gen.(
    let xop =
      frequency
        [
          ( 9,
            map3
              (fun o l r -> XEnq (o, 100 * (1 + l), r))
              (int_bound 9) (int_bound 14)
              (opt ~ratio:0.25 (int_bound (Array.length dyadic_rates - 1))) );
          (8, return XDeq);
          (1, return XPeek);
          (1, map2 (fun n o -> XEvict (n, o)) bool (int_bound 9));
          (1, map (fun o -> XClose o) (int_bound 9));
          (1, map (fun k -> XGap k) (int_range 4 80));
        ]
    in
    int_range 24 64 >>= fun nflows ->
    array_repeat nflows (int_bound (Array.length dyadic_rates - 1)) >>= fun rates ->
    list_size (int_range 150 400) (pair (int_bound 2) xop) >|= fun xops ->
    { nflows; rates; xops })

let print_xcase c =
  Printf.sprintf "%d flows; %s" c.nflows
    (String.concat ";"
       (List.map
          (fun (dt, op) ->
            Printf.sprintf "+%d:%s" dt
              (match op with
              | XEnq (o, l, r) ->
                Printf.sprintf "enq(%d,%d%s)" o l
                  (match r with None -> "" | Some r -> Printf.sprintf ",r%d" r)
              | XDeq -> "deq"
              | XPeek -> "peek"
              | XEvict (n, o) -> Printf.sprintf "evict(%b,%d)" n o
              | XClose o -> Printf.sprintf "close(%d)" o
              | XGap k -> Printf.sprintf "gap(%d)" k))
          c.xops))

type stale_config = {
  cname : string;
  overrides : bool;  (* honour the stream's rate overrides *)
  ctie : [ `Arrival | `Low | `High ];
  mk : (Packet.flow * float) list -> Rank_program.t;
  swept : int ref;  (* cases in which a sweep gave a slot back *)
  back : int ref;  (* slots given back, over all cases *)
}

let stale_configs =
  let cfg cname ?(overrides = true) ?(ctie = `Arrival) mk =
    { cname; overrides; ctie; mk; swept = ref 0; back = ref 0 }
  in
  let w = Weights.of_list ~default:1.0 in
  List.concat_map
    (fun ctie ->
      List.concat_map
        (fun (bname, busy_rule) ->
          List.map
            (fun overrides ->
              cfg
                (Printf.sprintf "pifo-sfq[%s/%s%s]" (tie_name ctie) bname
                   (if overrides then "/overrides" else ""))
                ~overrides ~ctie
                (fun ws -> Programs.sfq ~busy_rule (w ws)))
            [ false; true ])
        [ ("idle_poll", Sfq.Idle_poll); ("on_empty", Sfq.On_empty) ])
    ties
  @ [
      cfg "pifo-scfq" (fun ws -> Programs.scfq (w ws));
      cfg "pifo-vc" (fun ws -> Programs.virtual_clock (w ws));
      cfg "pifo-edd" (fun ws -> Programs.delay_edd (edd_specs ws));
    ]

let run_stale_pair cfg c =
  let ws = List.init c.nflows (fun f -> (f, dyadic_rates.(c.rates.(f)))) in
  let tie = tie_of (Weights.of_list ~default:1.0 ws) cfg.ctie in
  let a = Pifo.create ~tie (cfg.mk ws) in
  let b = Pifo.create ~tie { (cfg.mk ws) with Rank_program.stale = Rank_program.never_stale } in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let same_opt what i x y =
    if not (popt_equal x y) then fail "op %d %s: swept %s, kept %s" i what (pkt_str x) (pkt_str y)
  in
  let seqs = Array.make c.nflows 0 in
  let now = ref 0.0 in
  List.iteri
    (fun i (dt, op) ->
      let dt = match op with XGap k -> dt + k | _ -> dt in
      now := !now +. (0.25 *. float_of_int dt);
      let now = !now in
      let flow o = ((i / 6) + o) mod c.nflows in
      (match op with
      | XEnq (o, len, r) ->
        let f = flow o in
        seqs.(f) <- seqs.(f) + 1;
        let rate =
          match r with Some r when cfg.overrides -> Some dyadic_rates.(r) | _ -> None
        in
        let p = Packet.make ?rate ~flow:f ~seq:seqs.(f) ~len ~born:now () in
        Pifo.enqueue a ~now p;
        Pifo.enqueue b ~now p
      | XDeq -> same_opt "dequeue" i (Pifo.dequeue a ~now) (Pifo.dequeue b ~now)
      | XPeek -> same_opt "peek" i (Pifo.peek a) (Pifo.peek b)
      | XEvict (newest, o) ->
        let v = if newest then Sched.Newest else Sched.Oldest in
        same_opt "evict" i (Pifo.evict a v (flow o)) (Pifo.evict b v (flow o))
      | XClose o ->
        let x = Pifo.close_flow a ~now (flow o) and y = Pifo.close_flow b ~now (flow o) in
        if List.length x <> List.length y || not (List.for_all2 ( == ) x y) then
          fail "op %d close flow %d: %d vs %d packets (or order differs)" i (flow o)
            (List.length x) (List.length y)
      | XGap _ -> ());
      if Pifo.size a <> Pifo.size b then
        fail "op %d: size %d vs %d" i (Pifo.size a) (Pifo.size b);
      if Pifo.vtime a <> Pifo.vtime b then
        fail "op %d: vtime %h vs %h" i (Pifo.vtime a) (Pifo.vtime b);
      for f = 0 to c.nflows - 1 do
        if Pifo.backlog a f <> Pifo.backlog b f then
          fail "op %d: backlog of flow %d %d vs %d" i f (Pifo.backlog a f) (Pifo.backlog b f)
      done)
    c.xops;
  if Pifo.reclaimed b <> 0 then fail "never_stale gave %d slots back" (Pifo.reclaimed b);
  if Pifo.reclaimed a > 0 then begin
    incr cfg.swept;
    cfg.back := !(cfg.back) + Pifo.reclaimed a
  end;
  true

(* Fixed seed, so the non-vacuity counts below are reproducible. *)
let test_stale_exact () =
  let cases = 100 in
  List.iter
    (fun cfg ->
      QCheck.Test.check_exn ~rand:(Random.State.make [| 28 |])
        (QCheck.Test.make ~count:cases ~name:cfg.cname
           (QCheck.make ~print:print_xcase gen_xcase)
           (run_stale_pair cfg));
      Printf.printf "%s: %d of %d cases swept, %d slots given back\n" cfg.cname !(cfg.swept)
        cases !(cfg.back);
      check_bool (cfg.cname ^ ": some sweep gave a slot back") true (!(cfg.back) > 0))
    stale_configs

(* ------------------------------------------------------------------ *)
(* Allocation: the unshaped runtime hot path allocates nothing in
   steady state.                                                        *)

let alloc_pkts n = Array.init n (fun f -> Packet.make ~flow:f ~seq:1 ~len:1000 ~born:0.0 ())

let alloc_delta step =
  for _ = 1 to 2_000 do
    step ()
  done;
  Gc.compact ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    step ()
  done;
  Gc.minor_words () -. before

let test_zero_alloc_steady_state () =
  let n = 32 in
  let stepper prog () =
    let t = Pifo.create ~capacity:64 (prog ()) in
    let pkts = alloc_pkts n in
    Array.iter (Pifo.enqueue t ~now:0.0) pkts;
    let i = ref 0 in
    fun () ->
      Pifo.enqueue t ~now:0.0 pkts.(!i);
      i := (!i + 1) land (n - 1);
      ignore (Pifo.dequeue_exn t)
  in
  List.iter
    (fun (name, mk) ->
      let d = alloc_delta (mk ()) in
      check_bool (Printf.sprintf "%s: %.0f minor words over 10k op pairs" name d) true
        (d <= 64.0))
    [
      ("pifo-sfq", stepper (fun () -> Programs.sfq (Weights.uniform 100.0)));
      ("pifo-scfq", stepper (fun () -> Programs.scfq (Weights.uniform 100.0)));
      ("pifo-vc", stepper (fun () -> Programs.virtual_clock (Weights.uniform 100.0)));
    ]

(* A churned link's lifecycle: every cycle a new flow arrives, is
   served and closes, ids rotating through a window. Slots, rings and
   per-flow state are all reused, and an activation stores its rate
   unboxed, so a cycle allocates nothing (it cost the boxed rate, 2
   words, while activation went through [Tag.scale_over]). *)
let test_lifecycle_alloc () =
  let ids = 1024 in
  let t = Pifo.create (Programs.sfq (Weights.uniform 100.0)) in
  let pkts =
    Array.init ids (fun f -> Packet.make ~flow:(f * 37) ~seq:1 ~len:1000 ~born:0.0 ())
  in
  let i = ref 0 in
  let step () =
    let p = pkts.(!i) in
    Pifo.enqueue t ~now:0.0 p;
    ignore (Pifo.dequeue_exn t);
    ignore (Pifo.close_flow t ~now:0.0 p.Packet.flow);
    i := (!i + 1) land (ids - 1)
  in
  let d = alloc_delta step in
  check_bool
    (Printf.sprintf "%.0f minor words over 10k enqueue/dequeue/close cycles (<= 3 per cycle)" d)
    true (d <= 30_000.0)

(* The sched-backlog benchmark's shape: 1024 flows 64 deep, weights
   1024·2^k, its four packet lengths. Each served packet rejoins its
   flow's tail, so every flow stays exactly 64 deep, as the benchmark's
   weight-proportional arrivals keep its flows on average. A warm
   dequeue/enqueue pair through PIFO-SFQ allocates nothing: at depth,
   the rank store costs sifts, not garbage. *)
let test_backlog_zero_alloc () =
  let flows = 1024 and depth = 64 and lens = [| 512; 4096; 8192; 12288 |] in
  let rng = Rng.create 3 in
  let w = List.init flows (fun f -> (f, 1024.0 *. float_of_int (1 lsl Rng.int rng 5))) in
  let t = Pifo.create (Programs.sfq (Weights.of_list w)) in
  for i = 0 to (flows * depth) - 1 do
    Pifo.enqueue t ~now:0.0
      (Packet.make ~flow:(i mod flows) ~seq:((i / flows) + 1) ~len:lens.(Rng.int rng 4)
         ~born:0.0 ())
  done;
  let step () = Pifo.enqueue t ~now:0.0 (Pifo.dequeue_exn t) in
  let d = alloc_delta step in
  check_int "backlog kept" (flows * depth) (Pifo.size t);
  check_bool (Printf.sprintf "%.0f minor words over 10k op pairs at depth" d) true (d = 0.0)

(* Flows that each send one packet, are served, and go idle: the idle
   poll lifts v to the finish tag, so a sweep finds every drained flow
   stale. Warm, the sweeps give slots back without allocating — the
   slot bookkeeping, the free stack and the 8-slot rings are all
   reused, and a flow's activation reads its weight into an unboxed
   array — and the runtime holds slots for about 16 flows, not for
   every id it saw. *)
let test_sweep_zero_alloc () =
  let ids = 1024 in
  let t = Pifo.create (Programs.sfq (Weights.uniform 100.0)) in
  let pkts =
    Array.init ids (fun f -> Packet.make ~flow:(f * 37) ~seq:1 ~len:1000 ~born:0.0 ())
  in
  let i = ref 0 in
  let step () =
    Pifo.enqueue t ~now:0.0 pkts.(!i);
    ignore (Pifo.dequeue_exn t);
    ignore (Pifo.dequeue t ~now:0.0 : Packet.t option);
    i := (!i + 1) land (ids - 1)
  in
  let d = alloc_delta step in
  (* 12k cycles, one new flow each *)
  check_bool
    (Printf.sprintf "%d slots given back by sweeps" (Pifo.reclaimed t))
    true
    (Pifo.reclaimed t >= 11_900);
  check_bool (Printf.sprintf "%d flows hold a slot" (Pifo.slots t)) true (Pifo.slots t <= 16);
  check_bool (Printf.sprintf "%.0f minor words over 10k sweeping cycles" d) true (d = 0.0)

(* ------------------------------------------------------------------ *)
(* Rank clamping: user programs cannot wrap the order.                  *)

let const_rank_prog ranks =
  let i = ref (-1) in
  let regs = Rank_program.regs () in
  {
    Rank_program.name = "wild-ranks";
    regs;
    shaped = false;
    rank =
      (fun ~now:_ ~slot:_ _ ->
        incr i;
        ranks.(!i));
    on_dequeue = Rank_program.no_dequeue;
    on_idle = Rank_program.no_idle;
    horizon = Rank_program.no_horizon;
    attach = Rank_program.no_attach;
    on_close = Rank_program.no_close;
    vtime = Rank_program.no_vtime;
    stale = Rank_program.never_stale;
  }

let test_rank_saturation_rail () =
  (* A wild program emits a negative rank, an overflowing one, then a
     plain zero. Negative clamps to 0, max_int saturates to the Tag
     rail; the order stays total and FIFO-stable at each clamp — wild
     ranks degrade, they never wrap ahead. *)
  let t = Pifo.create (const_rank_prog [| -100; max_int; 0 |]) in
  let p1 = Packet.make ~flow:0 ~seq:1 ~len:100 ~born:0.0 () in
  let p2 = Packet.make ~flow:1 ~seq:1 ~len:100 ~born:0.0 () in
  let p3 = Packet.make ~flow:2 ~seq:1 ~len:100 ~born:0.0 () in
  check_bool "fresh runtime unsaturated" false (Pifo.saturated t);
  Pifo.enqueue t ~now:0.0 p1;
  Pifo.enqueue t ~now:0.0 p2;
  check_bool "saturated after the max_int rank" true (Pifo.saturated t);
  check_int "high watermark is the rail, not a wrap" Tag.max_tag (Pifo.high_tag t);
  Pifo.enqueue t ~now:0.0 p3;
  check_bool "p1 first (clamped to 0, earlier arrival)" true (Pifo.dequeue_exn t == p1);
  check_bool "p3 second (rank 0)" true (Pifo.dequeue_exn t == p3);
  check_bool "p2 last (saturated, did not wrap negative)" true (Pifo.dequeue_exn t == p2);
  check_bool "drained" true (Pifo.is_empty t)

let test_flow_validation () =
  let t = Pifo.create (counter_prog ()) in
  Alcotest.check_raises "negative flow rejected"
    (Invalid_argument "Pifo_sched.enqueue: flow id must be >= 0") (fun () ->
      Pifo.enqueue t ~now:0.0 (Packet.make ~flow:(-1) ~seq:1 ~len:100 ~born:0.0 ()))

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "pifo_equiv"
    [
      ( "differential",
        [
          Alcotest.test_case "pifo-sfq == sfq (dyadic)" `Quick test_sfq_program_differential;
          Alcotest.test_case "pifo-scfq == scfq (dyadic)" `Quick
            test_scfq_program_differential;
          Alcotest.test_case "pifo-vc == vc (dyadic)" `Quick test_vc_program_differential;
          Alcotest.test_case "pifo-edd == edd (dyadic)" `Quick test_edd_program_differential;
          Alcotest.test_case "pifo-fqs == fqs (dyadic)" `Quick test_fqs_program_differential;
          Alcotest.test_case "pifo-wf2q == wf2q (dyadic)" `Quick
            test_wf2q_program_differential;
          Alcotest.test_case "pifo-hsfq == hsfq (dyadic)" `Quick test_hsfq_tree_differential;
        ] );
      ( "digest",
        [
          Alcotest.test_case "every port matches its original at 1/2/4/8 domains" `Slow
            test_port_digests_across_domains;
        ] );
      ( "model",
        [
          q prop_runtime_matches_sorted_list;
          Alcotest.test_case "FIFO-stable ties" `Quick test_fifo_stable_ties;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "zero-alloc steady state" `Quick test_zero_alloc_steady_state;
          Alcotest.test_case "flow lifecycle <= 3 words per cycle" `Quick test_lifecycle_alloc;
          Alcotest.test_case "sched-backlog shape: zero-alloc at depth" `Quick
            test_backlog_zero_alloc;
          Alcotest.test_case "warm sweeps give slots back with zero alloc" `Quick
            test_sweep_zero_alloc;
        ] );
      ( "stale",
        [
          Alcotest.test_case "sweeping == never_stale, op for op" `Quick test_stale_exact;
        ] );
      ( "saturation",
        [
          Alcotest.test_case "rank clamp rail" `Quick test_rank_saturation_rail;
          Alcotest.test_case "flow validation" `Quick test_flow_validation;
        ] );
    ]
