open Sfq_base
open Sfq_netsim
module Monitor = Sfq_oracle.Monitor
module E2e = Sfq_oracle.E2e_oracle
module Bounds = Sfq_core.Bounds
module Rng = Sfq_util.Rng

type scenario = {
  label : string;
  spec : Topo.spec;
  disc : Disc.spec;
  seed : int;
  flows : int;
  window : int;
  pkts_per_flow : int;
  len : int;
  reserved : int;
  reserved_pkts : int option;
  churn : bool;
  buffer : Buffered.config option;
  load : float;
  access_rate : float;
  core_rate : float;
  prop_delay : float;
  monitors : bool;
  checkpoints : int;
  skip_hop : int option;
}

let scenario ?(flows = 48) ?(window = 16) ?(pkts_per_flow = 2) ?(len = 8192)
    ?(reserved = 2) ?reserved_pkts ?(churn = false) ?buffer ?(load = 0.5)
    ?(access_rate = 1_048_576.0) ?(core_rate = 1_048_576.0)
    ?(prop_delay = 0.0009765625) ?(monitors = true) ?(checkpoints = 4) ?skip_hop
    ?(seed = 0x5eed) ~label ~spec ~disc () =
  if flows < 0 || window < 0 || pkts_per_flow < 1 || len < 1 || reserved < 0 then
    invalid_arg "Net_sweep.scenario: negative or empty sizing";
  if load <= 0.0 then invalid_arg "Net_sweep.scenario: load must be positive";
  if churn && window < 1 then
    invalid_arg "Net_sweep.scenario: churn needs a window >= 1";
  {
    label;
    spec;
    disc;
    seed;
    flows;
    window;
    pkts_per_flow;
    len;
    reserved;
    reserved_pkts;
    churn;
    buffer;
    load;
    access_rate;
    core_rate;
    prop_delay;
    monitors;
    checkpoints;
    skip_hop;
  }

let directed ?(disc = Disc.Sfq) ?skip_hop ~spec () =
  (* One reserved CBR flow per entry, no background population: the
     Thm 8/9 composition checked in isolation, where the per-hop
     constants are exact and a forgotten hop is guaranteed fatal. *)
  scenario ~flows:0 ~window:0 ~reserved:(Topo.spec_entries spec) ~reserved_pkts:8
    ?skip_hop
    ~label:(Printf.sprintf "directed/%s/%s" (Topo.spec_name spec) (Disc.name disc))
    ~spec ~disc ()

type outcome = {
  injected : int;
  delivered : int;
  dropped : int;
  closed : int;
  in_flight : int;
  finished_at : float;
  high_water : int;
  peak_live : int;
  order_hash : int64;
  e2e_checked : int;
  e2e_lost : int;
  min_slack : float;
  violations : Monitor.violation list;
  events : int;
}

(* FNV-1a over the little-endian bytes of each mixed word: an order-
   and value-sensitive hash of the delivery stream that needs no
   buffering (a million-flow run must not accumulate a digest
   transcript). The 64-bit state lives in 8 bytes rather than a boxed
   [Int64], so folding a delivery in allocates nothing. *)
let fnv_prime = 0x100000001b3L

let fnv_create () =
  let st = Bytes.create 8 in
  Bytes.set_int64_le st 0 0xcbf29ce484222325L;
  st

(* Fold in the low [n] bytes of [x], least significant first. [asr]
   keeps a negative int's top byte equal to its sign-extended
   [Int64]'s. *)
let mix_bytes st x n =
  let h = ref (Bytes.get_int64_le st 0) in
  for i = 0 to n - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int ((x asr (8 * i)) land 0xff))) fnv_prime
  done;
  Bytes.set_int64_le st 0 !h

let mix_int st x = mix_bytes st x 8

(* The float's bit pattern, as two 32-bit halves (an OCaml int holds
   63 bits). *)
let mix_float st x =
  let v = Int64.bits_of_float x in
  mix_bytes st (Int64.to_int (Int64.logand v 0xffffffffL)) 4;
  mix_bytes st (Int64.to_int (Int64.shift_right_logical v 32)) 4


let bound_kind = function
  | Disc.Sfq | Disc.Pifo_sfq -> Some `Sfq
  | Disc.Scfq | Disc.Pifo_scfq -> Some `Scfq
  | _ -> None

(* [run_raw] is [run_scenario] with two replay hooks: [mk_link]
   overrides the inner discipline per link (by creation index — the
   deterministic order [Topo.build] calls [mk_sched], which is how an
   LSTF replay gives every hop its own residual), and [tap] observes
   the delivery stream (the schedule recorder). Monitors, oracles,
   churn and conservation probes are identical either way. *)
let run_raw ?mk_link ?(tap = fun (_ : Packet.t) ~at:(_ : float) -> ()) (s : scenario)
    =
  (* Audit (parallel safety): every mutable structure — simulator,
     topology, registry, RNG, monitors, hash state — is created here,
     inside the call, so scenarios can execute on worker domains
     concurrently; the returned outcome is immutable. *)
  let sim = Sim.create () in
  let rng = Rng.create s.seed in
  let reg = Flow_registry.create () in
  let len_f = float_of_int s.len in
  let bg_ids = if s.churn then min s.window s.flows else s.flows in
  let static_ids = s.reserved + bg_ids in
  (* Reservations are sized against the slowest link so the Σ r_n <= C
     premise of Thm 4 holds at every hop, not just the core. *)
  let c_min = Float.min s.access_rate s.core_rate in
  let r_res = if s.reserved = 0 then 0.0 else c_min /. (4.0 *. float_of_int s.reserved) in
  let r_bg = c_min /. (4.0 *. float_of_int (max 1 bg_ids)) in
  let weights =
    Weights.of_list ~default:r_bg (List.init s.reserved (fun i -> (i, r_res)))
  in
  let all_monitors = ref [] in
  let link_ix = ref (-1) in
  let mk_sched ~rate =
    incr link_ix;
    let inner =
      match mk_link with
      | None -> Disc.make s.disc weights
      | Some f -> f !link_ix ~rate
    in
    if not s.monitors then inner
    else begin
      let ms =
        [
          Monitor.flow_fifo ();
          Monitor.conservation ~size:(fun () -> inner.Sched.size ()) ();
        ]
      in
      all_monitors := ms :: !all_monitors;
      Monitor.wrap inner ~capacity:(fun () -> rate) ~monitors:ms
    end
  in
  let topo =
    Topo.build sim s.spec ~access_rate:s.access_rate ~core_rate:s.core_rate
      ~mk_sched ~prop_delay:s.prop_delay ?buffer:s.buffer ()
  in
  let net = Topo.net topo in
  let entries = Topo.entries topo in
  (* Reserved flows take ids 0..reserved-1 (opened first), entry i mod
     entries. *)
  for i = 0 to s.reserved - 1 do
    let f = Flow_registry.open_flow reg in
    assert (f = i);
    Topo.route_flow topo ~flow:f ~entry:(i mod entries)
  done;
  (* Composed-bound oracle: per-hop SFQ/SCFQ constants along the
     flow's route. |Q| is read live (never below the static sizing) so
     ids past the recycling window — draining flows — widen the bound
     instead of invalidating it. *)
  let oracle =
    match (bound_kind s.disc, s.reserved) with
    | None, _ | _, 0 -> None
    | Some kind, _ ->
      let sum_other () =
        float_of_int (max static_ids (Flow_registry.high_water reg) - 1) *. len_f
      in
      (* [betas] depend on the flow's entry and, through [sum_other],
         on the registry high-water mark; [taus] on the entry alone.
         Both are rebuilt only when those change, not per delivery. *)
      let betas_of entry =
        let hops = Topo.hops topo ~entry in
        let all =
          List.map
            (fun (h : Topo.hop) ->
              match kind with
              | `Sfq ->
                Bounds.sfq_beta ~sum_other_lmax:(sum_other ()) ~len:len_f
                  ~capacity:h.Topo.capacity ~delta:0.0
              | `Scfq ->
                Bounds.scfq_departure ~eat:0.0 ~sum_other_lmax:(sum_other ())
                  ~len:len_f ~rate:r_res ~capacity:h.Topo.capacity)
            hops
        in
        match s.skip_hop with
        | None -> all
        | Some i ->
          let skip = i mod List.length all in
          List.filteri (fun j _ -> j <> skip) all
      in
      let beta_hw = Array.make entries (-1) and beta_lists = Array.make entries [] in
      let betas flow =
        let entry = flow mod entries and hw = Flow_registry.high_water reg in
        if beta_hw.(entry) <> hw then begin
          beta_lists.(entry) <- betas_of entry;
          beta_hw.(entry) <- hw
        end;
        beta_lists.(entry)
      in
      let tau_lists =
        Array.init entries (fun entry ->
            List.map (fun (h : Topo.hop) -> h.Topo.prop_delay) (Topo.hops topo ~entry))
      in
      let taus flow = tau_lists.(flow mod entries) in
      Some
        (E2e.create ~name:"e2e-delay" ~rate:(fun f -> Weights.get weights f) ~betas
           ~taus ())
  in
  (* Background population: ids recycled through the registry, routes
     and scheduler state torn down only once the flow has nothing in
     flight — the conservation law stays exact under churn. *)
  let outstanding : int Flow_table.t = Flow_table.create ~default:(fun _ -> 0) in
  let draining : unit Flow_table.t = Flow_table.create ~default:(fun _ -> ()) in
  let recycle f =
    Flow_table.remove outstanding f;
    Flow_table.remove draining f;
    Net.unroute net ~flow:f;
    Flow_registry.close_flow reg f
  in
  let settle f n =
    if f >= s.reserved && n > 0 && Flow_table.mem outstanding f then begin
      let c = Flow_table.find outstanding f - n in
      Flow_table.set outstanding f c;
      if c <= 0 && Flow_table.mem draining f then recycle f
    end
  in
  List.iter
    (fun srv -> Server.on_drop srv (fun p -> settle p.Packet.flow 1))
    (Topo.servers topo);
  let order_hash = fnv_create () in
  Net.on_delivered net (fun p ~at ->
      tap p ~at;
      mix_int order_hash p.Packet.flow;
      mix_int order_hash p.Packet.seq;
      mix_float order_hash at;
      match oracle with
      | Some o when p.Packet.flow < s.reserved -> E2e.deliver o p ~at
      | _ -> settle p.Packet.flow 1);
  (* The churn window, a ring of [window] slots: the k-th background
     flow holds slot [k mod window] (its id and entry) while live, so
     opening flow k retires flow k - window from the same slot. *)
  let slots = if s.churn then s.window else 0 in
  let live_ids = Array.make slots 0 and live_entries = Array.make slots 0 in
  let dt = float_of_int (s.pkts_per_flow * s.len) /. s.core_rate /. s.load in
  (* One timer per source, counting its own events. *)
  let opened = ref 0 in
  let opener = ref Sim.no_timer in
  let open_next () =
    let k = !opened in
    if k < s.flows then begin
      opened := k + 1;
      let slot = if s.churn then k mod s.window else 0 in
      if s.churn && k >= s.window then begin
        let f = live_ids.(slot) and entry = live_entries.(slot) in
        let flushed = Topo.close_flow topo ~flow:f ~entry in
        let pending =
          if Flow_table.mem outstanding f then Flow_table.find outstanding f else 0
        in
        if flushed >= pending then recycle f
        else begin
          Flow_table.set draining f ();
          settle f flushed
        end
      end;
      let f = Flow_registry.open_flow reg in
      let entry = Rng.int rng entries in
      Topo.route_flow topo ~flow:f ~entry;
      Flow_table.set outstanding f s.pkts_per_flow;
      if s.churn then begin
        live_ids.(slot) <- f;
        live_entries.(slot) <- entry
      end;
      let now = Sim.now sim in
      for j = 1 to s.pkts_per_flow do
        Net.inject net (Packet.make ~flow:f ~seq:j ~len:s.len ~born:now ())
      done;
      Sim.arm_after sim !opener ~delay:dt
    end
  in
  opener := Sim.timer sim open_next;
  if s.flows > 0 then Sim.arm sim !opener ~at:0.0;
  (* Reserved CBR sources: full reserved rate, so EAT tracks arrival. *)
  let t_open = float_of_int s.flows *. dt in
  let interval = if s.reserved = 0 then 0.0 else len_f /. r_res in
  let res_pkts =
    match s.reserved_pkts with
    | Some n -> n
    | None -> max 4 (int_of_float (t_open /. Float.max interval 1e-9))
  in
  for i = 0 to s.reserved - 1 do
    let sent = ref 0 in
    let sender = ref Sim.no_timer in
    let send () =
      if !sent < res_pkts then begin
        incr sent;
        let now = Sim.now sim in
        let p = Packet.make ~flow:i ~seq:!sent ~len:s.len ~born:now () in
        (match oracle with Some o -> E2e.inject o p ~at:now | None -> ());
        Net.inject net p;
        Sim.arm_after sim !sender ~delay:interval
      end
    in
    sender := Sim.timer sim send;
    Sim.arm sim !sender ~at:0.0
  done;
  (* Network-wide conservation probes at quiesce points mid-run: the
     in-flight count derived from the edge counters can never be
     negative, nor smaller than the packets demonstrably queued. *)
  let net_violation = ref None in
  let check_conservation ~final () =
    let in_flight =
      Net.injected net - Net.delivered net - Topo.dropped topo - Topo.closed topo
    in
    let queued = Topo.queued topo in
    let bad =
      if in_flight < 0 then Some "in-flight negative"
      else if in_flight < queued then Some "in-flight below queued backlog"
      else if final && in_flight <> 0 then Some "packets left in flight after drain"
      else None
    in
    match bad with
    | Some what when !net_violation = None ->
      net_violation :=
        Some
          {
            Monitor.monitor = "net-conservation";
            at = Sim.now sim;
            what =
              Printf.sprintf "%s: injected=%d delivered=%d dropped=%d closed=%d queued=%d"
                what (Net.injected net) (Net.delivered net) (Topo.dropped topo)
                (Topo.closed topo) queued;
          }
    | _ -> ()
  in
  for i = 1 to s.checkpoints do
    if t_open > 0.0 then
      Sim.schedule sim
        ~at:(t_open *. float_of_int i /. float_of_int (s.checkpoints + 1))
        (check_conservation ~final:false)
  done;
  Sim.run_all sim ();
  let finished_at = Sim.now sim in
  check_conservation ~final:true ();
  (match oracle with Some o -> E2e.finalize o ~until:finished_at | None -> ());
  let hop_monitors = List.concat (List.rev !all_monitors) in
  List.iter (fun m -> Monitor.finalize m ~until:finished_at) hop_monitors;
  let violations =
    Option.to_list !net_violation
    @ (match oracle with Some o -> Option.to_list (E2e.result o) | None -> [])
    @ List.filter_map Monitor.result hop_monitors
  in
  {
    injected = Net.injected net;
    delivered = Net.delivered net;
    dropped = Topo.dropped topo;
    closed = Topo.closed topo;
    in_flight =
      Net.injected net - Net.delivered net - Topo.dropped topo - Topo.closed topo;
    finished_at;
    high_water = Flow_registry.high_water reg;
    peak_live = Flow_registry.peak_live reg;
    order_hash = Bytes.get_int64_le order_hash 0;
    e2e_checked = (match oracle with Some o -> E2e.checked o | None -> 0);
    e2e_lost = (match oracle with Some o -> E2e.lost o | None -> 0);
    min_slack = (match oracle with Some o -> E2e.min_slack o | None -> infinity);
    violations;
    events = Sim.events_fired sim;
  }

let run_scenario s = run_raw s

(* ------------------------------------------------------------------ *)
(* Sharded sweeps: same contract as Sfq_oracle.Run.sweep — positional
   reduction over independent cells, digest-identical at every domain
   count. *)

let sweep ?(domains = 1) ?pool cells =
  let tasks = Array.of_list cells in
  let f _i c = run_scenario c in
  match pool with
  | Some p -> Sfq_par.Pool.map p ~f tasks
  | None -> Sfq_par.Pool.run ~domains ~f tasks

let outcome_digest (o : outcome) =
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf
       "injected=%d delivered=%d dropped=%d closed=%d finished=%h ids=%d hash=%016Lx"
       o.injected o.delivered o.dropped o.closed o.finished_at o.high_water
       o.order_hash);
  if o.in_flight <> 0 then
    Buffer.add_string b (Printf.sprintf " in_flight=%d" o.in_flight);
  if o.e2e_checked > 0 || o.e2e_lost > 0 then
    Buffer.add_string b
      (Printf.sprintf " e2e=%d lost=%d slack=%h" o.e2e_checked o.e2e_lost o.min_slack);
  List.iter
    (fun (v : Monitor.violation) ->
      Buffer.add_string b
        (Printf.sprintf " violation=%s@%h:%s" v.Monitor.monitor v.Monitor.at
           v.Monitor.what))
    o.violations;
  Buffer.contents b

let sweep_digest cells outcomes =
  let b = Buffer.create 512 in
  List.iteri
    (fun i (c : scenario) ->
      Buffer.add_string b
        (Printf.sprintf "%s | %s\n" c.label (outcome_digest outcomes.(i))))
    cells;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The standard cell grid: (topology × discipline × seed replicate),
   plus one churn-heavy overloaded star. test_par and the golden corpus
   digest these labels. *)

let grid_specs =
  [
    Topo.Star { leaves = 4 };
    Topo.Line { hops = 3 };
    Topo.Tree { arity = 2; depth = 2 };
    Topo.Dumbbell { left = 3; right = 2 };
  ]

(* Each discipline keeps a fixed seed column: a cell's seed index is
   ((topology * seed_columns) + column) * reps + rep. Column 2 is
   retired; renumbering the later columns would re-seed their cells and
   change their golden digests. *)
let seed_columns = 5

let grid_discs =
  [
    (0, Disc.Sfq);
    (1, Disc.Scfq);
    (3, Disc.Pifo_sfq);
    (4, Disc.Drr { quantum = 8192.0 });
  ]

let default_cells ?(root = 0x7e57) () =
  let reps = 2 in
  let grid =
    List.concat_map
      (fun (ti, spec) ->
        List.concat_map
          (fun (column, disc) ->
            List.init reps (fun rep ->
                let index = (((ti * seed_columns) + column) * reps) + rep in
                (* Access links at a quarter of the core rate: bursts
                   queue at the edge, so the seed's entry assignment is
                   visible in the digests (symmetric equal-rate shapes
                   would make every replicate identical). *)
                scenario
                  ~label:
                    (Printf.sprintf "%s/%s/r%d" (Topo.spec_name spec) (Disc.name disc)
                       rep)
                  ~spec ~disc ~access_rate:262_144.0
                  ~seed:(Sfq_par.Seed.derive ~root ~index)
                  ()))
          grid_discs)
      (List.mapi (fun i t -> (i, t)) grid_specs)
  in
  let churn_star =
    scenario ~label:"star8/pifo-sfq/churn" ~spec:(Topo.Star { leaves = 8 })
      ~disc:Disc.Pifo_sfq ~churn:true ~flows:160 ~window:24 ~load:1.25
      ~buffer:(Buffered.config ~per_flow:8 ~aggregate:96 ~policy:Buffered.Drop_front ())
      ~seed:(Sfq_par.Seed.derive ~root ~index:1000)
      ()
  in
  grid @ [ churn_star ]

let scale_star ?(flows = 1_000_000) ?(window = 4096) ?(leaves = 64) ?(reserved = 4)
    ?(disc = Disc.Pifo_sfq) ?(seed = 0x5ca1e) () =
  scenario
    ~label:(Printf.sprintf "scale/star%d/%s/%dflows" leaves (Disc.name disc) flows)
    ~spec:(Topo.Star { leaves }) ~disc ~churn:true ~flows ~window ~reserved
    ~pkts_per_flow:2 ~load:0.75 ~monitors:false ~checkpoints:8 ~seed ()

(* ------------------------------------------------------------------ *)
(* Multi-hop schedule replay: the network half of Replay's UPS
   harness. Record the delivery stream of any scenario, derive each
   packet's deadline (its recorded delivery time) and each link's
   residual (Topo.residuals — tx + propagation from that link to the
   sink), then re-run the same arrivals with every link scheduling by
   least slack. *)

module Replay = Sfq_oracle.Replay

type net_schedule = {
  rs : scenario;
  rorder : Replay.key array;
  rout : (Replay.key, float) Hashtbl.t;
  rresiduals : float array;
  rnhops : (int, int) Hashtbl.t;
}

type under =
  | Under_lstf
  | Under_mutant of Replay.mutant
  | Under_disc of Disc.spec

let replay_guard ~what (s : scenario) =
  if s.churn then invalid_arg (what ^ ": churned scenarios recycle flow ids");
  if s.buffer <> None then invalid_arg (what ^ ": buffered scenarios drop packets")

(* A scratch build of the same shape (FIFO links, nothing injected)
   yields the per-link residual table and the per-entry hop counts
   without disturbing the recording run. *)
let scratch_topo (s : scenario) =
  Topo.build (Sim.create ()) s.spec ~access_rate:s.access_rate
    ~core_rate:s.core_rate
    ~mk_sched:(fun ~rate:_ -> Sfq_sched.Fifo.sched (Sfq_sched.Fifo.create ()))
    ~prop_delay:s.prop_delay ()

(* Entry assignment is a pure function of the seed: reserved flow i
   enters at [i mod entries], and the k-th background flow (id
   reserved + k, never recycled — churn is guarded off) takes the k-th
   draw of the scenario RNG, which [run_raw] consumes for nothing
   else. *)
let flow_entries (s : scenario) ~entries =
  let rng = Rng.create s.seed in
  let tbl = Hashtbl.create 64 in
  for i = 0 to s.reserved - 1 do
    Hashtbl.replace tbl i (i mod entries)
  done;
  for k = 0 to s.flows - 1 do
    Hashtbl.replace tbl (s.reserved + k) (Rng.int rng entries)
  done;
  tbl

let record_net (s : scenario) =
  replay_guard ~what:"Net_sweep.record_net" s;
  let order = ref [] in
  let out : (Replay.key, float) Hashtbl.t = Hashtbl.create 256 in
  let outcome =
    run_raw s ~tap:(fun p ~at ->
        let k = { Replay.flow = p.Packet.flow; seq = p.Packet.seq } in
        Hashtbl.replace out k at;
        order := k :: !order)
  in
  let topo = scratch_topo s in
  let rnhops = Hashtbl.create 64 in
  Hashtbl.iter
    (fun f e -> Hashtbl.replace rnhops f (Topo.nhops topo ~entry:e))
    (flow_entries s ~entries:(Topo.entries topo));
  ( {
      rs = s;
      rorder = Array.of_list (List.rev !order);
      rout = out;
      rresiduals = Topo.residuals topo ~len:s.len;
      rnhops;
    },
    outcome )

let net_schedule_order ns = Array.copy ns.rorder
let net_schedule_scenario ns = ns.rs

let net_schedule_hash ns =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (Array.to_list
             (Array.map
                (fun (k : Replay.key) -> Printf.sprintf "%d.%d" k.Replay.flow k.Replay.seq)
                ns.rorder))))

type net_verdict =
  | Exact of int
  | On_time of { delivered : int; swapped : Replay.witness }
  | Late of Replay.witness

let missing_key = { Replay.flow = -1; seq = -1 }

(* Two-tier comparison. Exact packet-for-packet order is the single-hop
   theorem's criterion, and 15 of the 16 replayed E27 grid cells meet
   it (dumbbell3x2/PIFO-SFQ is on time with a swap); but no such
   theorem exists across hops (a later-deadline packet can reach a
   free server before its rival has crossed the upstream link), so the
   network criterion of record is the UPS paper's: the replay succeeds
   iff no packet is delivered {e later} than its recorded time. An
   order permutation among on-time packets is [On_time] with the first
   swap as witness; a genuinely late packet is [Late], witnessed by the
   packet with the largest lateness. All link rates, lengths and
   propagation delays are dyadic, so delivery times are exact floats
   and the lateness test needs no epsilon. *)
let compare_delivery ns got =
  let exp = ns.rorder in
  let nhops_of (k : Replay.key) =
    match Hashtbl.find_opt ns.rnhops k.Replay.flow with Some n -> n | None -> 0
  in
  let got_out : (Replay.key, float) Hashtbl.t = Hashtbl.create (Array.length got) in
  Array.iter (fun (k, at) -> Hashtbl.replace got_out k at) got;
  let late = ref None in
  Array.iteri
    (fun i k ->
      match (Hashtbl.find_opt ns.rout k, Hashtbl.find_opt got_out k) with
      | Some o, Some o' when o' > o ->
        let l = o' -. o in
        if match !late with Some (_, _, _, worst) -> l > worst | None -> true then
          late := Some (i, k, o', l)
      | Some _, Some _ -> ()
      | _, None | None, _ ->
        (* a packet of the recording absent from the replay (or vice
           versa) can only mean dropped traffic, which the guard
           excludes — treat as infinitely late *)
        late := Some (i, k, nan, infinity))
    exp;
  let first_swap () =
    let n = min (Array.length exp) (Array.length got) in
    let rec go i =
      if i >= n then
        if Array.length exp = Array.length got then None
        else
          let expected = if n < Array.length exp then exp.(n) else missing_key in
          let g, at = if n < Array.length got then got.(n) else (missing_key, nan) in
          let probe = if expected = missing_key then g else expected in
          Some
            { Replay.index = n; expected; got = g; at; hop = nhops_of probe; margin = 0.0 }
      else begin
        let g, at = got.(i) in
        let e = exp.(i) in
        if e = g then go (i + 1)
        else
          (* margin in recorded-delivery-time currency — positive
             means the replay served a packet whose true deadline was
             later *)
          let margin =
            match (Hashtbl.find_opt ns.rout g, Hashtbl.find_opt ns.rout e) with
            | Some rg, Some re -> rg -. re
            | _ -> 0.0
          in
          Some { Replay.index = i; expected = e; got = g; at; hop = nhops_of g; margin }
      end
    in
    go 0
  in
  match !late with
  | Some (index, k, at, lateness) ->
    Late { Replay.index; expected = k; got = k; at; hop = nhops_of k; margin = lateness }
  | None -> (
    match first_swap () with
    | None -> Exact (Array.length got)
    | Some swapped -> On_time { delivered = Array.length got; swapped })

let net_verdict_digest = function
  | Exact n -> Printf.sprintf "exact=%d" n
  | On_time { delivered; swapped = x } ->
    Printf.sprintf "on-time=%d swap@%d expected=%d.%d got=%d.%d margin=%h" delivered
      x.Replay.index x.Replay.expected.Replay.flow x.Replay.expected.Replay.seq
      x.Replay.got.Replay.flow x.Replay.got.Replay.seq x.Replay.margin
  | Late x ->
    Printf.sprintf "late@%d packet=%d.%d at=%h hop=%d lateness=%h" x.Replay.index
      x.Replay.expected.Replay.flow x.Replay.expected.Replay.seq x.Replay.at
      x.Replay.hop x.Replay.margin

let replay_net ns under =
  let s = ns.rs in
  let got = ref [] in
  let tap p ~at =
    got := ({ Replay.flow = p.Packet.flow; seq = p.Packet.seq }, at) :: !got
  in
  (match under with
  | Under_disc d -> ignore (run_raw { s with disc = d } ~tap : outcome)
  | Under_lstf | Under_mutant _ ->
    let mutant = match under with Under_mutant m -> Some m | _ -> None in
    let deadline (p : Packet.t) =
      match
        Hashtbl.find_opt ns.rout { Replay.flow = p.Packet.flow; seq = p.Packet.seq }
      with
      | Some o -> o
      | None ->
        invalid_arg
          (Printf.sprintf
             "Net_sweep.replay_net: packet %d.%d absent from the recorded schedule"
             p.Packet.flow p.Packet.seq)
    in
    let mk_link ix ~rate:(_ : float) =
      (* rank = deadline − residuals.(ix): the latest service-start
         time at this link that still meets the recorded delivery
         time, assuming no further queueing downstream. *)
      let residual (_ : Packet.t) = ns.rresiduals.(ix) in
      let open Sfq_sched in
      match mutant with
      | None -> Lstf.sched (Lstf.create ~residual ~deadline ())
      | Some Replay.Wrong_slack ->
        Lstf.sched
          (Lstf.create ~residual
             ~deadline:(fun p -> deadline p -. p.Packet.born)
             ())
      | Some Replay.Priority_tie ->
        Lstf.sched
          (Lstf.create
             ~tie:(Sfq_sched.Tag_queue.High_rate (fun f -> float_of_int (f + 1)))
             ~residual ~deadline ())
    in
    ignore (run_raw s ~mk_link ~tap : outcome));
  compare_delivery ns (Array.of_list (List.rev !got))
