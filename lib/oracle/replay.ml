open Sfq_base
module Service_log = Sfq_analysis.Service_log

type key = { flow : int; seq : int }

type schedule = {
  sorder : key array;
  out : (key, float) Hashtbl.t;
  cap : float;
}

type witness = {
  index : int;
  expected : key;
  got : key;
  at : float;
  hop : int;
  margin : float;
}

type verdict = Replayed of int | Diverged of witness

type mutant = Wrong_slack | Priority_tie

let mutant_name = function
  | Wrong_slack -> "lstf-wrong-slack"
  | Priority_tie -> "lstf-priority-tie"

let guard ~what (w : Workload.t) =
  if w.Workload.churn <> [] then
    invalid_arg (what ^ ": churned workloads recycle flow ids");
  if w.Workload.buffer <> None then
    invalid_arg (what ^ ": buffered workloads drop packets");
  if w.Workload.rate_changes <> [] then
    invalid_arg (what ^ ": rate fluctuation breaks the len/C residual")

(* Observe every service completion of [sched] without perturbing it:
   the tap sits below Monitor.wrap, exactly where the fixed-rate server
   computes the same finish time from the same capacity. *)
let tapped sched ~cap ~on_serve =
  {
    sched with
    Sched.dequeue =
      (fun ~now ->
        match sched.Sched.dequeue ~now with
        | Some p ->
          on_serve p ~start:now ~finish:(now +. (float_of_int p.Packet.len /. cap));
          Some p
        | None -> None);
  }

let record ~sched ?(monitors = []) (w : Workload.t) =
  guard ~what:"Replay.record" w;
  let cap = w.Workload.capacity in
  let slog = Service_log.create () in
  let recording =
    tapped sched ~cap ~on_serve:(fun p ~start ~finish ->
        Service_log.note_arrival slog ~at:p.Packet.born p.Packet.flow;
        Service_log.note_completion slog ~flow:p.Packet.flow ~start ~finish
          ~len:p.Packet.len)
  in
  let (_ : Run.outcome) = Run.fixed_rate ~sched:recording ~monitors w in
  (* Per-flow FIFO keys the log's anonymous completions back to
     sequence numbers: the k-th completion of a flow is its k-th
     packet. *)
  let out = Hashtbl.create 64 in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  Sfq_util.Vec.iter (Service_log.completions slog)
    ~f:(fun (c : Service_log.completion) ->
      let n = (match Hashtbl.find_opt counts c.flow with Some n -> n | None -> 0) + 1 in
      Hashtbl.replace counts c.flow n;
      let k = { flow = c.flow; seq = n } in
      Hashtbl.replace out k c.finish;
      order := k :: !order);
  { sorder = Array.of_list (List.rev !order); out; cap }

let of_table ~capacity table =
  if capacity <= 0.0 then invalid_arg "Replay.of_table: capacity must be positive";
  let out = Hashtbl.create (List.length table) in
  List.iter (fun (k, o) -> Hashtbl.replace out k o) table;
  { sorder = Array.of_list (List.map fst table); out; cap = capacity }

let output_time sch k = Hashtbl.find_opt sch.out k
let order sch = Array.copy sch.sorder
let capacity sch = sch.cap

let schedule_hash sch =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (Array.to_list
             (Array.map (fun k -> Printf.sprintf "%d.%d" k.flow k.seq) sch.sorder))))

let deadline_fn sch (p : Packet.t) =
  match Hashtbl.find_opt sch.out { flow = p.Packet.flow; seq = p.Packet.seq } with
  | Some o -> o
  | None ->
    invalid_arg
      (Printf.sprintf "Replay: packet %d.%d absent from the recorded schedule"
         p.Packet.flow p.Packet.seq)

let lstf ?mutant sch =
  let deadline = deadline_fn sch in
  let residual (p : Packet.t) = float_of_int p.Packet.len /. sch.cap in
  let open Sfq_sched in
  match mutant with
  | None -> Lstf.sched (Lstf.create ~residual ~deadline ())
  | Some Wrong_slack ->
    (* The ingress slack o − i − tx, frozen at arrival: subtracting
       born from the deadline stops the slack from depleting while the
       packet queues, so a late-born packet with a later output time
       can overtake an early-born one. *)
    Lstf.sched
      (Lstf.create ~residual ~deadline:(fun p -> deadline p -. p.Packet.born) ())
  | Some Priority_tie ->
    (* FIFO tie order broken: among equal ranks the higher flow id is
       preferred instead of the earlier arrival. *)
    Lstf.sched
      (Lstf.create
         ~tie:(Tag_queue.High_rate (fun f -> float_of_int (f + 1)))
         ~residual ~deadline ())

(* Witness margin currency: the recorded output time. The schedule
   does not store packet lengths, so the margin compares deadlines
   rather than deadline − tx ranks; for the equal-length packets the
   divergence cells use, the tx terms cancel and the two orders
   agree. *)
let rank_of sch k = Hashtbl.find_opt sch.out k

let missing = { flow = -1; seq = -1 }

let compare_streams sch (got : (key * float) array) =
  let exp = sch.sorder in
  let n = min (Array.length exp) (Array.length got) in
  let rec go i =
    if i >= n then
      if Array.length exp = Array.length got then Replayed (Array.length got)
      else
        let index = n in
        let expected = if index < Array.length exp then exp.(index) else missing in
        let got_k, at =
          if index < Array.length got then got.(index) else (missing, nan)
        in
        Diverged { index; expected; got = got_k; at; hop = 0; margin = 0.0 }
    else begin
      let g, at = got.(i) in
      let e = exp.(i) in
      if e = g then go (i + 1)
      else
        let margin =
          match (rank_of sch g, rank_of sch e) with
          | Some rg, Some re -> rg -. re
          | _ -> 0.0
        in
        Diverged { index = i; expected = e; got = g; at; hop = 0; margin }
    end
  in
  go 0

let replay ~sched ?(monitors = []) sch (w : Workload.t) =
  guard ~what:"Replay.replay" w;
  let served = ref [] in
  let replaying =
    tapped sched ~cap:w.Workload.capacity ~on_serve:(fun p ~start ~finish:_ ->
        served := ({ flow = p.Packet.flow; seq = p.Packet.seq }, start) :: !served)
  in
  let (_ : Run.outcome) = Run.fixed_rate ~sched:replaying ~monitors w in
  compare_streams sch (Array.of_list (List.rev !served))

let replay_lstf ?mutant sch w = replay ~sched:(lstf ?mutant sch) sch w

let check ~make w =
  let sch = record ~sched:(make ()) w in
  replay_lstf sch w

let verdict_digest = function
  | Replayed n -> Printf.sprintf "replayed=%d" n
  | Diverged x ->
    Printf.sprintf "diverged@%d expected=%d.%d got=%d.%d at=%h hop=%d margin=%h"
      x.index x.expected.flow x.expected.seq x.got.flow x.got.seq x.at x.hop
      x.margin

(* ------------------------------------------------------------------ *)
(* Sweep cells                                                          *)

type cell = { label : string; run : unit -> verdict }

let weights_of (w : Workload.t) = Weights.of_list ~default:1.0 w.Workload.weights

let factories (w : Workload.t) =
  let open Sfq_sched in
  let cap = w.Workload.capacity in
  let specs () =
    List.map
      (fun (f, r) -> (f, { Delay_edd.rate = r; deadline = 1.0; max_len = 1000 }))
      w.Workload.weights
  in
  [
    ("sfq", fun () -> Sfq_core.Sfq.sched (Sfq_core.Sfq.create (weights_of w)));
    ("scfq", fun () -> Scfq.sched (Scfq.create (weights_of w)));
    ("vc", fun () -> Virtual_clock.sched (Virtual_clock.create (weights_of w)));
    ("drr", fun () -> Drr.sched (Drr.create (weights_of w)));
    ("edd", fun () -> Delay_edd.sched (Delay_edd.create (specs ())));
    ("fifo", fun () -> Fifo.sched (Fifo.create ()));
    ("wf2q", fun () -> Wf2q.sched (Wf2q.create ~capacity:cap (weights_of w)));
    ( "pifo-sfq",
      fun () ->
        Sfq_pifo.Pifo_sched.sched
          (Sfq_pifo.Pifo_sched.create (Sfq_pifo.Programs.sfq (weights_of w))) );
  ]

let suite_cells ?pool ?limit () =
  let pool = match pool with Some p -> p | None -> Suite.theorem_pool () in
  let pool =
    match limit with
    | None -> pool
    | Some n -> List.filteri (fun i _ -> i < n) pool
  in
  List.concat
    (List.mapi
       (fun i w ->
         List.map
           (fun (name, make) ->
             {
               label = Printf.sprintf "replay/%s#%d" name i;
               run = (fun () -> check ~make w);
             })
           (factories w))
       pool)

(* ------------------------------------------------------------------ *)
(* Directed mutant kills                                                *)

let arr at flow len = { Workload.at; flow; len; rate = None }

let base_workload arrivals =
  {
    Workload.capacity = 1000.0;
    weights = [ (0, 300.0); (1, 300.0); (2, 300.0) ];
    arrivals;
    reweights = [];
    churn = [];
    rate_changes = [];
    buffer = None;
  }

let directed_kills () =
  [
    (* The crossing trace: an 8 s blocker holds the server while f1
       (born 0.5, due 9) and f2 (born 5, due 10) queue. Correct ranks
       8 < 9 serve f1 first, matching the schedule; the mutant's
       frozen ingress slacks 7.5 vs 4 serve f2 first. *)
    ( Wrong_slack,
      "lstf-wrong-slack/crossing",
      fun () ->
        let w =
          base_workload [ arr 0.0 0 8000; arr 0.5 1 1000; arr 5.0 2 1000 ]
        in
        let sch =
          of_table ~capacity:1000.0
            [
              ({ flow = 0; seq = 1 }, 8.0);
              ({ flow = 1; seq = 1 }, 9.0);
              ({ flow = 2; seq = 1 }, 10.0);
            ]
        in
        (replay_lstf sch w, replay_lstf ~mutant:Wrong_slack sch w) );
    (* The tied table: output times 9 (len 1000) and 10 (len 2000)
       imply the same latest start 8, a tie no serial recording can
       produce. Correct LSTF breaks it FIFO (f1 arrived first); the
       mutant prefers the higher flow id. *)
    ( Priority_tie,
      "lstf-priority-tie/tied-table",
      fun () ->
        let w =
          base_workload [ arr 0.0 0 8000; arr 0.5 1 1000; arr 0.6 2 2000 ]
        in
        let sch =
          of_table ~capacity:1000.0
            [
              ({ flow = 0; seq = 1 }, 8.0);
              ({ flow = 1; seq = 1 }, 9.0);
              ({ flow = 2; seq = 1 }, 10.0);
            ]
        in
        (replay_lstf sch w, replay_lstf ~mutant:Priority_tie sch w) );
  ]
