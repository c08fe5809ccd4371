(* Trace CLI: run a named workload through a named discipline with the
   sfq.obs tracer attached, then print per-flow summaries (delay
   p50/p99, tag lag vs v(t), max backlog) or export the event trace —
   JSONL for scripts, Chrome trace_event for Perfetto
   (https://ui.perfetto.dev).

     sfq_trace list
     sfq_trace run --disc sfq --workload bursty
     sfq_trace run --disc sfq --workload cbr --chrome trace.json

   The driver is the oracle layer's fixed-rate server (Run.fixed_rate):
   one packet in service at a time at the workload's link capacity,
   idle polls included — the same deterministic semantics the theorem
   oracles are checked under. For SFQ (and SCFQ) the scheduler's tag
   hook feeds the tracer the real eq. 4-5 start/finish tags and v(t);
   other disciplines trace arrivals/dequeues/idle-busy only. *)

open Sfq_util
open Sfq_base
open Sfq_core
open Sfq_obs
open Sfq_oracle

(* ------------------------------------------------------------------ *)
(* Named workloads                                                      *)

let capacity = 1_000_000.0 (* bits/s *)

let cbr ~flows ~pkts ~seed:_ =
  (* equal weights, 90% aggregate load, round-robin arrivals *)
  let len = 1000 in
  let gap = float_of_int len /. (0.9 *. capacity) in
  let arrivals =
    List.init (flows * pkts) (fun k ->
        { Workload.at = float_of_int k *. gap; flow = k mod flows; len; rate = None })
  in
  {
    Workload.capacity;
    weights = List.init flows (fun f -> (f, 0.9 *. capacity /. float_of_int flows));
    arrivals;
    reweights = [];
    churn = [];
    rate_changes = [];
    buffer = None;
  }

let bursty ~flows ~pkts ~seed =
  (* per-flow bursts of up to 8 back-to-back packets separated by long
     exponential idles: exercises busy-period boundaries and backlog
     high-water marks *)
  let len = 1000 in
  let service = float_of_int len /. capacity in
  let per_flow f =
    let rng = Rng.create (seed + (1000 * (f + 1))) in
    let acc = ref [] in
    let at = ref (Rng.float rng (10.0 *. service)) in
    let k = ref 0 in
    while !k < pkts do
      let burst = Stdlib.min (1 + Rng.int rng 8) (pkts - !k) in
      for _ = 1 to burst do
        acc := { Workload.at = !at; flow = f; len; rate = None } :: !acc;
        incr k
      done;
      at := !at +. Rng.exponential rng ~mean:(float_of_int burst *. service *. float_of_int flows)
    done;
    List.rev !acc
  in
  let arrivals =
    List.concat (List.init flows per_flow)
    |> List.stable_sort (fun (a : Workload.arrival) b -> compare a.at b.at)
  in
  {
    Workload.capacity;
    weights = List.init flows (fun f -> (f, 0.95 *. capacity /. float_of_int flows));
    arrivals;
    reweights = [];
    churn = [];
    rate_changes = [];
    buffer = None;
  }

let skewed ~flows ~pkts ~seed =
  (* 16:1 weight spread, Poisson arrivals at ~90% of each reservation,
     mixed packet sizes: the shape Fig. 2's low-throughput-flow delay
     discussion cares about *)
  let raw = List.init flows (fun f -> (f, Float.of_int (1 lsl (f mod 5)))) in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 raw in
  let weights = List.map (fun (f, w) -> (f, 0.95 *. capacity *. w /. total)) raw in
  let per_flow (f, r) =
    let rng = Rng.create (seed + (7919 * (f + 1))) in
    let at = ref 0.0 in
    List.init pkts (fun k ->
        let len = 500 * (1 + Rng.int rng 3) in
        at := !at +. Rng.exponential rng ~mean:(float_of_int len /. (0.9 *. r));
        ignore k;
        { Workload.at = !at; flow = f; len; rate = None })
  in
  let arrivals =
    List.concat_map per_flow weights
    |> List.stable_sort (fun (a : Workload.arrival) b -> compare a.at b.at)
  in
  { Workload.capacity; weights; arrivals; reweights = []; churn = [];
    rate_changes = []; buffer = None }

let pool i ~flows:_ ~pkts:_ ~seed =
  List.nth (Workload.deterministic_pool ~seed ~n:(i + 1) ()) i

let workloads =
  [
    ("cbr", "equal-weight CBR round-robin at 90% load", cbr);
    ("bursty", "8-deep bursts with long idles per flow", bursty);
    ("skewed", "16:1 weight spread, Poisson arrivals, mixed sizes", skewed);
    ("pool0", "frozen adversarial workload 0 (oracle pool)", pool 0);
    ("pool1", "frozen adversarial workload 1 (oracle pool)", pool 1);
    ("pool2", "frozen adversarial workload 2 (oracle pool)", pool 2);
    ("pool3", "frozen adversarial workload 3 (oracle pool)", pool 3);
  ]

(* ------------------------------------------------------------------ *)
(* Disciplines                                                          *)

let disciplines =
  [ "sfq"; "scfq"; "fifo"; "drr"; "wrr"; "virtual-clock"; "wfq"; "wfq-real";
    "fqs"; "wf2q"; "fair-airport"; "sp-pifo"; "pifo-sfq"; "pifo-scfq"; "pifo-vc";
    "pifo-fqs"; "pifo-wf2q" ]

(* Returns the sched, a v(t) sampler when the discipline has one, and
   — for SFQ — wires the tag hook so Tag events carry real tags. *)
let make_sched name tracer (w : Workload.t) =
  let weights = Weights.of_list w.weights in
  let cap = w.capacity in
  match name with
  | "sfq" ->
    let t = Sfq.create weights in
    Sfq.set_tag_hook t ~active:(Tracer.active_flag tracer)
      (fun ~now ~pkt ~stag ~ftag ~vtime ->
        Tracer.tag_hook tracer ~now ~pkt ~stag ~ftag ~vtime);
    (Sfq.sched t, Some (fun () -> Sfq.vtime t))
  | "scfq" ->
    let t = Sfq_sched.Scfq.create weights in
    (Sfq_sched.Scfq.sched t, Some (fun () -> Sfq_sched.Scfq.vtime t))
  | "sp-pifo" ->
    let t = Sfq_pifo.Sp_pifo.create weights in
    (Sfq_pifo.Sp_pifo.sched t, Some (fun () -> Sfq_pifo.Sp_pifo.vtime t))
  | "pifo-sfq" ->
    let t = Sfq_pifo.Pifo_sched.create (Sfq_pifo.Programs.sfq weights) in
    (Sfq_pifo.Pifo_sched.sched t, Some (fun () -> Sfq_pifo.Pifo_sched.vtime t))
  | "pifo-scfq" ->
    let t = Sfq_pifo.Pifo_sched.create (Sfq_pifo.Programs.scfq weights) in
    (Sfq_pifo.Pifo_sched.sched t, Some (fun () -> Sfq_pifo.Pifo_sched.vtime t))
  | name ->
    let spec =
      match name with
      | "fifo" -> Sfq_experiments.Disc.Fifo
      | "drr" -> Sfq_experiments.Disc.Drr { quantum = 1000.0 }
      | "wrr" -> Sfq_experiments.Disc.Wrr
      | "virtual-clock" -> Sfq_experiments.Disc.Virtual_clock
      | "wfq" -> Sfq_experiments.Disc.Wfq { capacity = cap }
      | "wfq-real" -> Sfq_experiments.Disc.Wfq_real { capacity = cap }
      | "fqs" -> Sfq_experiments.Disc.Fqs { capacity = cap }
      | "wf2q" -> Sfq_experiments.Disc.Wf2q { capacity = cap }
      | "fair-airport" -> Sfq_experiments.Disc.Fair_airport
      | "pifo-vc" -> Sfq_experiments.Disc.Pifo_vc
      | "pifo-fqs" -> Sfq_experiments.Disc.Pifo_fqs { capacity = cap }
      | "pifo-wf2q" -> Sfq_experiments.Disc.Pifo_wf2q { capacity = cap }
      | other -> raise (Arg.Bad (Printf.sprintf "unknown discipline %S" other))
    in
    (Sfq_experiments.Disc.make spec weights, None)

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)

let list_cmd () =
  print_endline "disciplines:";
  List.iter (fun d -> Printf.printf "  %s\n" d) disciplines;
  print_endline "workloads:";
  List.iter (fun (n, doc, _) -> Printf.printf "  %-8s %s\n" n doc) workloads

let run_cmd disc workload flows pkts seed ring chrome_out jsonl_out quiet =
  match List.find_opt (fun (n, _, _) -> n = workload) workloads with
  | None ->
    Printf.eprintf "unknown workload %S; try `sfq_trace list`\n" workload;
    1
  | Some (_, _, build) ->
    if not (List.mem disc disciplines) then begin
      Printf.eprintf "unknown discipline %S; try `sfq_trace list`\n" disc;
      1
    end
    else begin
      let w = build ~flows ~pkts ~seed in
      let tracer = Tracer.create ~capacity:ring () in
      let sched, vtime = make_sched disc tracer w in
      let traced = Tracer.wrap ?vtime tracer sched in
      let outcome = Run.fixed_rate ~sched:traced ~monitors:[] w in
      if not quiet then begin
        Printf.printf "%s on %s: %d arrival(s), %d departure(s), finished at %g s\n"
          disc workload (List.length w.arrivals) outcome.Run.departures
          outcome.Run.finished_at;
        print_string (Summary.render tracer)
      end;
      (match jsonl_out with
      | Some path ->
        Export.write_jsonl tracer ~path;
        Printf.printf "wrote %s (%d events)\n" path (Tracer.length tracer)
      | None -> ());
      (match chrome_out with
      | Some path ->
        Export.write_chrome ~name:(disc ^ " / " ^ workload) tracer ~path;
        Printf.printf "wrote %s (open in https://ui.perfetto.dev)\n" path
      | None -> ());
      0
    end

open Cmdliner

let disc =
  Arg.(value & opt string "sfq" & info [ "disc"; "d" ] ~docv:"DISC" ~doc:"Scheduling discipline.")

let workload =
  Arg.(value & opt string "bursty" & info [ "workload"; "w" ] ~docv:"NAME" ~doc:"Named workload.")

let flows = Arg.(value & opt int 8 & info [ "flows" ] ~docv:"N" ~doc:"Flow count (generated workloads).")
let pkts = Arg.(value & opt int 200 & info [ "pkts" ] ~docv:"N" ~doc:"Packets per flow (generated workloads).")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
let ring = Arg.(value & opt int 65536 & info [ "ring" ] ~docv:"N" ~doc:"Tracer ring capacity (events).")

let chrome_out =
  Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
         ~doc:"Export a Chrome trace_event JSON file (Perfetto).")

let jsonl_out =
  Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc:"Export a JSONL event dump.")

let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the per-flow summary.")

let run_t =
  Term.(
    const (fun d w f p s r c j q -> Stdlib.exit (run_cmd d w f p s r c j q))
    $ disc $ workload $ flows $ pkts $ seed $ ring $ chrome_out $ jsonl_out $ quiet)

let run_cmd_t =
  Cmd.v (Cmd.info "run" ~doc:"Run a workload under a discipline and record a trace") run_t

let list_t = Term.(const list_cmd $ const ())
let list_cmd_t = Cmd.v (Cmd.info "list" ~doc:"List disciplines and workloads") list_t

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "sfq-trace" ~doc:"SFQ scheduler event tracing CLI" in
  exit (Cmd.eval (Cmd.group ~default info [ list_cmd_t; run_cmd_t ]))
