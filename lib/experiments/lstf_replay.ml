module Replay = Sfq_oracle.Replay

type row = { cell : string; verdict : string; ok : bool }

type result = {
  single : row list;
  net : row list;
  control : row list;
  kills : row list;
}

let replayed = function Replay.Replayed _ -> true | Replay.Diverged _ -> false
let diverged v = not (replayed v)

(* Network success per the UPS criterion: no packet late. Exact order
   is the common case (15 of the 16 grid cells; dumbbell3x2/PIFO-SFQ
   is on time with a swap) and prints as its own tier, so an order
   regression still moves the golden text. *)
let on_time = function
  | Net_sweep.Exact _ | Net_sweep.On_time _ -> true
  | Net_sweep.Late _ -> false

let late v = not (on_time v)

let row ~cell ~expect ~digest v = { cell; verdict = digest v; ok = expect v }

let srow ~cell ~expect v = row ~cell ~expect ~digest:Replay.verdict_digest v
let nrow ~cell ~expect v = row ~cell ~expect ~digest:Net_sweep.net_verdict_digest v

(* First replicate of the E27 grid, churn/buffer cells excluded (the
   replay restrictions); one cell per topology × discipline. *)
let grid_r0 ~root () =
  List.filter
    (fun (c : Net_sweep.scenario) ->
      (not c.Net_sweep.churn)
      && c.Net_sweep.buffer = None
      && (let l = c.Net_sweep.label in
          String.length l >= 3 && String.sub l (String.length l - 3) 3 = "/r0"))
    (Net_sweep.default_cells ~root ())

let is_drr (c : Net_sweep.scenario) =
  match c.Net_sweep.disc with Disc.Drr _ -> true | _ -> false

let is_star4_sfq (c : Net_sweep.scenario) = c.Net_sweep.label = "star4/SFQ/r0"

let run ?(seed = 0x7e57) ?(limit = 4) () =
  let single =
    List.map
      (fun (c : Replay.cell) ->
        srow ~cell:c.Replay.label ~expect:replayed (c.Replay.run ()))
      (Replay.suite_cells ~limit ())
  in
  let grid = grid_r0 ~root:seed () in
  let net =
    List.map
      (fun (c : Net_sweep.scenario) ->
        let ns, _ = Net_sweep.record_net c in
        nrow
          ~cell:("net/" ^ c.Net_sweep.label)
          ~expect:on_time
          (Net_sweep.replay_net ns Net_sweep.Under_lstf))
      grid
  in
  (* Negative control: SFQ re-runs of the DRR recordings. Per-cell
     verdicts are pinned either way; the claim tests assert is that at
     least one comes back late. *)
  let control =
    List.filter_map
      (fun (c : Net_sweep.scenario) ->
        if not (is_drr c) then None
        else
          let ns, _ = Net_sweep.record_net c in
          Some
            (nrow
               ~cell:("control/sfq-replays-drr/" ^ c.Net_sweep.label)
               ~expect:late
               (Net_sweep.replay_net ns (Net_sweep.Under_disc Disc.Sfq))))
      grid
  in
  let kills =
    List.concat_map
      (fun (_, label, thunk) ->
        let correct, mutant = thunk () in
        [
          srow ~cell:(label ^ "/correct") ~expect:replayed correct;
          srow ~cell:(label ^ "/mutant") ~expect:diverged mutant;
        ])
      (Replay.directed_kills ())
    @
    (* The network-level wrong-slack kill: freezing the ingress slack
       at every hop of the star recording must push some packet past
       its recorded delivery. Priority_tie has no network cell here —
       honest recordings put no rank ties on these links, which is why
       its directed kill above uses a crafted table. *)
    match List.find_opt is_star4_sfq grid with
    | None -> []
    | Some c ->
      let ns, _ = Net_sweep.record_net c in
      [
        nrow
          ~cell:
            (Printf.sprintf "net/%s/%s"
               (Replay.mutant_name Replay.Wrong_slack)
               c.Net_sweep.label)
          ~expect:late
          (Net_sweep.replay_net ns (Net_sweep.Under_mutant Replay.Wrong_slack));
      ]
  in
  { single; net; control; kills }

let print () =
  let r = run () in
  Printf.printf "E28: LSTF schedule-replay universality\n";
  let section name rows =
    Printf.printf "  %s (%d rows, %d ok)\n" name (List.length rows)
      (List.length (List.filter (fun x -> x.ok) rows));
    List.iter
      (fun x -> Printf.printf "    %-40s %s ok=%b\n" x.cell x.verdict x.ok)
      rows
  in
  section "single-hop" r.single;
  section "network" r.net;
  section "control" r.control;
  section "kills" r.kills
