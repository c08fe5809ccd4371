open Sfq_util
open Sfq_base

type counter = { mutable sent : int; mutable finished_at : float option }

let check_common ~len ~start ~stop =
  if len <= 0 then invalid_arg "Source: len must be positive";
  if start < 0.0 || stop < start then invalid_arg "Source: need 0 <= start <= stop"

let emit sim target ~flow ~len counter =
  counter.sent <- counter.sent + 1;
  let pkt = Packet.make ~flow ~seq:counter.sent ~len ~born:(Sim.now sim) () in
  target pkt

(* A source's ticks are one timer, registered here into [ticker] (which
   the tick re-arms) and first fired at [start]. *)
let start_ticks sim ticker tick ~start =
  ticker := Sim.timer sim tick;
  Sim.arm sim !ticker ~at:start

(* Generic clocked source: [next_gap] yields the delay to the next
   packet (None to stop early). *)
let clocked sim ~target ~flow ~len ~start ~stop next_gap =
  check_common ~len ~start ~stop;
  let counter = { sent = 0; finished_at = None } in
  let ticker = ref Sim.no_timer in
  let tick () =
    if Sim.now sim <= stop then begin
      emit sim target ~flow ~len counter;
      match next_gap () with
      | Some gap when Sim.now sim +. gap <= stop -> Sim.arm_after sim !ticker ~delay:gap
      | Some _ | None -> counter.finished_at <- Some (Sim.now sim)
    end
  in
  start_ticks sim ticker tick ~start;
  counter

let cbr sim ~target ~flow ~len ~rate ~start ~stop =
  if rate <= 0.0 then invalid_arg "Source.cbr: rate must be positive";
  let gap = float_of_int len /. rate in
  clocked sim ~target ~flow ~len ~start ~stop (fun () -> Some gap)

let poisson sim ~target ~flow ~len ~rate ~rng ~start ~stop =
  if rate <= 0.0 then invalid_arg "Source.poisson: rate must be positive";
  let mean = float_of_int len /. rate in
  clocked sim ~target ~flow ~len ~start ~stop (fun () -> Some (Rng.exponential rng ~mean))

let on_off sim ~target ~flow ~len ~peak_rate ~on ~off ~start ~stop =
  if peak_rate <= 0.0 || on <= 0.0 || off < 0.0 then invalid_arg "Source.on_off: bad parameters";
  let gap = float_of_int len /. peak_rate in
  let in_burst_left = ref (Float.max 1.0 (Float.round (on /. gap))) in
  let next_gap () =
    in_burst_left := !in_burst_left -. 1.0;
    if !in_burst_left > 0.0 then Some gap
    else begin
      in_burst_left := Float.max 1.0 (Float.round (on /. gap));
      Some (gap +. off)
    end
  in
  clocked sim ~target ~flow ~len ~start ~stop next_gap

let burst sim ~target ~flow ~len ~burst_size ~interval ~start ~stop =
  if burst_size <= 0 || interval <= 0.0 then invalid_arg "Source.burst: bad parameters";
  check_common ~len ~start ~stop;
  let counter = { sent = 0; finished_at = None } in
  let ticker = ref Sim.no_timer in
  let tick () =
    if Sim.now sim <= stop then begin
      for _ = 1 to burst_size do
        emit sim target ~flow ~len counter
      done;
      if Sim.now sim +. interval <= stop then Sim.arm_after sim !ticker ~delay:interval
      else counter.finished_at <- Some (Sim.now sim)
    end
  in
  start_ticks sim ticker tick ~start;
  counter

let leaky_bucket sim ~target ~flow ~len ~sigma ~rho ~flush_every ~start ~stop =
  if sigma < float_of_int len || rho <= 0.0 || flush_every <= 0.0 then
    invalid_arg "Source.leaky_bucket: bad parameters";
  check_common ~len ~start ~stop;
  let counter = { sent = 0; finished_at = None } in
  let tokens = ref sigma (* bucket starts full *) in
  let last = ref start in
  let ticker = ref Sim.no_timer in
  let tick () =
    let now = Sim.now sim in
    tokens := Float.min sigma (!tokens +. (rho *. (now -. !last)));
    last := now;
    let flen = float_of_int len in
    while !tokens >= flen do
      emit sim target ~flow ~len counter;
      tokens := !tokens -. flen
    done;
    if now +. flush_every <= stop then Sim.arm_after sim !ticker ~delay:flush_every
    else counter.finished_at <- Some now
  in
  start_ticks sim ticker tick ~start;
  counter

let greedy sim ~server ?(priority = false) ~flow ~len ~total ~window ~start () =
  if total <= 0 || window <= 0 then invalid_arg "Source.greedy: bad parameters";
  if len <= 0 then invalid_arg "Source.greedy: len must be positive";
  let counter = { sent = 0; finished_at = None } in
  let inject = if priority then Server.inject_priority else Server.inject in
  let send_next () =
    counter.sent <- counter.sent + 1;
    let pkt = Packet.make ~flow ~seq:counter.sent ~len ~born:(Sim.now sim) () in
    inject server pkt
  in
  Server.on_depart server (fun p ~start:_ ~departed ->
      if p.Packet.flow = flow then begin
        if counter.sent < total then send_next ()
        else if p.Packet.seq = total then counter.finished_at <- Some departed
      end);
  Sim.schedule sim ~at:start (fun () ->
      let initial = Stdlib.min window total in
      for _ = 1 to initial do
        send_next ()
      done);
  counter
