open Sfq_base
open Sfq_sched
open Rank_program

let sfq ?(busy_rule = Sfq_core.Sfq.Idle_poll) ?frac_bits weights =
  let fs = Flow_state.create ?frac_bits weights in
  let v = ref 0 and mfs = ref 0 in
  let on_empty = busy_rule = Sfq_core.Sfq.On_empty in
  let regs = Rank_program.regs () in
  {
    name = "pifo-sfq";
    regs;
    shaped = false;
    rank =
      (fun ~now:_ ~slot pkt ->
        let stag = Flow_state.advance fs ~slot ~floor:!v pkt in
        regs.aux <- Flow_state.last fs;
        stag);
    on_dequeue =
      (fun ~key ~aux ~empty ->
        v := key;
        if aux > !mfs then mfs := aux;
        (* The deliberately wrong ablation variant, as in the float Sfq. *)
        if on_empty && empty then v := !mfs);
    on_idle = (fun () -> if !mfs > !v then v := !mfs);
    horizon = no_horizon;
    attach = no_attach;
    on_close = (fun ~now:_ ~slot _ -> Flow_state.forget fs slot);
    vtime = (fun () -> Tag.decode (Flow_state.codec fs) !v);
    (* v never decreases: it follows served start tags, and the busy
       rules only raise it to the largest served finish tag *)
    stale = (fun ~now:_ ~slot -> Flow_state.get fs slot <= !v);
  }

let scfq ?frac_bits weights =
  let fs = Flow_state.create ?frac_bits weights in
  let v = ref 0 in
  let regs = Rank_program.regs () in
  {
    name = "pifo-scfq";
    regs;
    shaped = false;
    rank =
      (fun ~now:_ ~slot pkt ->
        ignore (Flow_state.advance_reserved fs ~slot ~floor:!v pkt : int);
        let ftag = Flow_state.last fs in
        regs.aux <- ftag;
        (* SCFQ serves in finish-tag order: the finish tag is the rank. *)
        ftag);
    on_dequeue = (fun ~key ~aux:_ ~empty:_ -> v := key);
    on_idle =
      (fun () ->
        (* Busy period over: restart the clock and the per-flow tags. *)
        v := 0;
        Flow_state.clear fs);
    horizon = no_horizon;
    attach = no_attach;
    on_close = (fun ~now:_ ~slot _ -> Flow_state.forget fs slot);
    vtime = (fun () -> Tag.decode (Flow_state.codec fs) !v);
    (* v never decreases within a busy period, and the idle reset
       zeroes every tag anyway *)
    stale = (fun ~now:_ ~slot -> Flow_state.get fs slot <= !v);
  }

let virtual_clock ?frac_bits weights =
  let fs = Flow_state.create ?frac_bits weights in
  let regs = Rank_program.regs () in
  {
    name = "pifo-vc";
    regs;
    shaped = false;
    rank =
      (fun ~now ~slot pkt ->
        let eat = Flow_state.advance_eat fs ~slot ~now pkt in
        regs.aux <- eat;
        Flow_state.last fs);
    on_dequeue = no_dequeue;
    on_idle = no_idle;
    horizon = no_horizon;
    attach = no_attach;
    on_close = (fun ~now:_ ~slot _ -> Flow_state.forget fs slot);
    vtime = no_vtime;
    (* the EAT floor only matters while it is ahead of real time *)
    stale = (fun ~now ~slot -> Flow_state.get fs slot <= Flow_state.now_tag fs now);
  }

let delay_edd ?frac_bits specs =
  List.iter
    (fun (flow, { Delay_edd.rate; deadline; max_len }) ->
      if rate <= 0.0 || deadline <= 0.0 || max_len <= 0 then
        invalid_arg (Printf.sprintf "Delay_edd: invalid spec for flow %d" flow))
    specs;
  let table = Hashtbl.create 16 in
  List.iter (fun (f, s) -> Hashtbl.replace table f s) specs;
  let weights =
    Weights.of_fun (fun f ->
        match Hashtbl.find_opt table f with
        | Some s -> s.Delay_edd.rate
        | None -> invalid_arg (Printf.sprintf "Delay_edd: undeclared flow %d" f))
  in
  let fs = Flow_state.create ?frac_bits weights in
  let codec = Flow_state.codec fs in
  let dl = Hashtbl.create 16 in
  List.iter
    (fun (f, s) -> Hashtbl.replace dl f (Tag.encode codec s.Delay_edd.deadline))
    specs;
  let regs = Rank_program.regs () in
  {
    name = "pifo-edd";
    regs;
    shaped = false;
    rank =
      (fun ~now ~slot pkt ->
        (* activation happens first inside advance_eat, so an
           undeclared flow raises before any state moves, as in the
           float original *)
        let eat = Flow_state.advance_eat fs ~slot ~now pkt in
        regs.aux <- eat;
        Tag.sat_add eat (Hashtbl.find dl pkt.Packet.flow));
    on_dequeue = no_dequeue;
    on_idle = no_idle;
    horizon = no_horizon;
    attach = no_attach;
    (* the spec stays (configuration, not state); the EAT floor resets *)
    on_close = (fun ~now:_ ~slot _ -> Flow_state.forget fs slot);
    vtime = no_vtime;
    stale = (fun ~now ~slot -> Flow_state.get fs slot <= Flow_state.now_tag fs now);
  }

let lstf ?frac_bits ?(residual = fun _ -> 0.0) ~deadline () =
  let codec = Tag.make ?frac_bits () in
  (* Monotone per-flow rank floor, mirroring the float Lstf: deadlines
     are caller data with no ordering promise, and the runtime's
     Iflow_heap needs non-decreasing ranks within a flow. *)
  let floor : (Packet.flow, int) Hashtbl.t = Hashtbl.create 16 in
  let regs = Rank_program.regs () in
  {
    name = "pifo-lstf";
    regs;
    shaped = false;
    rank =
      (fun ~now:_ ~slot:_ pkt ->
        let r = Tag.encode codec (deadline pkt -. residual pkt) in
        let r =
          match Hashtbl.find_opt floor pkt.Packet.flow with
          | Some f when f > r -> f
          | _ -> r
        in
        Hashtbl.replace floor pkt.Packet.flow r;
        r);
    on_dequeue = no_dequeue;
    on_idle = no_idle;
    horizon = no_horizon;
    attach = no_attach;
    (* evict needs no hook (the floor stays — tags never roll back);
       closing forgets it so a reopened flow re-enters on raw
       deadlines *)
    on_close = (fun ~now:_ ~slot:_ flow -> Hashtbl.remove floor flow);
    vtime = no_vtime;
    (* the floor is keyed by flow id: only a close may forget it *)
    stale = never_stale;
  }

let fqs ~capacity ?frac_bits weights =
  let codec = Tag.make ?frac_bits () in
  let size_ref = ref (fun () -> 0) in
  let gps =
    Gps.create ~capacity ~real_system_empty:(fun () -> !size_ref () = 0) weights
  in
  let regs = Rank_program.regs () in
  {
    name = "pifo-fqs";
    regs;
    shaped = false;
    rank =
      (fun ~now ~slot:_ pkt ->
        let stag, _ftag = Gps.on_arrival gps ~now pkt in
        Tag.encode codec stag);
    on_dequeue = no_dequeue;
    on_idle = no_idle;
    horizon = no_horizon;
    attach = (fun f -> size_ref := f);
    (* the fluid system is not told about evictions; closing does
       forget the flow fluid-side *)
    on_close = (fun ~now ~slot:_ flow -> Gps.forget_flow gps ~now flow);
    vtime = no_vtime;
    stale = never_stale;
  }

let wf2q ~capacity ?frac_bits weights =
  let codec = Tag.make ?frac_bits () in
  let size_ref = ref (fun () -> 0) in
  let gps =
    Gps.create ~capacity ~real_system_empty:(fun () -> !size_ref () = 0) weights
  in
  let regs = Rank_program.regs () in
  {
    name = "pifo-wf2q";
    regs;
    shaped = true;
    rank =
      (fun ~now ~slot:_ pkt ->
        let stag, ftag = Gps.on_arrival gps ~now pkt in
        regs.eligible <- Tag.encode codec stag;
        Tag.encode codec ftag);
    on_dequeue = no_dequeue;
    on_idle = no_idle;
    (* the float two-stage scheduler promotes while S <= v + 1e-12 *)
    horizon = (fun ~now -> Tag.encode codec (Gps.vtime gps ~now +. 1e-12));
    attach = (fun f -> size_ref := f);
    on_close = (fun ~now ~slot:_ flow -> Gps.forget_flow gps ~now flow);
    vtime = no_vtime;
    stale = never_stale;
  }
