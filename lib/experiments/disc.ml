open Sfq_sched
open Sfq_core

type spec =
  | Sfq
  | Wfq of { capacity : float }
  | Wfq_real of { capacity : float }
  | Fqs of { capacity : float }
  | Wf2q of { capacity : float }
  | Scfq
  | Drr of { quantum : float }
  | Wrr
  | Virtual_clock
  | Fair_airport
  | Fifo
  | Sp_pifo of { banks : int }
  | Pifo_sfq
  | Pifo_scfq
  | Pifo_vc
  | Pifo_fqs of { capacity : float }
  | Pifo_wf2q of { capacity : float }
  | Lstf of {
      deadline : Sfq_base.Packet.t -> float;
      residual : Sfq_base.Packet.t -> float;
    }
  | Pifo_lstf of {
      deadline : Sfq_base.Packet.t -> float;
      residual : Sfq_base.Packet.t -> float;
    }

let name = function
  | Sfq -> "SFQ"
  | Wfq _ -> "WFQ"
  | Wfq_real _ -> "WFQ(real)"
  | Fqs _ -> "FQS"
  | Wf2q _ -> "WF2Q"
  | Scfq -> "SCFQ"
  | Drr _ -> "DRR"
  | Wrr -> "WRR"
  | Virtual_clock -> "VirtualClock"
  | Fair_airport -> "FairAirport"
  | Fifo -> "FIFO"
  | Sp_pifo { banks } -> Printf.sprintf "SP-PIFO/%d" banks
  | Pifo_sfq -> "PIFO-SFQ"
  | Pifo_scfq -> "PIFO-SCFQ"
  | Pifo_vc -> "PIFO-VC"
  | Pifo_fqs _ -> "PIFO-FQS"
  | Pifo_wf2q _ -> "PIFO-WF2Q"
  | Lstf _ -> "LSTF"
  | Pifo_lstf _ -> "PIFO-LSTF"

let pifo prog = Sfq_pifo.Pifo_sched.sched (Sfq_pifo.Pifo_sched.create prog)

let make spec weights =
  match spec with
  | Sfq -> Sfq_core.Sfq.sched (Sfq_core.Sfq.create weights)
  | Wfq { capacity } -> Wfq.sched (Wfq.create ~capacity weights)
  | Wfq_real { capacity } -> Wfq.sched (Wfq.create ~capacity ~clock:`Real weights)
  | Fqs { capacity } -> Fqs.sched (Fqs.create ~capacity weights)
  | Wf2q { capacity } -> Wf2q.sched (Wf2q.create ~capacity weights)
  | Scfq -> Scfq.sched (Scfq.create weights)
  | Drr { quantum } -> Drr.sched (Drr.create ~quantum weights)
  | Wrr -> Wrr.sched (Wrr.create weights)
  | Virtual_clock -> Virtual_clock.sched (Virtual_clock.create weights)
  | Fair_airport -> Fair_airport.sched (Fair_airport.create weights)
  | Fifo -> Fifo.sched (Fifo.create ())
  | Sp_pifo { banks } -> Sfq_pifo.Sp_pifo.sched (Sfq_pifo.Sp_pifo.create ~banks weights)
  | Pifo_sfq -> pifo (Sfq_pifo.Programs.sfq weights)
  | Pifo_scfq -> pifo (Sfq_pifo.Programs.scfq weights)
  | Pifo_vc -> pifo (Sfq_pifo.Programs.virtual_clock weights)
  | Pifo_fqs { capacity } -> pifo (Sfq_pifo.Programs.fqs ~capacity weights)
  | Pifo_wf2q { capacity } -> pifo (Sfq_pifo.Programs.wf2q ~capacity weights)
  | Lstf { deadline; residual } -> Lstf.sched (Lstf.create ~residual ~deadline ())
  | Pifo_lstf { deadline; residual } ->
    pifo (Sfq_pifo.Programs.lstf ~residual ~deadline ())
