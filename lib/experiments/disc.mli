(** Discipline factory shared by the experiments: build any scheduler
    in the library from a uniform spec, so experiments can sweep over
    algorithms. *)

open Sfq_base

type spec =
  | Sfq
  | Wfq of { capacity : float }  (** assumed GPS capacity, bits/s; textbook fluid clock *)
  | Wfq_real of { capacity : float }
      (** WFQ with the practical really-backlogged-set clock (see {!Sfq_sched.Wfq}) *)
  | Fqs of { capacity : float }
  | Wf2q of { capacity : float }
      (** Bennett & Zhang's WF2Q: WFQ restricted to GPS-eligible packets *)
  | Scfq
  | Drr of { quantum : float }  (** bits per round per unit weight *)
  | Wrr
  | Virtual_clock
  | Fair_airport
  | Fifo
  | Sp_pifo of { banks : int }
      (** approximate rank order on [banks] strict-priority FIFOs
          ({!Sfq_pifo.Sp_pifo}) *)
  | Pifo_sfq  (** SFQ as a rank program on the PIFO runtime ({!Sfq_pifo.Programs}) *)
  | Pifo_scfq
  | Pifo_vc
  | Pifo_fqs of { capacity : float }
  | Pifo_wf2q of { capacity : float }
      (** shaped rank program: eligibility-gated by the GPS start tag *)
  | Lstf of {
      deadline : Sfq_base.Packet.t -> float;
      residual : Sfq_base.Packet.t -> float;
    }
      (** Least-Slack-Time-First ({!Sfq_sched.Lstf}): serves by
          [deadline − residual]. Ignores the weights — deadlines are
          the whole policy. Carries closures, so unlike the other
          specs it is not structurally comparable. *)
  | Pifo_lstf of {
      deadline : Sfq_base.Packet.t -> float;
      residual : Sfq_base.Packet.t -> float;
    }  (** the same discipline as a rank program on the PIFO runtime *)

val name : spec -> string
val make : spec -> Weights.t -> Sched.t
