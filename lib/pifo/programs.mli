(** The paper's disciplines as rank programs.

    Each constructor below is the ~20-line port of one hand-written
    scheduler onto the {!Pifo_sched} runtime; the equivalence harness
    ([test/test_pifo_equiv.ml]) holds every port to its original —
    packet-for-packet on dyadic workloads for the pure fixed-point
    programs, outcome-digest over the frozen pools for the GPS-clocked
    ones (whose tags involve non-dyadic fluid divisions).

    Quantization and rate-snapshot caveats are those of the int tags
    (see {!Tag} and {!Flow_state}); a flow whose slot the runtime gave
    back as stale re-reads its weight when it returns, as after a
    close. Tie-breaking configuration ([Tag_queue.tie]) belongs to the
    runtime, not the program: pass it to {!Pifo_sched.create}.

    Each program's {!Rank_program.t.stale} rule is stated below; the
    equivalence harness drives every program that has one against the
    same program answering {!Rank_program.never_stale} and demands
    identical results. *)

open Sfq_base

val sfq :
  ?busy_rule:Sfq_core.Sfq.busy_rule -> ?frac_bits:int -> Weights.t -> Rank_program.t
(** Start-time fair queueing, eqs. 4–5: rank = start tag
    [max (v, F_prev)], [v] follows the served start tag, busy rule as
    in the float original (default [Idle_poll]). Honors per-packet
    rate overrides. Name ["pifo-sfq"].

    Stale once [F_prev <= v]: [v] is the served start tag, or the
    largest served finish tag after an idle poll, so it never
    decreases, and then [max (v', F_prev) = max (v', 0)] for every
    later [v']. *)

val scfq : ?frac_bits:int -> Weights.t -> Rank_program.t
(** Self-clocked fair queueing (eq. 56): rank = finish tag, [v] =
    finish tag in service, idle reset clears [v] and every per-flow
    finish tag. Ignores rate overrides. Name ["pifo-scfq"].

    Stale once [F_prev <= v]: [v] never decreases within a busy
    period, and the idle reset zeroes every tag anyway. *)

val virtual_clock : ?frac_bits:int -> Weights.t -> Rank_program.t
(** Virtual Clock: rank = [max (now, EAT_floor) + len/rate], the floor
    advancing to the rank. Reads real time; no virtual clock to
    expose. Name ["pifo-vc"].

    Stale once the EAT floor is at or behind [now] (encoded): callers
    pass non-decreasing [now] (the {!Sched} contract), so the floor
    can no longer win [max (now', floor)]. *)

val delay_edd :
  ?frac_bits:int -> (Packet.flow * Sfq_sched.Delay_edd.flow_spec) list -> Rank_program.t
(** Delay EDD: rank = [EAT + deadline] against each flow's declared
    spec; the spec is configuration and survives close, the EAT floor
    does not. Stale by Virtual Clock's rule: the EAT floor is at or
    behind [now].
    @raise Invalid_argument on an invalid spec, or (at enqueue) on a
    packet of an undeclared flow. Name ["pifo-edd"]. *)

val lstf :
  ?frac_bits:int ->
  ?residual:(Packet.t -> float) ->
  deadline:(Packet.t -> float) ->
  unit ->
  Rank_program.t
(** Least-Slack-Time-First ({!Sfq_sched.Lstf} as a rank program): rank
    = [deadline − residual], quantized through the codec and clamped to
    a per-flow monotone floor (forgotten on close, kept on evict) so
    the runtime's within-flow rank invariant holds under arbitrary
    caller-supplied deadlines. [residual] defaults to [fun _ -> 0.0].
    The floor is keyed by flow id, so the program is
    {!Rank_program.never_stale}. Name ["pifo-lstf"]. *)

val fqs : capacity:float -> ?frac_bits:int -> Weights.t -> Rank_program.t
(** Fair queueing based on start time: rank = the GPS fluid start tag
    (eq. 1). The program attaches the runtime's size thunk as the
    fluid clock's busy-period guard. Its [on_close] forgets the flow
    in the GPS clock, by flow id, so it is {!Rank_program.never_stale}.
    Name ["pifo-fqs"]. *)

val wf2q : capacity:float -> ?frac_bits:int -> Weights.t -> Rank_program.t
(** Worst-case fair weighted fair queueing, as a {e shaped} program:
    service rank = GPS finish tag, eligibility rank = GPS start tag,
    horizon = the GPS virtual time — the runtime's shaper stage
    reproduces the hand-written two-stage scheduler.
    {!Rank_program.never_stale}, like FQS. Name ["pifo-wf2q"]. *)
