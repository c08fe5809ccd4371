(** E28: LSTF schedule-replay universality.

    The executable form of the UPS replay question (DESIGN.md §14)
    over this repo's corpus: every row records a schedule, replays it,
    and pins the verdict digest.

    - [single]: {!Sfq_oracle.Replay.suite_cells} — each shipped
      discipline recorded on frozen theorem-pool workloads and
      replayed under single-hop LSTF. All rows must come back
      [replayed] (the single-server replay argument is airtight:
      ranks are the recorded start times, distinct and increasing).
    - [net]: the E27 grid (first replicate, churn cell excluded)
      recorded via {!Net_sweep.record_net} and replayed with per-link
      LSTF on route-aware residuals. Success is the UPS criterion (no
      packet later than recorded — {!Net_sweep.net_verdict}); exact
      packet-for-packet order holds on 15 of the 16 cells (all but
      dumbbell3x2/PIFO-SFQ, which is on time with one swap) and prints
      as its own tier. The empirical half of the claim — there is no
      multi-hop order theorem.
    - [control]: the same recordings replayed under plain SFQ instead
      of LSTF. SFQ is not universal: at least one cell must deliver a
      packet late ([ok] marks the rows that do), which is what makes
      the [net] rows evidence rather than tautology.
    - [kills]: the seeded-mutant cells — single-hop
      {!Sfq_oracle.Replay.directed_kills} (correct replays, mutant
      diverges) plus the grid's star4/sfq recording replayed under the
      wrong-slack LSTF mutant, which must turn a packet late.

    The golden corpus pins every verdict digest; a scheduling change
    that moves any recorded order, or a replay regression that breaks
    packet-for-packet fidelity, flips the text. *)

type row = {
  cell : string;
  verdict : string;  (** {!Sfq_oracle.Replay.verdict_digest} *)
  ok : bool;  (** verdict matches the row's expectation (see above) *)
}

type result = {
  single : row list;
  net : row list;
  control : row list;
  kills : row list;
}

val run : ?seed:int -> ?limit:int -> unit -> result
(** [seed] is the E27 grid root (default [0x7e57], matching E27 so the
    recordings digest identically); [limit] truncates the theorem pool
    for the single-hop rows (default 4 workloads). *)

val print : unit -> unit
