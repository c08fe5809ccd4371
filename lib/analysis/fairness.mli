(** Empirical fairness index.

    The paper's fairness criterion: a discipline is fair with measure
    [H(f,m)] if for {e every} interval in which both flows are
    backlogged, [|W_f(t1,t2)/r_f − W_m(t1,t2)/r_m| <= H(f,m)]. This
    module measures the left-hand side's supremum from a
    {!Service_log}:

    - {!exact_h} maximizes over all candidate window boundaries
      (service starts × finishes) inside every both-backlogged
      interval, exact; used by [Sfq_oracle.Monitor.fairness] and the
      property tests against Theorem 1's bound. One pass over the log
      copies the pair's completions into float arrays; each window
      then takes its k completions from those arrays and scans
      O(k²) (start, completion) steps, allocating nothing per step:
      O(n + windows × k_pair + Σ k²) for n logged completions, k_pair
      of them the pair's;
    - {!approx_h} is a streaming drawdown over the normalized service
      difference sampled at completion instants — O(n); it attributes
      each packet to its finish time, so it can overshoot the exact
      index by at most one packet per flow ([l^max/r]); used by the
      large Table-1 workloads. *)

open Sfq_base

val intersect_intervals :
  (float * float) list -> (float * float) list -> (float * float) list
(** Pairwise intersection of two ordered disjoint interval lists. *)

val exact_h :
  Service_log.t -> f:Packet.flow -> m:Packet.flow -> r_f:float -> r_m:float -> until:float ->
  float
(** Supremum of [|W_f/r_f − W_m/r_m|] (seconds of normalized service)
    over windows within both-backlogged intervals. 0 when the flows
    are never simultaneously backlogged. *)

val approx_h :
  Service_log.t -> f:Packet.flow -> m:Packet.flow -> r_f:float -> r_m:float -> until:float ->
  float

val max_pairwise_h :
  Service_log.t -> rates:(Packet.flow * float) list -> until:float ->
  exact:bool -> float
(** Max of {!exact_h}/{!approx_h} over all flow pairs. *)

val throughput : Service_log.t -> Packet.flow -> t1:float -> t2:float -> float
(** Bits/s of service attributed to [\[t1,t2\]] windows (start+finish
    containment), i.e. [W_f(t1,t2)/(t2−t1)]. *)
