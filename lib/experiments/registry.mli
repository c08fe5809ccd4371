(** A uniform, machine-consumable index of every experiment module —
    the E1–E28 data behind EXPERIMENTS.md — so the domain-parallel
    sweep engine ([bin/sfq_sweep], DESIGN.md §9) can regenerate all of
    it from one place and digest the results.

    Each entry wraps the module's [run] behind a common signature:
    [quick] maps to whatever reduced-size knob the module has (ignored
    when it has none), and [seed], when given, overrides the module's
    baked-in default seed (entries without a seed parameter ignore it —
    their data is deterministic by construction). Running an entry
    returns the result record marshalled to bytes; {!digest} is its MD5,
    a content hash of everything the experiment computed. Two runs agree
    on the digest iff they agree on every number in the result, which is
    the property the parallel≡serial suite and the golden corpus both
    lean on.

    Parallel safety (audit): an entry's [run] builds its simulator,
    servers, RNGs and metrics inside the call — experiment modules hold
    no module-level mutable state — so entries can execute on worker
    domains concurrently. Keep [print] (stdout, process-global) out of
    workers: the CLI prints only after the barrier, in index order. *)

type entry = {
  id : string;  (** EXPERIMENTS.md slug, e.g. ["fig-1b"] *)
  title : string;
  run : ?seed:int -> quick:bool -> unit -> string;
      (** marshalled result record (content bytes for hashing) *)
}

val all : entry list
(** In EXPERIMENTS.md order, E1 first. Entry indices are stable: the
    per-experiment seeds the CLI derives with [Seed.derive ~index] name
    the same experiment forever. *)

val find : string -> entry option

val digest : entry -> ?seed:int -> quick:bool -> unit -> string
(** MD5 (hex) of the entry's marshalled result. *)

val compact : id:string -> ?seed:int -> quick:bool -> unit -> string option
(** The golden-trace regression form: a few lines of per-flow packet
    counts, order hashes and [%h]-rendered headline numbers — compact
    enough to check in, exact enough to catch silent behavioral drift.
    Provided for ["example-1"] (E1), ["fig-1b"] (E3), ["table-1"]
    (Table 1), ["churn-stress"] (E24), ["pifo-port"] (E26),
    ["net-sweep"] (E27, one delivery-order digest per topology cell)
    and ["lstf-replay"] (E28, one replay verdict per recorded
    schedule); [None] for other ids. *)

val golden_corpus : unit -> string
(** The checked-in golden block ([test/golden/digests.expected]):
    {!compact} of example-1, fig-1b, table-1, churn-stress, pifo-port,
    net-sweep and lstf-replay under their default seeds (table-1 in quick mode, so
    [dune runtest] stays fast), then the oracle acceptance cells: the
    {!Sfq_oracle.Run.sweep_digest} line of every seeded mutant and one
    MD5 of it per {!Sfq_oracle.Suite.all_cells} family; plus [#]-comment
    header lines. Regenerate with
    [sfq-sweep golden > test/golden/digests.expected]; the regression
    test compares everything except [#] lines. *)
