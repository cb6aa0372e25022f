(** One query-execution path for every one-shot query.

    The CLI ([moq knn], [moq explain], [moq stats]) and the server's
    [QUERY] handler all run a query through {!Make.run}: pick a driver and
    a query, sweep the window, and get back the answer timeline together
    with its [moq explain] report — sweep counters, the Lemma 9 block,
    hot objects and, for the sharded driver, the pruning block — all
    measured on this run alone. *)

module Q = Moq_numeric.Rat

(** How the sweep is organised. *)
type driver =
  | Plain  (** one sweep over every object ({!Knn}, {!Range_query}, {!Sweep}) *)
  | Sharded
      (** index-pruned shard sweeps plus a merge sweep ({!Shard}) for k-NN;
          the other queries have no pruning rule and sweep plainly *)

type query =
  | Knn of int  (** the k nearest neighbours of the reference trajectory *)
  | Range of Q.t  (** objects within this squared distance *)
  | Past of Fof.query  (** a general FO(f) query, swept over the window *)

module Make (B : Backend.S) : sig
  module TL : module type of struct include Timeline.Make (B) end

  type result = {
    timeline : TL.t;  (** simplified *)
    explain : Explain.t;
        (** [counters] holds this run's own [moq_sweep_events_total] and
            [moq_sweep_comparisons_total], which the Lemma 9 block is
            derived from; no [filter] block and no [phases] *)
  }

  val run :
    ?driver:driver -> ?sink:Moq_obs.Sink.t -> backend:string -> describe:string ->
    db:Moq_mod.Mobdb.t -> gamma:Moq_mod.Trajectory.t -> lo:Q.t -> hi:Q.t ->
    query -> result
  (** Evaluate [query] over [lo, hi] under the squared-Euclidean g-distance
      to [gamma] (default driver {!Plain}; a [Past] query's own interval is
      replaced by the window).  [backend] and [describe] label the report.
      The run counts into [sink] (default no-op) like the operator it
      calls.
      @raise Invalid_argument if k <= 0. *)
end
