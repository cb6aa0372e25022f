(* HELP strings, keyed by metric name.  Keep each entry in sync with the
   README metric glossary: the test/obs parity test parses the glossary
   table and fails on any moq_shard_* / moq_agg_* name present on one side
   only. *)

let all =
  [
    (* sharded index-pruned sweeps (lib/core/shard.ml) *)
    ("moq_shard_shards", "home shards in the last run's grid index");
    ("moq_shard_touched_total", "shards actually swept (survived band pruning)");
    ("moq_shard_admissions_total", "objects admitted into the merge sweep");
    ("moq_shard_prunes_total", "objects never admitted into the merge sweep");
    ( "moq_shard_frontier_merge_ops_total",
      "frontier labels offered to the admitted union" );
    ( "moq_shard_events_total",
      "events across all shard-local sweeps (merge-sweep events land in moq_sweep_*)"
    );
    ( "moq_shard_index_build_seconds",
      "grid index build time, the once-per-query O(N) pass" );
    ( "moq_shard_sweep_seconds",
      "everything after the grid build: band, prune, sweeps, merge" );
    (* continuous POI aggregation (lib/agg) *)
    ("moq_agg_pois", "places of interest registered across aggregations");
    ( "moq_agg_watch_admitted_total",
      "(POI, object) pairs that came within d of the POI" );
    ( "moq_agg_watch_pruned_total",
      "trajectory deliveries to a POI decided beyond d without a root" );
    ("moq_agg_updates_total", "updates offered to continuous aggregations");
    ("moq_agg_rows_total", "window rows finalized across all POIs");
    ("moq_agg_windows_total", "tumbling windows closed across all POIs");
    ( "moq_agg_subscriptions_total",
      "agg subscriptions ever created on the server" );
    ( "moq_agg_rows_pushed_total",
      "finalized window rows pushed to agg subscribers" );
  ]

let find name = List.assoc_opt name all
