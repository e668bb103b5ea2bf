#ifndef IQ_OBS_METRIC_NAMES_H_
#define IQ_OBS_METRIC_NAMES_H_

#include <string>
#include <string_view>

/// The one place an `iq_*` metric name may be spelled as a string
/// literal. Every metric used anywhere in src/ must be declared here
/// and referenced through its constant; `tools/iqlint` (check
/// `metric-hygiene`, docs/static_analysis.md) flags stray literals at
/// call sites and duplicate declarations in this header — the failure
/// modes that silently fork a time series on the dashboard.
///
/// Naming scheme: iq_<component>_<what>[_unit][_total], Prometheus
/// style — `_total` for monotonic counters, an explicit unit suffix
/// (`_seconds`, `_bytes`) for measured quantities.

namespace iq::obs::metric {

// --- calibration (src/obs/calibration.cc) --------------------------------
inline constexpr char kCalibrationT1RelError[] = "iq_calibration_t1_rel_error";
inline constexpr char kCalibrationT2RelError[] = "iq_calibration_t2_rel_error";
inline constexpr char kCalibrationT3RelError[] = "iq_calibration_t3_rel_error";
inline constexpr char kCalibrationTotalRelError[] =
    "iq_calibration_total_rel_error";
inline constexpr char kCalibrationSamplesTotal[] =
    "iq_calibration_samples_total";

// --- thread pool (src/concurrency/thread_pool.cc) ------------------------
inline constexpr char kPoolQueueDepth[] = "iq_pool_queue_depth";
inline constexpr char kPoolTasksTotal[] = "iq_pool_tasks_total";
inline constexpr char kPoolTaskWaitSeconds[] = "iq_pool_task_wait_seconds";
inline constexpr char kPoolTaskRunSeconds[] = "iq_pool_task_run_seconds";

// --- sequential-scan baseline (src/scan/seq_scan.cc) ---------------------
inline constexpr char kScanQueriesTotal[] = "iq_scan_queries_total";

// --- batch filter kernels (src/quant/filter_kernel.cc) -------------------
inline constexpr char kFilterPointsTotal[] = "iq_filter_points_total";
inline constexpr char kFilterBatchesTotal[] = "iq_filter_batches_total";
inline constexpr char kFilterSimdBatchesTotal[] =
    "iq_filter_simd_batches_total";
inline constexpr char kFilterTableBindsTotal[] = "iq_filter_table_binds_total";
inline constexpr char kFilterDirectBindsTotal[] =
    "iq_filter_direct_binds_total";
inline constexpr char kFilterBatchPoints[] = "iq_filter_batch_points";

// --- disk model (src/io/disk_model.cc) -----------------------------------
inline constexpr char kDiskSeeksTotal[] = "iq_disk_seeks_total";
inline constexpr char kDiskBlocksReadTotal[] = "iq_disk_blocks_read_total";
inline constexpr char kDiskBlocksWrittenTotal[] =
    "iq_disk_blocks_written_total";

// --- storage (src/io/storage.cc) -----------------------------------------
inline constexpr char kStorageReadsTotal[] = "iq_storage_reads_total";
inline constexpr char kStorageWritesTotal[] = "iq_storage_writes_total";
inline constexpr char kStorageReadBytesTotal[] = "iq_storage_read_bytes_total";
inline constexpr char kStorageWrittenBytesTotal[] =
    "iq_storage_written_bytes_total";

// --- IQ-tree query engine (src/core/iq_tree.cc) --------------------------
inline constexpr char kQueryTotal[] = "iq_query_total";
inline constexpr char kQueryPagesDecodedTotal[] =
    "iq_query_pages_decoded_total";
inline constexpr char kQueryBlocksTransferredTotal[] =
    "iq_query_blocks_transferred_total";
inline constexpr char kQueryBatchesTotal[] = "iq_query_batches_total";
inline constexpr char kQueryRefinementsTotal[] = "iq_query_refinements_total";
inline constexpr char kQueryCellsEnqueuedTotal[] =
    "iq_query_cells_enqueued_total";

// --- VA-file baseline (src/vafile/va_file.cc) ----------------------------
inline constexpr char kVafileQueriesTotal[] = "iq_vafile_queries_total";
inline constexpr char kVafileRefinementsTotal[] =
    "iq_vafile_refinements_total";

// --- sharded query engine (src/shard/) -----------------------------------
inline constexpr char kShardFanoutTotal[] = "iq_shard_fanout_total";
inline constexpr char kShardQueriedTotal[] = "iq_shard_queried_total";
inline constexpr char kShardPrunedTotal[] = "iq_shard_pruned_total";
inline constexpr char kShardDeadlineExceededTotal[] =
    "iq_shard_deadline_exceeded_total";
/// Per-shard base name: expanded to iq_shard<i>_queries_total through
/// PerShardMetricName below, so each shard owns a distinct time series.
inline constexpr char kShardQueriesTotal[] = "iq_shard_queries_total";
/// Scatter waves dispatched by the sharded searcher (one increment per
/// wave<i> span) and the distribution of shards per wave.
inline constexpr char kShardWavesTotal[] = "iq_shard_waves_total";
inline constexpr char kShardWaveWidth[] = "iq_shard_wave_width";
inline constexpr char kShardWaveSeconds[] = "iq_shard_wave_seconds";

// --- query front-end (src/shard/query_front_end.cc) ----------------------
inline constexpr char kFrontendAdmittedTotal[] = "iq_frontend_admitted_total";
inline constexpr char kFrontendRejectedTotal[] = "iq_frontend_rejected_total";
inline constexpr char kFrontendDeadlineExceededTotal[] =
    "iq_frontend_deadline_exceeded_total";
inline constexpr char kFrontendInFlight[] = "iq_frontend_in_flight";
inline constexpr char kFrontendQueueDepth[] = "iq_frontend_queue_depth";
/// Wall seconds a query spent queued before admission (histogram).
inline constexpr char kFrontendQueueWaitSeconds[] =
    "iq_frontend_queue_wait_seconds";

// --- flight recorder (src/obs/flight_recorder.cc) ------------------------
inline constexpr char kFlightEventsTotal[] = "iq_flight_events_total";
inline constexpr char kFlightDroppedTotal[] = "iq_flight_dropped_total";
inline constexpr char kFlightDumpsTotal[] = "iq_flight_dumps_total";

/// Expands a declared `iq_shard_*` base name to its per-shard variant by
/// splicing the shard index into the component token:
///   PerShardMetricName(kShardQueriesTotal, 2) == "iq_shard2_queries_total".
/// Keeping the expansion here (next to the declarations) preserves the
/// metric-hygiene invariant: call sites never spell an iq_* literal.
inline std::string PerShardMetricName(std::string_view base, size_t shard) {
  constexpr std::string_view kPrefix = "iq_shard_";
  std::string name;
  if (base.substr(0, kPrefix.size()) == kPrefix) {
    name.append(base.substr(0, kPrefix.size() - 1));  // "iq_shard"
    name.append(std::to_string(shard));
    name.append(base.substr(kPrefix.size() - 1));  // "_queries_total"
  } else {
    name.assign(base);
    name.push_back('_');
    name.append(std::to_string(shard));
  }
  return name;
}

}  // namespace iq::obs::metric

#endif  // IQ_OBS_METRIC_NAMES_H_
