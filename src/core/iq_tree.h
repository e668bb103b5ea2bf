#ifndef IQ_CORE_IQ_TREE_H_
#define IQ_CORE_IQ_TREE_H_

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/contract.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/mutex.h"
#include "core/format.h"
#include "core/split_tree_optimizer.h"
#include "costmodel/cost_model.h"
#include "data/dataset.h"
#include "geom/metrics.h"
#include "geom/neighbor.h"
#include "io/block_file.h"
#include "io/disk_model.h"
#include "io/extent_file.h"
#include "io/storage.h"
#include "obs/calibration.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace iq {

/// Observability counters of one NN/k-NN/range query (what its I/O
/// time was spent on), and the query's own simulated I/O.
struct IqQueryStats {
  /// Quantized pages actually decoded.
  size_t pages_decoded = 0;
  /// Blocks transferred from the second level, including over-reads.
  size_t blocks_transferred = 0;
  /// Sequential accesses (batches) to the second level.
  size_t batches = 0;
  /// Third-level record lookups (exact-geometry consultations).
  size_t refinements = 0;
  /// k-NN candidates: point approximations under the prune distance
  /// when their page was decoded (each may later be refined).
  size_t cells_enqueued = 0;
  /// Every access this query charged, from its own fresh disk head:
  /// the same whether the query runs alone or beside others.
  IoStats io;
  /// io.io_time_s split by IQ-tree level (paper §3.4): t1 the `dir_scan`
  /// I/O, t2 the `batch` I/O, t3 the `refine` and `exact_page` I/O.
  /// Each term is added where the matching span's `io_s` is taken, so
  /// it equals those spans' `io_s` summed in span order, traced or not.
  obs::CostBreakdown observed;
};

/// Query-time options for the IQ-tree.
struct IqSearchOptions {
  /// true: the paper's time-optimized page scheduling (§2.1) batching
  /// neighboring pages by access probability. false: the standard
  /// one-page-per-access HS search (the Fig. 7 "standard NN-search"
  /// variant).
  bool optimized_access = true;
  /// Optional per-query trace sink (docs/observability.md). When set,
  /// the search records a span tree — directory scan, batch decisions,
  /// page decodes, refinements — into it; query results are identical
  /// either way. Each span's `io_s` is a difference of this query's
  /// own I/O clock. The tracer is thread-safe, but a tracer per query
  /// keeps each query's span tree (and span cap) its own.
  obs::QueryTracer* tracer = nullptr;
  /// When `tracer` is set, the query's root span ("knn"/"range") is
  /// opened under this span instead of as a new root — the sharded
  /// engine grafts each per-shard subtree under its own shard<i> span
  /// so one query yields one stitched tree (docs/observability.md,
  /// "Sharded queries"). Ignored without a tracer.
  obs::SpanId parent_span = obs::kNoSpan;
  /// Optional slow-query sink (docs/observability.md): every finished
  /// NN/k-NN/range query is offered with its own observed breakdown
  /// (IqQueryStats::observed) and the cost model's predicted one; the
  /// log retains outliers, with `tracer`'s spans when it is set.
  /// Thread-safe; one log may be shared by concurrent queries.
  obs::SlowQueryLog* slow_log = nullptr;
  /// Optional result sink: when set, the query writes its own
  /// IqQueryStats here once it has searched (also when the search
  /// failed part-way). An output like `tracer`, not a behaviour switch;
  /// left untouched when the query is rejected before searching
  /// (invalid arguments, k = 0).
  IqQueryStats* stats = nullptr;
};

/// The IQ-tree (paper §3): a three-level compressed index for exact
/// similarity search in high-dimensional point data.
///
///   level 1  <name>.dir  flat directory of exact MBRs
///   level 2  <name>.qpg  fixed-size quantized data pages
///   level 3  <name>.dat  variable-size exact data pages
///
/// Every public operation (query, update, build, Validate) charges its
/// disk accesses to its own fresh DiskHead, so each one pays the seek
/// the paper charges at its start and its cost never depends on other
/// operations; queries report that cost in IqQueryStats::io. Query
/// results are exact (not approximate) answers, with the compressed
/// level used to avoid most exact-data reads.
///
/// Concurrency contract (docs/concurrency.md) — two tiers:
///
///   1. The const query methods — NearestNeighbor, KNearestNeighbors,
///      RangeSearch, WindowQuery — may run concurrently with each other
///      on one tree (each query's head and counters are its own; the
///      DiskModel totals are atomic, and the last_query_stats_
///      publication and the stored PredictCost value are locked).
///   2. Updates (Insert, Remove, Flush, Reoptimize)
///      require external exclusion against everything, single-writer
///      style — they rewrite live blocks in place.
class IqTree {
 public:
  /// Build-time options.
  struct Options {
    Metric metric = Metric::kL2;
    /// Fractal (correlation) dimension for the cost model; <= 0 means
    /// estimate it from the data at build time.
    double fractal_dimension = 0.0;
    /// false builds the reduced "no quantization" variant of the Fig. 7
    /// ablation: every page stores exact points (g = 32), no third
    /// level, no optimizer.
    bool quantize = true;
    /// When non-zero (a kQuantLevels value), every page is stored at
    /// exactly this level and the optimizer is skipped — the fixed-rate
    /// ablation that shows why per-page optimization matters.
    unsigned fixed_quant_bits = 0;
    /// k of the k-NN workload the cost model optimizes the quantization
    /// for (§3.4 footnote). Larger k means larger query balls, more
    /// refinements, hence finer pages. Queries of any k remain exact
    /// regardless of this setting.
    unsigned optimize_for_k = 1;
    uint64_t seed = 42;
  };

  using QueryStats = IqQueryStats;

  struct BuildStats {
    size_t num_pages = 0;
    size_t initial_partitions = 0;
    size_t splits_explored = 0;
    size_t splits_kept = 0;
    double expected_query_cost_s = 0.0;
    double fractal_dimension = 0.0;
    /// Pages per quantization level, indexed 0..5 for g=1,2,4,8,16,32.
    std::array<size_t, 6> pages_per_level{};
  };

  // Not movable: the tree owns a mutex (query-stats publication) and
  // concurrent readers hold references. Build/Open return unique_ptr,
  // so address stability is the natural ownership model anyway.
  IqTree(IqTree&&) = delete;
  IqTree& operator=(IqTree&&) = delete;

  /// Bulk-loads an IQ-tree over `data` (§3.3): top-down partitioning to
  /// 1-bit pages, then cost-model-driven optimal quantization (§3.5),
  /// then the three files are laid out in partitioning order. Row r
  /// gets id `ids[r]`, or r when `ids` is empty; a non-empty `ids`
  /// whose length differs from the row count is InvalidArgument.
  static Result<std::unique_ptr<IqTree>> Build(
      const Dataset& data, Storage& storage, const std::string& name,
      DiskModel& disk, const Options& options,
      std::span<const PointId> ids = {});

  /// Opens a previously built index. Fails with Corruption on damaged
  /// files.
  static Result<std::unique_ptr<IqTree>> Open(Storage& storage,
                                              const std::string& name,
                                              DiskModel& disk);

  /// Exact nearest neighbor of `q`. NotFound on an empty index.
  Result<Neighbor> NearestNeighbor(PointView q,
                                   const IqSearchOptions& options = {}) const;

  /// Exact k nearest neighbors, ascending by distance.
  Result<std::vector<Neighbor>> KNearestNeighbors(
      PointView q, size_t k, const IqSearchOptions& options = {}) const;

  /// All points within metric distance `radius` of `q`, ascending by
  /// distance.
  Result<std::vector<Neighbor>> RangeSearch(
      PointView q, double radius, const IqSearchOptions& options = {}) const;

  /// All point ids inside the window (inclusive bounds). Untraced and
  /// never slow-logged; when `io` is set, the query's own I/O is
  /// written there.
  Result<std::vector<PointId>> WindowQuery(const Mbr& window,
                                           IoStats* io = nullptr) const;

  /// Inserts a point (§6): the target page is re-encoded; on overflow
  /// the cost model decides between splitting the page and re-quantizing
  /// it at coarser granularity.
  Status Insert(PointId id, PointView p);

  /// Removes a point by id and location. NotFound if absent. The page is
  /// re-quantized at finer granularity when the removal makes that
  /// possible.
  Status Remove(PointId id, PointView p);

  /// Persists the in-memory directory after updates.
  Status Flush();

  /// Rebuilds the partitioning and quantization of the current contents
  /// from scratch with the cost-model optimizer (§6: after many updates
  /// the locally maintained solution can drift from the optimum, and
  /// updates leave garbage in the files). Restores spatially clustered
  /// page order, ~100% page fill and the optimal per-page rates, and
  /// reclaims dead extents.
  Status Reoptimize();

  /// Deep structural scrub: decodes every page of all three levels and
  /// checks them against the directory — header agreement, counts,
  /// extent sizes, cell boxes containing their exact points, MBR
  /// containment and tightness, id uniqueness. Returns the first
  /// violation as a Corruption error. Reads are charged to the disk
  /// model (it is a full-index scan).
  Status Validate() const;

  /// The cost model's predicted per-query breakdown for this index —
  /// T_1st (eq. 22), T_2nd (eqns 16-21) and T_3rd (sum of eqns 6-15
  /// over the directory) in simulated seconds. This is the "predicted"
  /// side of the calibration telemetry (docs/observability.md); the
  /// "observed" side is each query's IqQueryStats::observed. A
  /// per-index constant: evaluated on the first call after the
  /// directory last changed (Build, Open, an update, Reoptimize) and a
  /// stored copy after that. Thread-safe, like the queries.
  obs::CostBreakdown PredictCost() const IQ_EXCLUDES(predicted_mu_);

  const IndexMeta& meta() const { return meta_; }
  size_t dims() const { return meta_.dims; }
  uint64_t size() const { return meta_.total_points; }
  Metric metric() const { return static_cast<Metric>(meta_.metric); }
  size_t num_pages() const { return dir_.size(); }
  double fractal_dimension() const { return meta_.fractal_dimension; }
  const BuildStats& build_stats() const { return build_stats_; }
  /// Counters of the most recent completed NN/k-NN/range query on this
  /// tree — a convenience for sequential callers (perfbench's benchmark
  /// loop). With concurrent queries "most recent" means whichever
  /// finished last; read a query's own stats through
  /// IqSearchOptions::stats instead.
  QueryStats last_query_stats() const IQ_EXCLUDES(query_stats_mu_) {
    MutexLock lock(&query_stats_mu_);
    return last_query_stats_;
  }
  /// What every finished NN/k-NN/range query does to report itself:
  /// publishes its stats as last_query_stats() and folds its counters
  /// into the process-wide metric registry. Public so bench/micro_obs
  /// can time that report path on its own.
  void PublishQueryStats(const QueryStats& stats) const
      IQ_EXCLUDES(query_stats_mu_);
  const std::vector<DirEntry>& directory() const { return dir_; }

  /// Checks that the query-only directory mirror (the dimension-major
  /// MBR arrays and the qpage-block map the searches read) matches
  /// directory() entry for entry and covers every qpage block;
  /// Corruption when it does not. The
  /// IQ_DEBUG_INVARIANTS hook runs it after every mutation.
  Status CheckDirGeometry() const;

  /// The §3.5 cost model parameterized for this index — what the build
  /// optimizer, the §6 split-or-coarsen decision of updates and
  /// PredictCost evaluate.
  CostModel MakeCostModel() const;

 private:
  friend class IqTreeSearcher;

  IqTree() = default;

  /// Query-only mirror of dir_'s geometry, rebuilt from dir_ (the
  /// source of truth) by RefreshFromDirectory at Build, Open and
  /// Reoptimize and once at the end of every update (FinishUpdate).
  /// Entry j's MBR side in dimension i is [lo[i*stride + j],
  /// hi[i*stride + j]] with stride = the entry count, the layout
  /// FilterKernel::BoxMinDists sweeps. block_entry maps each qpage block that existed at the
  /// refresh to the entry that owns it, kNoEntry for garbage.
  struct DirGeometry {
    static constexpr uint32_t kNoEntry = 0xFFFFFFFF;

    size_t stride = 0;
    std::vector<float> lo;
    std::vector<float> hi;
    std::vector<uint32_t> block_entry;

    /// Owning entry of `block`; kNoEntry for unowned blocks and blocks
    /// past the mirror.
    uint32_t EntryAt(uint64_t block) const {
      return block < block_entry.size() ? block_entry[block] : kNoEntry;
    }
  };

  /// The mirror of the current dir_ and qpage file (dir_geom_'s value
  /// after a refresh).
  DirGeometry MakeDirGeometry() const;

  /// Rebuilds dir_geom_ from dir_ and drops the stored prediction, so
  /// the next PredictCost evaluates the changed directory.
  void RefreshFromDirectory() IQ_EXCLUDES(predicted_mu_);

  /// Ends an update whose body returned `update`: refreshes the
  /// mirror once (also after a failure, which may have changed part of
  /// the directory), then runs DebugCheckInvariants if it succeeded.
  /// The bodies below leave the mirror stale until then; nothing on
  /// their path reads it.
  Status FinishUpdate(const Status& update);

  /// Bodies of Insert and Remove past their argument checks. Here and
  /// below, `head` is the calling public operation's disk head.
  Status InsertPoint(DiskHead& head, PointId id, PointView p);
  Status RemovePoint(DiskHead& head, PointId id, PointView p);

  /// Charges the per-query sequential scan of the first-level directory
  /// (T_1st, eq. 22).
  void ChargeDirectoryScan(DiskHead& head) const;

  /// Loads and decodes the exact data page backing directory entry
  /// `dir_index` (reads the whole variable-size extent; for g=32 pages
  /// the records come from the quantized page instead).
  Status LoadExactPage(DiskHead& head, size_t dir_index,
                       std::vector<PointId>* ids,
                       std::vector<float>* coords) const;

  /// Rewrites the pages of directory entry `dir_index` from exact
  /// records, choosing the best quantization level; splits if the cost
  /// model prefers it on overflow.
  Status RewriteEntry(DiskHead& head, size_t dir_index,
                      std::vector<PointId> ids, std::vector<float> coords);

  /// Appends a brand-new entry (qpage at end of file). The records must
  /// fit one page; Internal if they do not.
  Status AppendEntry(DiskHead& head, const std::vector<PointId>& ids,
                     const std::vector<float>& coords);

  /// Encodes + writes the qpage/extent for an entry whose points fit.
  Status WriteEntryPages(DiskHead& head, DirEntry* entry,
                         const std::vector<PointId>& ids,
                         const std::vector<float>& coords, bool append_qpage);

  /// Partitions/optimizes `data` and writes all pages into the (fresh)
  /// files. Row r of `data` gets id `row_ids[r]` (or r if empty).
  /// Shared by Build and Reoptimize.
  Status PopulateFromDataset(DiskHead& head, const Dataset& data,
                             std::span<const PointId> row_ids,
                             const Options& options);

  /// Re-checks the directory invariants (analysis/invariant_checker.h)
  /// after a build/update operation. No-op unless compiled with
  /// -DIQ_DEBUG_INVARIANTS=ON.
  Status DebugCheckInvariants() const;

  // Everything below except the two locked pairs follows the tree's
  // two-tier model (docs/concurrency.md): concurrent queries only read,
  // and structural updates require external exclusion.
  IndexMeta meta_ IQ_UNGUARDED("single-writer: set by Build/Open, updates require external exclusion");
  Storage* storage_ IQ_UNGUARDED("immutable after Build/Open") = nullptr;
  std::string name_ IQ_UNGUARDED("immutable after Build/Open");
  std::vector<DirEntry> dir_ IQ_UNGUARDED("single-writer: queries only read, updates require external exclusion");
  DirGeometry dir_geom_ IQ_UNGUARDED("single-writer: refreshed once per update under dir_'s discipline; only queries read it");
  std::unique_ptr<BlockFile> qpages_ IQ_UNGUARDED("single-writer: replaced only by Reoptimize under external exclusion");
  std::unique_ptr<ExtentFile> exact_ IQ_UNGUARDED("single-writer: replaced only by Reoptimize under external exclusion");
  std::shared_ptr<File> dir_file_ IQ_UNGUARDED("immutable after Build/Open");
  DiskModel* disk_ IQ_UNGUARDED("immutable after Build/Open") = nullptr;
  uint32_t dir_file_id_ IQ_UNGUARDED("immutable after Build/Open") = 0;
  BuildStats build_stats_ IQ_UNGUARDED("single-writer: rewritten by build paths under external exclusion");
  mutable Mutex query_stats_mu_{IQ_LOCK_RANK(10)};
  mutable QueryStats last_query_stats_ IQ_GUARDED_BY(query_stats_mu_);
  mutable Mutex predicted_mu_{IQ_LOCK_RANK(12)};
  /// PredictCost's value for the current dir_; empty until its first
  /// call after a refresh.
  mutable std::optional<obs::CostBreakdown> predicted_
      IQ_GUARDED_BY(predicted_mu_);
  bool dirty_ IQ_UNGUARDED("single-writer: updates require external exclusion") = false;
};

}  // namespace iq

#endif  // IQ_CORE_IQ_TREE_H_
