// The benchmark's three workloads. Each builds its index from a fixed
// generated data set, then runs a closed loop of operations drawn from
// the held-out query rows by --seed, checks every answer against brute
// force, and reports end-to-end metrics from an untraced window and
// per-layer metrics from a separate traced pass (see README.md).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/format.h"
#include "core/iq_tree.h"
#include "data/generators.h"
#include "fractal/fractal_dimension.h"
#include "io/storage.h"
#include "layers.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "perf.h"
#include "scan/seq_scan.h"
#include "shard/query_front_end.h"
#include "shard/sharded_bulk_loader.h"
#include "shard/sharded_searcher.h"
#include "vafile/va_file.h"

namespace iqperf {

namespace {

using Clock = std::chrono::steady_clock;
using iq::obs::QueryTracer;
using iq::obs::SpanId;
using iq::obs::SpanRecord;

constexpr size_t kDims = 16;
constexpr size_t kK = 10;
/// Range queries use the distance of this neighbor as their radius.
constexpr size_t kRadiusRank = 20;
/// The data set is the same for every seed; --seed draws the operation
/// stream (which held-out rows are queried, in which order, and the
/// order of the mix).
constexpr uint64_t kDataSeed = 7;
constexpr size_t kOracleThreads = 4;
/// Span kinds that carry the simulated I/O of one IQ-tree query.
constexpr std::array<const char*, 4> kIoSpanKinds = {"dir_scan", "batch",
                                                     "refine", "exact_page"};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "iqperf: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(iq::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const iq::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// --- metric tables ---------------------------------------------------------

const std::vector<Metric> kEndToEnd = {
    {"setup_s", 0, "s"},       {"knn_p90_ms", 0, "ms"},
    {"knn_io_s", 0, "s"},      {"range_p90_ms", 0, "ms"},
    {"range_io_s", 0, "s"},    {"qps", 0, "1/s"},
    {"space_amp", 0, "ratio"},
};

const std::vector<Metric> kPerLayer = {
    {"latency.knn_p50_ms", 0, "ms"},
    {"latency.range_p50_ms", 0, "ms"},
    {"fractal.estimate_ms", 0, "ms"},
    {"fractal.df", 0, "dims"},
    {"core.build_ms", 0, "ms"},
    {"core.pages", 0, "count"},
    {"core.exact_page_frac", 0, "ratio"},
    {"costmodel.pred_io_s", 0, "s"},
    {"costmodel.pred_over_obs", 0, "ratio"},
    {"bench.call_self_us", 0, "us"},
    {"core.search_self_us", 0, "us"},
    {"core.dir_scan_self_us", 0, "us"},
    {"core.refine_self_us", 0, "us"},
    {"core.refinements_per_query", 0, "count"},
    {"sched.batch_self_us", 0, "us"},
    {"sched.batches_per_query", 0, "count"},
    {"sched.overread_blocks_per_query", 0, "count"},
    {"quant.page_self_us", 0, "us"},
    {"quant.cells_enqueued_per_query", 0, "count"},
    {"quant.filter_points_per_query", 0, "count"},
    {"io.exact_page_self_us", 0, "us"},
    {"io.seeks_per_query", 0, "count"},
    {"io.blocks_per_query", 0, "count"},
    {"io.blocks_written_per_insert", 0, "count"},
    {"update.insert_p50_us", 0, "us"},
    {"update.remove_p50_us", 0, "us"},
    {"shard.frontend_self_us", 0, "us"},
    {"shard.merge_self_us", 0, "us"},
    {"shard.wave_self_us", 0, "us"},
    {"shard.queried_per_query", 0, "count"},
    {"shard.pruned_frac", 0, "ratio"},
    {"shard.wave_ms_p50", 0, "ms"},
    {"shard.frontend_queue_wait_ms_p50", 0, "ms"},
    {"concurrency.dispatch_self_us", 0, "us"},
    {"concurrency.pool_wait_ms_p50", 0, "ms"},
    {"obs.trace_overhead_pct", 0, "%"},
    {"obs.spans_per_query", 0, "count"},
    {"other.self_us", 0, "us"},
    {"scan.query_ms", 0, "ms"},
    {"scan.io_s", 0, "s"},
    {"vafile.query_ms", 0, "ms"},
    {"vafile.io_s", 0, "s"},
};

/// Which per-layer self-time metric a span kind's self time feeds.
const std::map<std::string, std::string> kSelfTimeMetric = {
    {"op.knn", "bench.call_self_us"},
    {"op.range", "bench.call_self_us"},
    {"knn", "core.search_self_us"},
    {"range", "core.search_self_us"},
    {"dir_scan", "core.dir_scan_self_us"},
    {"refine", "core.refine_self_us"},
    {"batch", "sched.batch_self_us"},
    {"page", "quant.page_self_us"},
    {"exact_page", "io.exact_page_self_us"},
    {"frontend", "shard.frontend_self_us"},
    {"queue_wait", "shard.frontend_self_us"},
    {"admission", "shard.frontend_self_us"},
    {"sharded_knn", "shard.merge_self_us"},
    {"sharded_range", "shard.merge_self_us"},
    {"wave", "shard.wave_self_us"},
    {"shard", "concurrency.dispatch_self_us"},
};

/// Collects metric values by name; Emit() lays them out in table order
/// and flags any table entry nobody measured.
class MetricSet {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double value) { values_[name] += value; }

  std::vector<Metric> Emit(const std::vector<Metric>& table,
                           std::vector<std::string>* problems) const {
    std::vector<Metric> out;
    for (const Metric& spec : table) {
      const auto it = values_.find(spec.name);
      if (it == values_.end()) {
        problems->push_back("metric " + spec.name + " was not measured");
        continue;
      }
      out.push_back(Metric{spec.name, it->second, spec.unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Per-layer metrics every workload reports as 0 unless it exercises
/// the layer (the table must print in full on every workload).
void ZeroPerLayer(MetricSet* metrics) {
  for (const Metric& m : kPerLayer) metrics->Set(m.name, 0);
}

/// Folds accumulated self times (ns, over `reads` read operations) into
/// mean microseconds per read operation.
void EmitSelfTimes(const std::map<std::string, int64_t>& self_ns, size_t reads,
                   MetricSet* metrics) {
  const double per = reads > 0 ? 1e-3 / static_cast<double>(reads) : 0;
  for (const auto& [kind, ns] : self_ns) {
    const auto it = kSelfTimeMetric.find(kind);
    const std::string name =
        it == kSelfTimeMetric.end() ? "other.self_us" : it->second;
    metrics->Add(name, static_cast<double>(ns) * per);
  }
}

// --- registry counters -----------------------------------------------------

/// The process-wide registry counters the benchmark reads, indexed by
/// CounterId.
enum CounterId {
  kFilterPoints,
  kSeeks,
  kBlocksRead,
  kRefinements,
  kCellsEnqueued,
  kBatches,
  kBlocksTransferred,
  kPagesDecoded,
  kFanout,
  kShardsQueried,
  kShardsPruned,
  kNumCounters
};

const char* const kCounterNames[kNumCounters] = {
    iq::obs::metric::kFilterPointsTotal,
    iq::obs::metric::kDiskSeeksTotal,
    iq::obs::metric::kDiskBlocksReadTotal,
    iq::obs::metric::kQueryRefinementsTotal,
    iq::obs::metric::kQueryCellsEnqueuedTotal,
    iq::obs::metric::kQueryBatchesTotal,
    iq::obs::metric::kQueryBlocksTransferredTotal,
    iq::obs::metric::kQueryPagesDecodedTotal,
    iq::obs::metric::kShardFanoutTotal,
    iq::obs::metric::kShardQueriedTotal,
    iq::obs::metric::kShardPrunedTotal,
};

using Counters = std::array<double, kNumCounters>;

Counters operator-(Counters a, const Counters& b) {
  for (size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

Counters& operator+=(Counters& a, const Counters& b) {
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

Counters ReadCounters() {
  Counters c{};
  for (const iq::obs::MetricSample& s :
       iq::obs::MetricRegistry::Global().Snapshot()) {
    for (size_t i = 0; i < c.size(); ++i) {
      if (s.name == kCounterNames[i]) c[i] = s.value;
    }
  }
  return c;
}

/// Simulated seconds of the reads the registry counted.
double CountedIoSeconds(const Counters& delta) {
  const iq::DiskParameters params;
  return delta[kSeeks] * params.seek_time_s +
         delta[kBlocksRead] * params.xfer_time_s;
}

// --- shared pieces ---------------------------------------------------------

/// Runs `fn` inside a span of the benchmark's own tracer and returns the
/// span's duration in milliseconds.
template <typename F>
double TimedSpan(QueryTracer& tracer, const char* name, F&& fn) {
  const SpanId span = tracer.BeginSpan(name);
  fn();
  tracer.EndSpan(span);
  const SpanRecord record = tracer.Snapshot()[span];
  return static_cast<double>(record.wall_end_ns - record.wall_begin_ns) / 1e6;
}

enum class OpKind : uint8_t { kKnn, kRange, kInsert, kRemove };

const char* SpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kKnn: return "op.knn";
    case OpKind::kRange: return "op.range";
    case OpKind::kInsert: return "op.insert";
    case OpKind::kRemove: return "op.remove";
  }
  return "op";
}

bool IsRead(OpKind kind) {
  return kind == OpKind::kKnn || kind == OpKind::kRange;
}

/// Operations per shuffled block of the stream.
struct Mix {
  size_t knn = 0;
  size_t range = 0;
  size_t insert = 0;
  size_t remove = 0;
};

struct Op {
  OpKind kind = OpKind::kKnn;
  /// Row of the query pool (reads only).
  uint32_t query = 0;
};

/// Deterministic operation stream: blocks holding the mix's counts of
/// each kind, shuffled by the seed, each remove placed after its
/// block's insert so the index size stays level.
class OpStream {
 public:
  OpStream(uint64_t seed, const Mix& mix, size_t pool)
      : rng_(seed), mix_(mix), pool_(pool) {}

  Op Next() {
    if (next_ == block_.size()) Refill();
    Op op;
    op.kind = block_[next_++];
    op.query = static_cast<uint32_t>(rng_.Index(pool_));
    return op;
  }

 private:
  void Refill() {
    block_.clear();
    block_.insert(block_.end(), mix_.knn, OpKind::kKnn);
    block_.insert(block_.end(), mix_.range, OpKind::kRange);
    block_.insert(block_.end(), mix_.insert, OpKind::kInsert);
    block_.insert(block_.end(), mix_.remove, OpKind::kRemove);
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.Index(i)]);
    }
    const auto insert = std::find(block_.begin(), block_.end(), OpKind::kInsert);
    const auto remove = std::find(block_.begin(), block_.end(), OpKind::kRemove);
    if (insert != block_.end() && remove != block_.end() && remove < insert) {
      std::iter_swap(insert, remove);
    }
    next_ = 0;
  }

  iq::Rng rng_;
  Mix mix_;
  size_t pool_;
  std::vector<OpKind> block_;
  size_t next_ = 0;
};

/// The index rows, the held-out query rows and the held-out insert rows
/// of one generated stream.
struct Data {
  iq::Dataset base;
  iq::Dataset queries;
  iq::Dataset inserts;
};

Data MakeData(bool uniform, size_t n, size_t queries, size_t inserts) {
  const size_t total = n + queries + inserts;
  iq::Dataset all = uniform ? iq::GenerateUniform(total, kDims, kDataSeed)
                            : iq::GenerateCadLike(total, kDims, kDataSeed);
  Data data;
  data.inserts = all.TakeTail(inserts);
  data.queries = all.TakeTail(queries);
  data.base = std::move(all);
  return data;
}

iq::IqTree::Options TreeOptions() {
  iq::IqTree::Options options;
  options.optimize_for_k = kK;
  return options;
}

uint64_t IndexBytes(iq::Storage& storage, const std::string& name) {
  uint64_t bytes = 0;
  for (const std::string& file :
       {iq::DirFileName(name), iq::QpgFileName(name), iq::DatFileName(name)}) {
    bytes += Unwrap(storage.Open(file), "open index file")->Size();
  }
  return bytes;
}

double SpaceAmp(uint64_t bytes, size_t n) {
  return static_cast<double>(bytes) /
         static_cast<double>(n * kDims * sizeof(float));
}

/// Records the first few failures in detail; counts all of them.
void NoteFailure(Outcome* outcome, const std::string& what) {
  ++outcome->failed;
  if (outcome->failed <= 5) outcome->problems.push_back(what);
}

/// Counts one answered read and checks it against the oracle.
void CheckAnswer(OpKind kind, const Expected& expected,
                 const iq::Result<std::vector<iq::Neighbor>>& result,
                 const TrueDistance& distance_to, Outcome* outcome) {
  ++outcome->attempted;
  if (!result.ok()) {
    NoteFailure(outcome,
                std::string(SpanName(kind)) + ": " + result.status().ToString());
    return;
  }
  const std::string err = kind == OpKind::kKnn
                              ? CheckKnn(expected, *result, distance_to)
                              : CheckRange(expected, *result);
  if (!err.empty()) NoteFailure(outcome, std::string(SpanName(kind)) + ": " + err);
}

/// Exact distance from `q` to row `id` of the fixed data set.
TrueDistance DistanceToBase(const iq::Dataset& base, iq::PointView q) {
  return [&base, q](iq::PointId id) {
    if (id >= base.size()) return -1.0;
    return iq::Distance(q, base[id], iq::Metric::kL2);
  };
}

/// The reference baselines on the workload's base data: sequential scan
/// and VA-file k-NN over the first rows of the query pool, each answer
/// checked against brute force.
void MeasureBaselines(const iq::Dataset& base, const iq::Dataset& queries,
                      size_t scan_queries, size_t va_queries,
                      QueryTracer& tracer, Outcome* outcome,
                      MetricSet* metrics) {
  iq::MemoryStorage storage;
  iq::DiskModel disk;
  const LiveSet truth(base);
  auto run = [&](const char* span, size_t count, auto&& search, double* ms,
                 double* io) {
    std::vector<double> times, ios;
    for (size_t i = 0; i < std::min(count, queries.size()); ++i) {
      disk.InvalidateHead();
      const double before = disk.Now();
      iq::Result<std::vector<iq::Neighbor>> result(iq::Status::OK());
      times.push_back(TimedSpan(tracer, span, [&] {
        result = search(queries[i]);
      }));
      ios.push_back(disk.Now() - before);
      CheckAnswer(OpKind::kKnn, truth.Answer(queries[i], kK, kRadiusRank),
                  result, DistanceToBase(base, queries[i]), outcome);
    }
    *ms = Mean(times);
    *io = Mean(ios);
  };
  auto scan = Unwrap(iq::SeqScan::Build(base, storage, "scan", disk,
                                        iq::SeqScan::Options()),
                     "build scan");
  double ms = 0, io = 0;
  run("scan.knn", scan_queries,
      [&](iq::PointView q) { return scan->KNearestNeighbors(q, kK); }, &ms,
      &io);
  metrics->Set("scan.query_ms", ms);
  metrics->Set("scan.io_s", io);
  iq::VaFile::Options va_options;
  va_options.bits_per_dim = 6;
  auto va = Unwrap(iq::VaFile::Build(base, storage, "va", disk, va_options),
                   "build va-file");
  run("vafile.knn", va_queries,
      [&](iq::PointView q) { return va->KNearestNeighbors(q, kK); }, &ms,
      &io);
  metrics->Set("vafile.query_ms", ms);
  metrics->Set("vafile.io_s", io);
}

// --- single-tree workloads (cad-knn, uniform-mixed) ------------------------

struct TreeSpec {
  bool uniform = false;
  size_t n = 0;
  Mix mix;
  size_t queries = 0;
  size_t inserts = 0;
  /// Operations whose simulated cost and counts are compared between the
  /// untraced window and the traced pass (the traced pass runs exactly
  /// these).
  size_t prefix = 0;
  size_t builds = 0;
  size_t scan_queries = 0;
  size_t va_queries = 0;
};

struct TreeIndex {
  std::unique_ptr<iq::MemoryStorage> storage;
  std::unique_ptr<iq::DiskModel> disk;
  std::unique_ptr<iq::IqTree> tree;
};

std::unique_ptr<TreeIndex> BuildTree(const iq::Dataset& base,
                                     double fractal_dimension) {
  auto index = std::make_unique<TreeIndex>();
  index->storage = std::make_unique<iq::MemoryStorage>();
  index->disk = std::make_unique<iq::DiskModel>();
  iq::IqTree::Options options = TreeOptions();
  options.fractal_dimension = fractal_dimension;
  index->tree = Unwrap(
      iq::IqTree::Build(base, *index->storage, "iq", *index->disk, options),
      "build IQ-tree");
  return index;
}

/// What identifies a build's result; two builds of one data set must
/// agree on all of it.
struct BuildFingerprint {
  size_t pages = 0;
  uint64_t bytes = 0;
  double fractal_dimension = 0;
  std::array<size_t, 6> pages_per_level{};

  bool operator==(const BuildFingerprint&) const = default;
};

BuildFingerprint Fingerprint(const TreeIndex& index) {
  BuildFingerprint f;
  f.pages = index.tree->num_pages();
  f.bytes = IndexBytes(*index.storage, "iq");
  f.fractal_dimension = index.tree->fractal_dimension();
  f.pages_per_level = index.tree->build_stats().pages_per_level;
  return f;
}

/// One operation's measured cost.
struct OpRecord {
  OpKind kind = OpKind::kKnn;
  double latency_s = 0;
  iq::IoStats io;
  iq::IqTree::QueryStats stats;
};

bool SameCost(const OpRecord& a, const OpRecord& b) {
  return a.kind == b.kind && a.io.seeks == b.io.seeks &&
         a.io.blocks_read == b.io.blocks_read &&
         a.io.blocks_written == b.io.blocks_written &&
         a.io.io_time_s == b.io.io_time_s &&
         a.stats.pages_decoded == b.stats.pages_decoded &&
         a.stats.blocks_transferred == b.stats.blocks_transferred &&
         a.stats.batches == b.stats.batches &&
         a.stats.refinements == b.stats.refinements &&
         a.stats.cells_enqueued == b.stats.cells_enqueued;
}

/// Runs operations against one IQ-tree, mirrors updates into the live
/// set, and checks every answer against brute force.
class TreeDriver {
 public:
  TreeDriver(const TreeSpec& spec, const Data& data,
             const std::vector<Expected>& answers, TreeIndex& index,
             Outcome* outcome)
      : spec_(spec),
        data_(data),
        answers_(answers),
        tree_(*index.tree),
        disk_(*index.disk),
        outcome_(outcome) {
    if (spec.mix.insert > 0 || spec.mix.remove > 0) live_.emplace(data.base);
  }

  /// Runs `op`. With a tracer, the call runs under the benchmark's own
  /// root span and the program records its spans below it.
  OpRecord Run(const Op& op, QueryTracer* tracer) {
    const iq::PointView q = data_.queries[op.query];
    Expected live_answer;
    const Expected* expected = nullptr;
    if (IsRead(op.kind)) {
      if (live_) {
        live_answer = live_->Answer(q, kK, kRadiusRank);
        expected = &live_answer;
      } else {
        expected = &answers_[op.query];
      }
    }
    iq::PointId id = 0;
    iq::PointView point;
    if (op.kind == OpKind::kInsert) {
      id = static_cast<iq::PointId>(spec_.n + inserts_done_);
      point = data_.inserts[inserts_done_ % data_.inserts.size()];
    } else if (op.kind == OpKind::kRemove) {
      if (inserted_.empty()) Die("remove scheduled before any insert");
      id = inserted_.front();
      point = data_.inserts[(id - spec_.n) % data_.inserts.size()];
    }

    iq::IqSearchOptions options;
    if (tracer != nullptr) {
      options.tracer = tracer;
      options.parent_span = tracer->BeginSpan(SpanName(op.kind));
    }
    disk_.ResetStats();
    disk_.InvalidateHead();
    iq::Result<std::vector<iq::Neighbor>> result(iq::Status::OK());
    iq::Status status;
    const Clock::time_point t0 = Clock::now();
    switch (op.kind) {
      case OpKind::kKnn:
        result = tree_.KNearestNeighbors(q, kK, options);
        break;
      case OpKind::kRange:
        result = tree_.RangeSearch(q, expected->radius, options);
        break;
      case OpKind::kInsert:
        status = tree_.Insert(id, point);
        break;
      case OpKind::kRemove:
        status = tree_.Remove(id, point);
        break;
    }
    OpRecord record;
    record.latency_s = SecondsSince(t0);
    if (tracer != nullptr) tracer->EndSpan(options.parent_span);
    record.kind = op.kind;
    record.io = disk_.stats();
    if (IsRead(op.kind)) {
      record.stats = tree_.last_query_stats();
      const TrueDistance distance_to =
          live_ ? TrueDistance([&](iq::PointId pid) {
            return live_->DistanceTo(q, pid);
          })
                : DistanceToBase(data_.base, q);
      CheckAnswer(op.kind, *expected, result, distance_to, outcome_);
      return record;
    }
    ++outcome_->attempted;
    if (!status.ok()) {
      NoteFailure(outcome_,
                  std::string(SpanName(op.kind)) + ": " + status.ToString());
    } else if (op.kind == OpKind::kInsert) {
      live_->Insert(id, point);
      inserted_.push_back(id);
      ++inserts_done_;
    } else {
      live_->Remove(id);
      inserted_.pop_front();
    }
    return record;
  }

 private:
  const TreeSpec& spec_;
  const Data& data_;
  const std::vector<Expected>& answers_;
  iq::IqTree& tree_;
  iq::DiskModel& disk_;
  Outcome* outcome_;
  std::optional<LiveSet> live_;
  std::deque<iq::PointId> inserted_;
  uint64_t inserts_done_ = 0;
};

struct TreePass {
  std::vector<OpRecord> records;
  /// Sum of the operations' latencies.
  double busy_s = 0;
  /// Registry delta over the first `prefix` operations.
  Counters prefix_counters{};
  /// Traced pass only: self times over read operations, span count.
  std::map<std::string, int64_t> self_ns;
  size_t spans = 0;
};

/// Checks one traced read: the layer self times must add up to the
/// benchmark's root span, and the spans' io_s to the DiskModel's count.
void CheckTracedRead(const std::vector<SpanRecord>& spans,
                     const OpRecord& record, TreePass* pass,
                     Outcome* outcome) {
  pass->spans += spans.size();
  const int64_t self = FoldSelfTimes(spans, &pass->self_ns);
  const int64_t root = RootDuration(spans);
  if (self != root) {
    outcome->problems.push_back("layer self times sum to " +
                                std::to_string(self) + " ns, root span is " +
                                std::to_string(root) + " ns");
  }
  // Each span's io_s is a difference of the DiskModel's running clock,
  // so the sum may differ from the clock in the last bits: allow one
  // unit in the last place of the total per span.
  double io_sum = 0;
  for (const char* kind : kIoSpanKinds) {
    io_sum += iq::obs::AggregateSpans(spans, kind, "io_s");
  }
  const double total = record.io.io_time_s;
  const double ulp = std::nextafter(total, 2 * total + 1) - total;
  if (std::abs(io_sum - total) > static_cast<double>(spans.size()) * ulp) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "span io_s sums to %.17g, DiskModel says %.17g", io_sum,
                  total);
    outcome->problems.push_back(buf);
  }
}

/// Runs the closed loop on `index`. Untraced: until the operations'
/// total latency reaches `seconds` and at least `prefix` operations ran.
/// Traced: exactly `prefix` operations, each with its own tracer.
TreePass RunTreePass(const TreeSpec& spec, const Config& config,
                     const Data& data, const std::vector<Expected>& answers,
                     TreeIndex& index, bool traced, Outcome* outcome) {
  TreeDriver driver(spec, data, answers, index, outcome);
  OpStream stream(config.seed, spec.mix, data.queries.size());
  TreePass pass;
  const Counters start = ReadCounters();
  while (traced ? pass.records.size() < spec.prefix
                : pass.busy_s < config.seconds ||
                      pass.records.size() < spec.prefix) {
    std::optional<QueryTracer> tracer;
    if (traced) tracer.emplace();
    const OpRecord record =
        driver.Run(stream.Next(), traced ? &*tracer : nullptr);
    pass.busy_s += record.latency_s;
    if (traced) {
      if (tracer->dropped() > 0) {
        outcome->problems.push_back("tracer dropped spans");
      }
      if (IsRead(record.kind)) {
        CheckTracedRead(tracer->Snapshot(), record, &pass, outcome);
      }
    }
    pass.records.push_back(record);
    if (pass.records.size() == spec.prefix) {
      pass.prefix_counters = ReadCounters() - start;
    }
  }
  return pass;
}

void RunTreeWorkload(const TreeSpec& spec, const Config& config,
                     Outcome* outcome) {
  const Data data = MakeData(spec.uniform, spec.n, spec.queries, spec.inserts);
  const bool writes = spec.mix.insert > 0 || spec.mix.remove > 0;
  std::vector<Expected> answers;
  if (!writes) {
    answers = ScanOracle(data.base, data.queries, kK, kRadiusRank,
                         kOracleThreads);
  }

  // Setup: several builds, each timed; all must come out identical.
  // setup_s is the fastest: every build does the same work, and other
  // load on the machine can only add to its time.
  std::vector<double> build_s;
  std::unique_ptr<TreeIndex> index;
  std::optional<BuildFingerprint> first;
  for (size_t b = 0; b < spec.builds; ++b) {
    index.reset();
    const Clock::time_point t0 = Clock::now();
    index = BuildTree(data.base, 0);
    build_s.push_back(SecondsSince(t0));
    const BuildFingerprint f = Fingerprint(*index);
    if (!first) {
      first = f;
    } else if (!(f == *first)) {
      outcome->problems.push_back("build " + std::to_string(b) +
                                  " differs from build 0");
    }
  }

  MetricSet e2e;
  e2e.Set("setup_s", *std::min_element(build_s.begin(), build_s.end()));
  e2e.Set("space_amp", SpaceAmp(first->bytes, spec.n));
  const TreePass window =
      RunTreePass(spec, config, data, answers, *index, false, outcome);

  // Simulated cost: every operation of the deterministic prefix.
  std::vector<double> knn_io, range_io;
  for (size_t i = 0; i < spec.prefix; ++i) {
    const OpRecord& r = window.records[i];
    if (r.kind == OpKind::kKnn) knn_io.push_back(r.io.io_time_s);
    if (r.kind == OpKind::kRange) range_io.push_back(r.io.io_time_s);
  }
  // Wall clock: every operation of the window.
  std::vector<double> knn_ms, range_ms, insert_us, remove_us;
  for (const OpRecord& r : window.records) {
    switch (r.kind) {
      case OpKind::kKnn: knn_ms.push_back(r.latency_s * 1e3); break;
      case OpKind::kRange: range_ms.push_back(r.latency_s * 1e3); break;
      case OpKind::kInsert: insert_us.push_back(r.latency_s * 1e6); break;
      case OpKind::kRemove: remove_us.push_back(r.latency_s * 1e6); break;
    }
  }
  e2e.Set("knn_p90_ms", Quantile(knn_ms, 0.9));
  e2e.Set("knn_io_s", Mean(knn_io));
  e2e.Set("range_p90_ms", Quantile(range_ms, 0.9));
  e2e.Set("range_io_s", Mean(range_io));
  e2e.Set("qps",
          static_cast<double>(window.records.size()) / window.busy_s);
  outcome->end_to_end = e2e.Emit(kEndToEnd, &outcome->problems);
  if (!config.trace) return;

  // Traced pass: the same data, set up again under the benchmark's own
  // spans, then the window's first `prefix` operations replayed with the
  // program's tracer attached.
  MetricSet layers;
  ZeroPerLayer(&layers);
  layers.Set("latency.knn_p50_ms", Quantile(knn_ms, 0.5));
  layers.Set("latency.range_p50_ms", Quantile(range_ms, 0.5));
  layers.Set("update.insert_p50_us", Quantile(insert_us, 0.5));
  layers.Set("update.remove_p50_us", Quantile(remove_us, 0.5));
  QueryTracer bench_tracer;
  iq::FractalEstimate estimate;
  layers.Set("fractal.estimate_ms", TimedSpan(bench_tracer, "fractal", [&] {
    iq::FractalOptions fractal_options;
    fractal_options.seed = TreeOptions().seed;
    estimate = iq::EstimateCorrelationDimension(
        data.base.data(), data.base.size(), kDims, fractal_options);
  }));
  layers.Set("fractal.df", estimate.dimension);
  index.reset();
  std::unique_ptr<TreeIndex> traced_index;
  layers.Set("core.build_ms", TimedSpan(bench_tracer, "core.build", [&] {
    traced_index = BuildTree(data.base, estimate.dimension);
  }));
  if (!(Fingerprint(*traced_index) == *first)) {
    outcome->problems.push_back(
        "build with the separately estimated D_F differs from setup builds");
  }
  const iq::IqTree& tree = *traced_index->tree;
  size_t exact_pages = 0;
  for (const iq::DirEntry& entry : tree.directory()) {
    if (entry.quant_bits >= iq::kExactBits) ++exact_pages;
  }
  layers.Set("core.pages", static_cast<double>(tree.num_pages()));
  layers.Set("core.exact_page_frac", static_cast<double>(exact_pages) /
                                         static_cast<double>(tree.num_pages()));
  iq::obs::CostBreakdown predicted;
  TimedSpan(bench_tracer, "costmodel",
            [&] { predicted = tree.PredictCost(); });
  layers.Set("costmodel.pred_io_s", predicted.total());

  const TreePass traced =
      RunTreePass(spec, config, data, answers, *traced_index, true, outcome);

  // Determinism: the traced replay must cost exactly what the window's
  // first operations cost.
  size_t drift = 0;
  for (size_t i = 0; i < spec.prefix; ++i) {
    if (!SameCost(window.records[i], traced.records[i])) ++drift;
  }
  if (drift > 0) {
    outcome->problems.push_back(std::to_string(drift) +
                                " operations changed simulated cost or "
                                "counts between the window and the replay");
  }
  if (window.prefix_counters != traced.prefix_counters) {
    outcome->problems.push_back(
        "registry counters differ between the window and the replay");
  }

  size_t reads = 0, knn_count = 0, inserts = 0;
  double knn_io_sum = 0, blocks_written = 0;
  double refinements = 0, batches = 0, overread = 0, cells = 0, seeks = 0,
         blocks = 0;
  std::vector<double> traced_knn_s, window_knn_s;
  for (size_t i = 0; i < traced.records.size(); ++i) {
    const OpRecord& r = traced.records[i];
    if (r.kind == OpKind::kInsert) {
      ++inserts;
      blocks_written += static_cast<double>(r.io.blocks_written);
    }
    if (!IsRead(r.kind)) continue;
    ++reads;
    refinements += static_cast<double>(r.stats.refinements);
    batches += static_cast<double>(r.stats.batches);
    overread += static_cast<double>(r.stats.blocks_transferred) -
                static_cast<double>(r.stats.pages_decoded);
    cells += static_cast<double>(r.stats.cells_enqueued);
    seeks += static_cast<double>(r.io.seeks);
    blocks += static_cast<double>(r.io.blocks_read);
    if (r.kind == OpKind::kKnn) {
      ++knn_count;
      knn_io_sum += r.io.io_time_s;
      traced_knn_s.push_back(r.latency_s);
      window_knn_s.push_back(window.records[i].latency_s);
    }
  }
  const double per_read = reads > 0 ? 1.0 / static_cast<double>(reads) : 0;
  EmitSelfTimes(traced.self_ns, reads, &layers);
  layers.Set("core.refinements_per_query", refinements * per_read);
  layers.Set("sched.batches_per_query", batches * per_read);
  layers.Set("sched.overread_blocks_per_query", overread * per_read);
  layers.Set("quant.cells_enqueued_per_query", cells * per_read);
  layers.Set("quant.filter_points_per_query",
             traced.prefix_counters[kFilterPoints] * per_read);
  layers.Set("io.seeks_per_query", seeks * per_read);
  layers.Set("io.blocks_per_query", blocks * per_read);
  layers.Set("io.blocks_written_per_insert",
             inserts > 0 ? blocks_written / static_cast<double>(inserts) : 0);
  if (knn_count > 0 && knn_io_sum > 0) {
    layers.Set("costmodel.pred_over_obs",
               predicted.total() /
                   (knn_io_sum / static_cast<double>(knn_count)));
  }
  layers.Set("obs.trace_overhead_pct",
             100.0 * (Mean(traced_knn_s) / Mean(window_knn_s) - 1.0));
  layers.Set("obs.spans_per_query",
             static_cast<double>(traced.spans) * per_read);
  MeasureBaselines(data.base, data.queries, spec.scan_queries,
                   spec.va_queries, bench_tracer, outcome, &layers);
  outcome->per_layer = layers.Emit(kPerLayer, &outcome->problems);
}

// --- cad-sharded -------------------------------------------------------------

constexpr size_t kShards = 4;
constexpr size_t kClients = 2;
constexpr size_t kFanoutThreads = 2;
constexpr size_t kMaxInFlight = 2;
/// The untraced window alternates rounds of one query kind: every
/// kRangeEvery-th round runs range queries, the others k-NN, so 80% of
/// the time goes to k-NN and both kinds see the whole window.
constexpr double kShardedRoundSeconds = 0.25;
constexpr size_t kRangeEvery = 5;

struct ShardedIndex {
  std::unique_ptr<iq::MemoryStorage> storage;
  std::unique_ptr<iq::ShardedSearcher> searcher;
  std::unique_ptr<iq::QueryFrontEnd> frontend;
  uint64_t bytes = 0;
};

std::unique_ptr<ShardedIndex> BuildSharded(const iq::Dataset& base) {
  auto index = std::make_unique<ShardedIndex>();
  index->storage = std::make_unique<iq::MemoryStorage>();
  iq::ShardedBulkLoader::Options options;
  options.num_shards = kShards;
  options.plan = iq::ShardPlan::kRoundRobin;
  options.tree = TreeOptions();
  iq::ShardedBulkLoader loader(*index->storage, "sharded", options);
  for (size_t i = 0; i < base.size(); ++i) {
    Check(loader.Add(base[i]), "sharded load");
  }
  const iq::ShardManifest manifest = Unwrap(loader.Finish(), "finish load");
  iq::ShardedSearcher::Options searcher_options;
  searcher_options.threads = kFanoutThreads;
  index->searcher = Unwrap(
      iq::ShardedSearcher::Open(*index->storage, manifest, searcher_options),
      "open sharded searcher");
  iq::QueryFrontEnd::Options frontend_options;
  frontend_options.max_in_flight = kMaxInFlight;
  index->frontend =
      std::make_unique<iq::QueryFrontEnd>(*index->searcher, frontend_options);
  for (const iq::ShardInfo& shard : manifest.shards()) {
    index->bytes += IndexBytes(*index->storage, shard.name);
  }
  return index;
}

/// One client's log of a sharded phase.
struct ClientLog {
  std::vector<double> latency_s;
  std::vector<uint32_t> queries;
  std::vector<iq::Result<std::vector<iq::Neighbor>>> results;
  /// Traced phases only.
  std::map<std::string, int64_t> self_ns;
  std::vector<double> wave_ms, queue_wait_ms, pool_wait_ms;
  size_t spans = 0;
  size_t dropped = 0;
};

/// kClients closed-loop clients sending one kind of query.
struct ShardedPhase {
  OpKind kind = OpKind::kKnn;
  std::vector<ClientLog> clients;
  double wall_s = 0;
  Counters counters{};
  size_t ops = 0;
};

/// Runs `kind` queries from kClients closed-loop clients through the
/// front end, for `seconds` (untraced) or `count_per_client` operations
/// (traced, one tracer per operation).
ShardedPhase RunShardedPhase(const ShardedIndex& index, const Data& data,
                             const std::vector<Expected>& answers,
                             OpKind kind, uint64_t seed, double seconds,
                             size_t count_per_client, bool traced) {
  ShardedPhase phase;
  phase.kind = kind;
  phase.clients.resize(kClients);
  const Counters start = ReadCounters();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      ClientLog& log = phase.clients[c];
      iq::Rng rng(seed * 1000003 + c);
      while (traced ? log.latency_s.size() < count_per_client
                    : SecondsSince(t0) < seconds) {
        const uint32_t qi =
            static_cast<uint32_t>(rng.Index(data.queries.size()));
        const iq::PointView q = data.queries[qi];
        std::optional<QueryTracer> tracer;
        iq::ShardedSearchOptions options;
        if (traced) {
          tracer.emplace();
          options.tracer = &*tracer;
          options.parent_span = tracer->BeginSpan(SpanName(kind));
        }
        const Clock::time_point start_op = Clock::now();
        iq::Result<std::vector<iq::Neighbor>> result =
            kind == OpKind::kKnn
                ? index.frontend->KNearestNeighbors(q, kK, options)
                : index.frontend->RangeSearch(q, answers[qi].radius, options);
        log.latency_s.push_back(SecondsSince(start_op));
        if (traced) {
          tracer->EndSpan(options.parent_span);
          const std::vector<SpanRecord> spans = tracer->Snapshot();
          log.spans += spans.size();
          log.dropped += tracer->dropped();
          FoldSelfTimes(spans, &log.self_ns);
          CollectDurationsMs(spans, "wave", &log.wave_ms);
          CollectDurationsMs(spans, "queue_wait", &log.queue_wait_ms);
          CollectFirstChildDelayMs(spans, "shard", &log.pool_wait_ms);
        }
        log.queries.push_back(qi);
        log.results.push_back(std::move(result));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  phase.wall_s = SecondsSince(t0);
  phase.counters = ReadCounters() - start;
  for (const ClientLog& log : phase.clients) phase.ops += log.latency_s.size();
  return phase;
}

/// Checks every answer of a phase against the oracle.
void VerifyPhase(const ShardedPhase& phase, const Data& data,
                 const std::vector<Expected>& answers, Outcome* outcome) {
  for (const ClientLog& log : phase.clients) {
    for (size_t i = 0; i < log.results.size(); ++i) {
      CheckAnswer(phase.kind, answers[log.queries[i]], log.results[i],
                  DistanceToBase(data.base, data.queries[log.queries[i]]),
                  outcome);
    }
  }
}

void AppendLatenciesMs(const ShardedPhase& phase, std::vector<double>* out) {
  for (const ClientLog& log : phase.clients) {
    for (double s : log.latency_s) out->push_back(s * 1e3);
  }
}

void RunShardedWorkload(const Config& config, Outcome* outcome) {
  const size_t n = config.small ? 20000 : 200000;
  const size_t pool = config.small ? 100 : 1000;
  const size_t builds = config.small ? 1 : 3;
  const size_t traced_per_client = config.small ? 20 : 150;
  const Data data = MakeData(false, n, pool, 0);
  const std::vector<Expected> answers =
      ScanOracle(data.base, data.queries, kK, kRadiusRank, kOracleThreads);

  std::vector<double> build_s;
  std::unique_ptr<ShardedIndex> index;
  std::optional<uint64_t> first_bytes;
  for (size_t b = 0; b < builds; ++b) {
    index.reset();
    const Clock::time_point t0 = Clock::now();
    index = BuildSharded(data.base);
    build_s.push_back(SecondsSince(t0));
    if (!first_bytes) {
      first_bytes = index->bytes;
    } else if (index->bytes != *first_bytes) {
      outcome->problems.push_back("sharded build " + std::to_string(b) +
                                  " differs from build 0");
    }
  }

  MetricSet e2e;
  e2e.Set("setup_s", *std::min_element(build_s.begin(), build_s.end()));
  e2e.Set("space_amp", SpaceAmp(index->bytes, n));
  std::vector<ShardedPhase> rounds;
  double window_s = 0;
  while (window_s < config.seconds || rounds.size() < kRangeEvery) {
    const OpKind kind = rounds.size() % kRangeEvery == kRangeEvery - 1
                            ? OpKind::kRange
                            : OpKind::kKnn;
    rounds.push_back(RunShardedPhase(*index, data, answers, kind,
                                     config.seed * 7919 + rounds.size(),
                                     kShardedRoundSeconds, 0, false));
    window_s += rounds.back().wall_s;
  }
  Counters knn_counters{}, range_counters{};
  size_t knn_ops = 0, range_ops = 0;
  std::vector<double> knn_ms, range_ms;
  for (const ShardedPhase& round : rounds) {
    VerifyPhase(round, data, answers, outcome);
    const bool knn = round.kind == OpKind::kKnn;
    (knn ? knn_counters : range_counters) += round.counters;
    (knn ? knn_ops : range_ops) += round.ops;
    AppendLatenciesMs(round, knn ? &knn_ms : &range_ms);
  }
  e2e.Set("knn_p90_ms", Quantile(knn_ms, 0.9));
  e2e.Set("knn_io_s",
          CountedIoSeconds(knn_counters) / static_cast<double>(knn_ops));
  e2e.Set("range_p90_ms", Quantile(range_ms, 0.9));
  e2e.Set("range_io_s",
          CountedIoSeconds(range_counters) / static_cast<double>(range_ops));
  e2e.Set("qps", static_cast<double>(knn_ops + range_ops) / window_s);
  outcome->end_to_end = e2e.Emit(kEndToEnd, &outcome->problems);
  if (!config.trace) return;

  MetricSet layers;
  ZeroPerLayer(&layers);
  layers.Set("latency.knn_p50_ms", Quantile(knn_ms, 0.5));
  layers.Set("latency.range_p50_ms", Quantile(range_ms, 0.5));
  QueryTracer bench_tracer;
  double estimate_ms = 0, df = 0;
  for (size_t s = 0; s < kShards; ++s) {
    iq::Dataset rows(kDims);
    for (size_t i = s; i < data.base.size(); i += kShards) {
      rows.Append(data.base[i]);
    }
    estimate_ms += TimedSpan(bench_tracer, "fractal", [&] {
      iq::EstimateCorrelationDimension(rows.data(), rows.size(), kDims);
    });
    df += index->searcher->shard_tree(s).fractal_dimension();
  }
  layers.Set("fractal.estimate_ms", estimate_ms);
  layers.Set("fractal.df", df / kShards);
  index.reset();
  std::unique_ptr<ShardedIndex> traced_index;
  layers.Set("core.build_ms", TimedSpan(bench_tracer, "core.build", [&] {
    traced_index = BuildSharded(data.base);
  }));
  if (traced_index->bytes != *first_bytes) {
    outcome->problems.push_back("traced sharded build differs from setup");
  }
  size_t pages = 0, exact_pages = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const iq::IqTree& tree = traced_index->searcher->shard_tree(s);
    pages += tree.num_pages();
    for (const iq::DirEntry& entry : tree.directory()) {
      if (entry.quant_bits >= iq::kExactBits) ++exact_pages;
    }
  }
  layers.Set("core.pages", static_cast<double>(pages));
  layers.Set("core.exact_page_frac",
             static_cast<double>(exact_pages) / static_cast<double>(pages));
  const double predicted = traced_index->searcher->predicted_cost().total();
  layers.Set("costmodel.pred_io_s", predicted);

  const size_t range_per_client = traced_per_client / kRangeEvery;
  const ShardedPhase traced_knn = RunShardedPhase(
      *traced_index, data, answers, OpKind::kKnn, config.seed, 0,
      traced_per_client - range_per_client, true);
  const ShardedPhase traced_range =
      RunShardedPhase(*traced_index, data, answers, OpKind::kRange,
                      config.seed, 0, range_per_client, true);
  VerifyPhase(traced_knn, data, answers, outcome);
  VerifyPhase(traced_range, data, answers, outcome);

  std::map<std::string, int64_t> self_ns;
  std::vector<double> wave_ms, queue_wait_ms, pool_wait_ms;
  size_t spans = 0, dropped = 0;
  for (const ShardedPhase* phase : {&traced_knn, &traced_range}) {
    for (const ClientLog& log : phase->clients) {
      for (const auto& [kind, ns] : log.self_ns) self_ns[kind] += ns;
      wave_ms.insert(wave_ms.end(), log.wave_ms.begin(), log.wave_ms.end());
      queue_wait_ms.insert(queue_wait_ms.end(), log.queue_wait_ms.begin(),
                           log.queue_wait_ms.end());
      pool_wait_ms.insert(pool_wait_ms.end(), log.pool_wait_ms.begin(),
                          log.pool_wait_ms.end());
      spans += log.spans;
      dropped += log.dropped;
    }
  }
  if (dropped > 0) outcome->problems.push_back("tracer dropped spans");
  const size_t reads = traced_knn.ops + traced_range.ops;
  const double per_read = 1.0 / static_cast<double>(reads);
  Counters c = traced_knn.counters;
  c += traced_range.counters;
  EmitSelfTimes(self_ns, reads, &layers);
  layers.Set("core.refinements_per_query", c[kRefinements] * per_read);
  layers.Set("sched.batches_per_query", c[kBatches] * per_read);
  layers.Set("sched.overread_blocks_per_query",
             (c[kBlocksTransferred] - c[kPagesDecoded]) * per_read);
  layers.Set("quant.cells_enqueued_per_query", c[kCellsEnqueued] * per_read);
  layers.Set("quant.filter_points_per_query", c[kFilterPoints] * per_read);
  layers.Set("io.seeks_per_query", c[kSeeks] * per_read);
  layers.Set("io.blocks_per_query", c[kBlocksRead] * per_read);
  layers.Set("shard.queried_per_query", c[kShardsQueried] / c[kFanout]);
  layers.Set("shard.pruned_frac",
             c[kShardsPruned] / (c[kShardsQueried] + c[kShardsPruned]));
  layers.Set("shard.wave_ms_p50", Quantile(wave_ms, 0.5));
  layers.Set("shard.frontend_queue_wait_ms_p50", Quantile(queue_wait_ms, 0.5));
  layers.Set("concurrency.pool_wait_ms_p50", Quantile(pool_wait_ms, 0.5));
  layers.Set("costmodel.pred_over_obs",
             predicted / (CountedIoSeconds(traced_knn.counters) /
                          static_cast<double>(traced_knn.ops)));
  std::vector<double> traced_knn_ms;
  AppendLatenciesMs(traced_knn, &traced_knn_ms);
  layers.Set("obs.trace_overhead_pct",
             100.0 * (Mean(traced_knn_ms) / Mean(knn_ms) - 1.0));
  layers.Set("obs.spans_per_query", static_cast<double>(spans) * per_read);
  MeasureBaselines(data.base, data.queries, config.small ? 10 : 100,
                   config.small ? 5 : 30, bench_tracer, outcome, &layers);
  outcome->per_layer = layers.Emit(kPerLayer, &outcome->problems);
}

TreeSpec CadKnnSpec(bool small) {
  TreeSpec spec;
  spec.uniform = false;
  spec.n = small ? 20000 : 200000;
  spec.mix = Mix{16, 4, 0, 0};
  spec.queries = small ? 100 : 1000;
  spec.prefix = small ? 100 : 2000;
  spec.builds = small ? 2 : 7;
  spec.scan_queries = small ? 10 : 100;
  spec.va_queries = small ? 5 : 30;
  return spec;
}

TreeSpec UniformMixedSpec(bool small) {
  TreeSpec spec;
  spec.uniform = true;
  spec.n = small ? 2000 : 20000;
  spec.mix = Mix{9, 9, 1, 1};
  spec.queries = small ? 100 : 1000;
  spec.inserts = small ? 200 : 2000;
  spec.prefix = small ? 100 : 600;
  spec.builds = small ? 2 : 31;
  spec.scan_queries = small ? 10 : 100;
  spec.va_queries = small ? 5 : 30;
  return spec;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cad-knn", "uniform-mixed",
                                                 "cad-sharded"};
  return names;
}

Outcome RunWorkload(const Config& config) {
  Outcome outcome;
  if (config.workload == "cad-knn") {
    RunTreeWorkload(CadKnnSpec(config.small), config, &outcome);
  } else if (config.workload == "uniform-mixed") {
    RunTreeWorkload(UniformMixedSpec(config.small), config, &outcome);
  } else if (config.workload == "cad-sharded") {
    RunShardedWorkload(config, &outcome);
  } else {
    outcome.problems.push_back("unknown workload " + config.workload);
  }
  return outcome;
}

}  // namespace iqperf
