#include "shard/sharded_searcher.h"

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metric_names.h"

namespace iq {
namespace {

using Clock = std::chrono::steady_clock;

/// Wave width is bounded by the pool's thread count; wave duration by
/// the slowest shard of the wave (wall seconds).
constexpr double kWaveWidthBounds[] = {1, 2, 4, 8, 16, 32, 64};
constexpr double kWaveSecondsBounds[] = {1e-5, 1e-4, 1e-3,
                                         1e-2, 0.1,  1.0, 10.0};

double ElapsedSeconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Dynamic span name of the stitched trace ("wave0", "shard3").
std::string IndexedName(const char* prefix, size_t index) {
  return std::string(prefix) + std::to_string(index);
}

/// Records a pruned shard into the stitched trace as a zero-cost span
/// annotated with the pruning evidence, and into the flight recorder.
/// `bound` is the value the shard's MINDIST lost to (current kth
/// distance, range radius; negative when not distance-based).
void RecordPrunedShard(obs::QueryTracer* tracer, obs::SpanId parent,
                       size_t index, double mindist, double bound) {
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kShardPrune,
                                       static_cast<uint32_t>(index), mindist,
                                       bound);
  if (tracer == nullptr) return;
  const obs::SpanId span = tracer->BeginSpan(IndexedName("shard", index),
                                             parent);
  if (span == obs::kNoSpan) return;
  tracer->AddAttr(span, "pruned", 1);
  tracer->AddAttr(span, "mindist", mindist);
  if (bound >= 0) tracer->AddAttr(span, "bound", bound);
  tracer->EndSpan(span);
}

/// Between-wave deadline bookkeeping: records the check (and the
/// exceedance, with a flight-recorder dump — the post-mortem the
/// recorder exists for) and returns true when the budget is spent.
bool DeadlineExpired(Clock::time_point start, double deadline_s,
                     size_t shards_queried) {
  if (deadline_s <= 0) return false;
  const double elapsed = ElapsedSeconds(start);
  auto& recorder = obs::FlightRecorder::Global();
  recorder.Record(obs::FlightEventType::kDeadlineCheck,
                  static_cast<uint32_t>(shards_queried),
                  deadline_s - elapsed);
  if (elapsed < deadline_s) return false;
  recorder.Record(obs::FlightEventType::kDeadlineExceeded,
                  static_cast<uint32_t>(shards_queried), elapsed);
  recorder.TriggerDump("deadline_exceeded");
  return true;
}

/// Merge order ties break on id so the facade's output is a total
/// order, bit-stable across shard counts and thread counts.
bool ByDistanceThenId(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

/// Max-heap comparator (front = current kth / worst retained neighbor).
bool HeapByDistance(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance;
}

/// The pruning bound of a merge that can never prune (range, window,
/// and kNN before its heap holds k neighbors).
constexpr double kNoBound = std::numeric_limits<double>::infinity();

/// A screen's verdict on one non-empty shard: keep it as a candidate
/// at `mindist`, or prune it with `bound` as the evidence (negative
/// when the prune is not distance-based).
struct Screening {
  bool keep;
  double mindist;
  double bound;
};

/// A shard that survived screening, ordered by (mindist, index).
struct Candidate {
  double mindist = 0;
  size_t index = 0;
};

/// What one fan-out worker brings back from its shard: the hits and
/// the shard query's own stats (its io.io_time_s is the shard's io_s).
template <typename Hit>
struct WorkerOut {
  Status status;
  std::vector<Hit> hits;
  IqQueryStats stats;
};

void AddQueryStats(IqQueryStats& totals, const IqQueryStats& shard) {
  totals.pages_decoded += shard.pages_decoded;
  totals.blocks_transferred += shard.blocks_transferred;
  totals.batches += shard.batches;
  totals.refinements += shard.refinements;
  totals.cells_enqueued += shard.cells_enqueued;
  totals.io += shard.io;
}

}  // namespace

ShardedSearcher::ShardedSearcher(const ShardManifest& manifest,
                                 const Options& options)
    : dims_(manifest.dims()),
      metric_(manifest.metric()),
      total_points_(manifest.total_points()),
      pool_(std::make_unique<ThreadPool>(
          options.threads == 0 ? 1 : options.threads)),
      fanout_(obs::MetricRegistry::Global().GetCounter(
          obs::metric::kShardFanoutTotal)),
      queried_(obs::MetricRegistry::Global().GetCounter(
          obs::metric::kShardQueriedTotal)),
      pruned_(obs::MetricRegistry::Global().GetCounter(
          obs::metric::kShardPrunedTotal)),
      deadline_(obs::MetricRegistry::Global().GetCounter(
          obs::metric::kShardDeadlineExceededTotal)),
      waves_(obs::MetricRegistry::Global().GetCounter(
          obs::metric::kShardWavesTotal)),
      wave_width_(obs::MetricRegistry::Global().GetHistogram(
          obs::metric::kShardWaveWidth, kWaveWidthBounds)),
      wave_seconds_(obs::MetricRegistry::Global().GetHistogram(
          obs::metric::kShardWaveSeconds, kWaveSecondsBounds)) {}

Result<std::unique_ptr<ShardedSearcher>> ShardedSearcher::Open(
    Storage& storage, const ShardManifest& manifest) {
  return Open(storage, manifest, Options());
}

Result<std::unique_ptr<ShardedSearcher>> ShardedSearcher::Open(
    Storage& storage, const ShardManifest& manifest, const Options& options) {
  IQ_RETURN_NOT_OK(manifest.Validate());
  std::unique_ptr<ShardedSearcher> searcher(
      new ShardedSearcher(manifest, options));
  searcher->shards_.reserve(manifest.num_shards());
  for (size_t i = 0; i < manifest.num_shards(); ++i) {
    const ShardInfo& info = manifest.shards()[i];
    Shard shard;
    shard.disk = std::make_unique<DiskModel>(options.disk);
    IQ_ASSIGN_OR_RETURN(shard.tree,
                        IqTree::Open(storage, info.name, *shard.disk));
    if (shard.tree->dims() != manifest.dims()) {
      return Status::Corruption("shard " + info.name +
                                " dims disagree with manifest");
    }
    if (shard.tree->size() != info.points) {
      return Status::Corruption("shard " + info.name +
                                " point count disagrees with manifest");
    }
    shard.bounds = info.bounds;
    shard.points = info.points;
    shard.queries = obs::MetricRegistry::Global().GetCounter(
        obs::metric::PerShardMetricName(obs::metric::kShardQueriesTotal, i));
    const obs::CostBreakdown cost = shard.tree->PredictCost();
    shard.predicted = cost;
    searcher->predicted_.t1 += cost.t1;
    searcher->predicted_.t2 += cost.t2;
    searcher->predicted_.t3 += cost.t3;
    searcher->shards_.push_back(std::move(shard));
  }
  return searcher;
}

/// The labels of one query kind in the stitched trace: the `sharded_*`
/// root span and its one attribute (`attr` null for none).
struct ShardedSearcher::FanOut {
  const char* const root;
  const char* const attr;
  const double value;
};

template <typename Hit, typename Screen, typename Search, typename Merge>
Status ShardedSearcher::ScatterGather(const FanOut& fan_out,
                                      const ShardedSearchOptions& options,
                                      const Screen& screen,
                                      const Search& search,
                                      const Merge& merge) const {
  const Clock::time_point start = Clock::now();
  ShardQueryStats agg;
  agg.shards_total = shards_.size();

  obs::QueryTracer* tracer = options.tracer;
  std::unique_ptr<obs::QueryTracer> owned_tracer;
  if (tracer == nullptr && options.slow_log != nullptr) {
    owned_tracer = std::make_unique<obs::QueryTracer>(kShardedTracerMaxSpans);
    tracer = owned_tracer.get();
  }
  // A caller-requested parent only makes sense in the caller's tracer.
  const obs::SpanId parent =
      owned_tracer == nullptr ? options.parent_span : obs::kNoSpan;

  std::vector<obs::ShardCostSample> per_shard;
  Status error;
  {
    obs::ScopedSpan root(tracer, fan_out.root, parent);
    if (fan_out.attr != nullptr) root.AddAttr(fan_out.attr, fan_out.value);

    std::vector<Candidate> candidates;
    candidates.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      const Screening verdict = shards_[i].points == 0
                                    ? Screening{false, 0.0, -1.0}
                                    : screen(shards_[i].bounds);
      if (!verdict.keep) {
        ++agg.shards_pruned;
        RecordPrunedShard(tracer, root.id(), i, verdict.mindist,
                          verdict.bound);
        continue;
      }
      candidates.push_back(Candidate{verdict.mindist, i});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.mindist != b.mindist) return a.mindist < b.mindist;
                return a.index < b.index;
              });

    IqSearchOptions shard_options;
    shard_options.tracer = tracer;

    const size_t wave_width = pool_->num_threads();
    double bound = kNoBound;
    size_t next = 0;
    size_t wave_index = 0;
    while (next < candidates.size() && error.ok()) {
      if (DeadlineExpired(start, options.deadline_s, agg.shards_queried)) {
        deadline_->Increment();
        error = Status::DeadlineExceeded(std::string(fan_out.root) +
                                         " deadline exceeded");
        break;
      }
      // Candidates are sorted by MINDIST: once the next shard's MINDIST
      // reaches the merge's bound (kNN: the global kth distance), that
      // shard and everything after it can only produce answers the
      // single tree would reject too.
      if (candidates[next].mindist >= bound) {
        for (size_t j = next; j < candidates.size(); ++j) {
          RecordPrunedShard(tracer, root.id(), candidates[j].index,
                            candidates[j].mindist, bound);
        }
        agg.shards_pruned += candidates.size() - next;
        break;
      }
      const size_t wave_end =
          std::min(candidates.size(), next + wave_width);
      const Clock::time_point wave_start = Clock::now();
      obs::ScopedSpan wave(tracer, IndexedName("wave", wave_index),
                           root.id());
      wave.AddAttr("shards", static_cast<double>(wave_end - next));
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kWaveDispatch,
          static_cast<uint32_t>(wave_index),
          static_cast<double>(wave_end - next));
      std::vector<std::future<WorkerOut<Hit>>> futures;
      std::vector<obs::SpanId> shard_spans;
      futures.reserve(wave_end - next);
      shard_spans.reserve(wave_end - next);
      for (size_t j = next; j < wave_end; ++j) {
        const Shard& shard = shards_[candidates[j].index];
        // The shard's whole IQ-tree subtree grafts under this span,
        // making the stitched tree: frontend → wave<i> → shard<i> →
        // knn → {dir_scan, batch, ...}.
        obs::SpanId shard_span = obs::kNoSpan;
        if (tracer != nullptr) {
          shard_span = tracer->BeginSpan(
              IndexedName("shard", candidates[j].index), wave.id());
        }
        shard_spans.push_back(shard_span);
        IqSearchOptions worker_options = shard_options;
        worker_options.parent_span = shard_span;
        // `search` outlives the task: every future of the wave is
        // drained below before the next wave (or the return) starts.
        futures.push_back(pool_->Submit([&shard, &search,
                                         worker_options]() mutable {
          WorkerOut<Hit> out;
          worker_options.stats = &out.stats;
          Result<std::vector<Hit>> r = search(*shard.tree, worker_options);
          if (r.ok()) {
            out.hits = std::move(r).value();
          } else {
            out.status = r.status();
          }
          return out;
        }));
      }
      // Gather in submission order: the merge below is then a pure
      // function of the candidate order, never of thread timing.
      for (size_t j = next; j < wave_end; ++j) {
        WorkerOut<Hit> out = futures[j - next].get();
        const double io_s = out.stats.io.io_time_s;
        const size_t index = candidates[j].index;
        ++agg.shards_queried;
        shards_[index].queries->Increment();
        if (tracer != nullptr && shard_spans[j - next] != obs::kNoSpan) {
          tracer->AddAttr(shard_spans[j - next], "mindist",
                          candidates[j].mindist);
          tracer->AddAttr(shard_spans[j - next], "io_s", io_s);
          tracer->EndSpan(shard_spans[j - next]);
        }
        obs::FlightRecorder::Global().Record(
            obs::FlightEventType::kShardQuery,
            static_cast<uint32_t>(index), candidates[j].mindist, io_s);
        if (!out.status.ok()) {
          if (error.ok()) error = out.status;
          continue;
        }
        per_shard.push_back(obs::ShardCostSample{
            index, shards_[index].predicted, io_s});
        AddQueryStats(agg.totals, out.stats);
        agg.io_s_sum += io_s;
        agg.io_s_max = std::max(agg.io_s_max, io_s);
        bound = merge(out.hits);
      }
      if (obs::kEnabled) {
        waves_->Increment();
        wave_width_->Observe(static_cast<double>(wave_end - next));
        wave_seconds_->Observe(ElapsedSeconds(wave_start));
      }
      ++wave_index;
      next = wave_end;
    }
  }

  if (tracer != nullptr) {
    agg.dropped_spans = tracer->dropped();
    agg.truncated = agg.dropped_spans > 0;
  }
  if (options.slow_log != nullptr && tracer != nullptr) {
    options.slow_log->Offer(tracer->Snapshot(), obs::kNoSpan, predicted_,
                            agg.dropped_spans, std::move(per_shard));
  }
  fanout_->Increment();
  queried_->Add(agg.shards_queried);
  pruned_->Add(agg.shards_pruned);
  if (options.stats != nullptr) *options.stats = agg;
  return error;
}

Result<std::vector<Neighbor>> ShardedSearcher::KNearestNeighbors(
    PointView q, size_t k, const ShardedSearchOptions& options) const {
  IQ_RETURN_NOT_OK(CheckQueryPoint(q, dims_));
  if (k == 0) return std::vector<Neighbor>{};

  std::vector<Neighbor> heap;
  heap.reserve(k);
  IQ_RETURN_NOT_OK(ScatterGather<Neighbor>(
      FanOut{"sharded_knn", "k", static_cast<double>(k)}, options,
      [&](const Mbr& bounds) {
        return Screening{true, MinDist(q, bounds, metric_), -1.0};
      },
      [q, k](const IqTree& tree, const IqSearchOptions& shard_options) {
        return tree.KNearestNeighbors(q, k, shard_options);
      },
      [&heap, k](const std::vector<Neighbor>& hits) {
        for (const Neighbor& n : hits) {
          if (heap.size() < k) {
            heap.push_back(n);
            std::push_heap(heap.begin(), heap.end(), HeapByDistance);
          } else if (n.distance < heap.front().distance) {
            std::pop_heap(heap.begin(), heap.end(), HeapByDistance);
            heap.back() = n;
            std::push_heap(heap.begin(), heap.end(), HeapByDistance);
          }
        }
        return heap.size() == k ? heap.front().distance : kNoBound;
      }));
  std::sort(heap.begin(), heap.end(), ByDistanceThenId);
  return heap;
}

Result<std::vector<Neighbor>> ShardedSearcher::RangeSearch(
    PointView q, double radius, const ShardedSearchOptions& options) const {
  IQ_RETURN_NOT_OK(CheckQueryPoint(q, dims_));
  IQ_RETURN_NOT_OK(CheckQueryRadius(radius));

  std::vector<Neighbor> results;
  IQ_RETURN_NOT_OK(ScatterGather<Neighbor>(
      FanOut{"sharded_range", "radius", radius}, options,
      [&](const Mbr& bounds) {
        const double mindist = MinDist(q, bounds, metric_);
        return Screening{mindist <= radius, mindist, radius};
      },
      [q, radius](const IqTree& tree, const IqSearchOptions& shard_options) {
        return tree.RangeSearch(q, radius, shard_options);
      },
      [&results](const std::vector<Neighbor>& hits) {
        results.insert(results.end(), hits.begin(), hits.end());
        return kNoBound;
      }));
  std::sort(results.begin(), results.end(), ByDistanceThenId);
  return results;
}

Result<std::vector<PointId>> ShardedSearcher::WindowQuery(
    const Mbr& window, const ShardedSearchOptions& options) const {
  if (window.dims() != dims_) {
    return Status::InvalidArgument("window dims mismatch in sharded query");
  }
  // The single tree's WindowQuery is untraced, so a window offer would
  // carry 0 s of observed I/O and drag the slow log's adaptive
  // threshold down; window queries are never offered. The facade still
  // stitches its wave/shard skeleton with io_s into a caller's tracer.
  ShardedSearchOptions unlogged = options;
  unlogged.slow_log = nullptr;

  std::vector<PointId> ids;
  IQ_RETURN_NOT_OK(ScatterGather<PointId>(
      FanOut{"sharded_window", nullptr, 0.0}, unlogged,
      [&window](const Mbr& bounds) {
        return Screening{bounds.Intersects(window), 0.0, -1.0};
      },
      [&window](const IqTree& tree, const IqSearchOptions& shard_options) {
        return tree.WindowQuery(window, &shard_options.stats->io);
      },
      [&ids](const std::vector<PointId>& hits) {
        ids.insert(ids.end(), hits.begin(), hits.end());
        return kNoBound;
      }));
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace iq
