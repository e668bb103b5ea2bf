#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <queue>
#include <span>
#include <utility>

#include "common/hot_path.h"
#include "core/iq_tree.h"
#include "costmodel/access_probability.h"
#include "quant/filter_kernel.h"
#include "sched/fetch_plan.h"
#include "sched/nn_batcher.h"

namespace iq {

namespace {

constexpr size_t kMaxPrunerRegions = 512;
constexpr double kMinCandidateProbability = 0.10;

/// One cell approximation of a decoded page that is still a candidate
/// (§3.2): its lower bound and its slot in the page.
struct Candidate {
  double mindist;
  uint32_t slot;
};

/// Heap comparator of a page's candidates: (mindist, slot) ascending.
inline bool LaterCandidate(const Candidate& a, const Candidate& b) {
  return a.mindist > b.mindist || (a.mindist == b.mindist && a.slot > b.slot);
}

/// One decoded page with candidates. Until its head first pops, the
/// page is just its lower bounds, one per point from `bounds` in the
/// searcher's bound arena. From then on, its remaining candidates are
/// candidates_[begin, end), a LaterCandidate heap whose top is the
/// page's next head.
struct PageCursor {
  size_t bounds;
  size_t begin;
  size_t end;
  bool ordered;
};

/// Min-heap entry: the head (best remaining candidate) of one decoded
/// page, `cursor` its PageCursor. Pages never enter this heap; they
/// come from the searcher's (MINDIST, dir_index) page order. Ties go by
/// (dir_index, slot). A page's head is its least candidate by
/// (mindist, slot), so merging the heads pops every candidate in the
/// global (mindist, dir_index, slot) order, and a page's tied cells are
/// refined in their third-level record order.
struct CellEntry {
  double mindist;
  uint32_t dir_index;
  uint32_t slot;
  uint32_t cursor;

  bool operator>(const CellEntry& other) const {
    if (mindist != other.mindist) return mindist > other.mindist;
    if (dir_index != other.dir_index) return dir_index > other.dir_index;
    return slot > other.slot;
  }
};

/// The HS cell queue: at most one entry per decoded page.
using CellHeap =
    std::priority_queue<CellEntry, std::vector<CellEntry>,
                        std::greater<CellEntry>>;

/// Max-heap order for the bounded k-NN result set: the current worst
/// (largest distance) sits at the front.
inline bool CloserNeighbor(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance;
}

/// A page in the kNN search's priority order (§2.2): its MINDIST and
/// directory index.
struct RankedPage {
  double mindist;
  uint32_t dir_index;
};

/// Heap comparator of the page order: (MINDIST, dir_index) ascending, so
/// tied pages come out by directory index.
inline bool LaterPage(const RankedPage& a, const RankedPage& b) {
  return a.mindist > b.mindist ||
         (a.mindist == b.mindist && a.dir_index > b.dir_index);
}

/// The region of a range query: the ball of `radius` around the query.
struct Ball {
  using Hit = Neighbor;
  double radius;
};

/// The region of a window query: the box itself (inclusive bounds).
struct Window {
  using Hit = PointId;
  const Mbr& box;
};

}  // namespace

/// Per-query state shared by NN, k-NN, range and window search over one
/// IqTree.
class IqTreeSearcher {
 public:
  static constexpr uint32_t kNoEntry = IqTree::DirGeometry::kNoEntry;

  IqTreeSearcher(const IqTree& tree, PointView q,
                 const IqSearchOptions& options)
      : tree_(tree),
        q_(q),
        options_(options),
        tracer_(options.tracer),
        metric_(tree.metric()),
        dims_(tree.dims()),
        block_size_(tree.disk_->params().block_size),
        codec_(tree.dims(), tree.disk_->params().block_size) {}

  /// Ends the query whose Run* call returned `run`: stamps its
  /// I/O into its stats, writes them to the options_.stats sink, and on
  /// success publishes them and offers the query to options_.slow_log
  /// (the root span has ended, so the caller's trace is complete).
  Status Finish(const Status& run) {
    stats_.io = head_.stats;
    if (options_.stats != nullptr) *options_.stats = stats_;
    IQ_RETURN_NOT_OK(run);
    tree_.PublishQueryStats(stats_);
    if (obs::kEnabled && options_.slow_log != nullptr) {
      obs::SlowQueryRecord query;
      query.kind = kind_;
      query.predicted = tree_.PredictCost();
      query.observed = stats_.observed;
      options_.slow_log->Offer(std::move(query), tracer_);
    }
    return Status::OK();
  }

  Status RunKnn(size_t k, std::vector<Neighbor>* out) {
    k_ = k;
    kind_ = "knn";
    obs::ScopedSpan root(tracer_, kind_, options_.parent_span);
    root_span_ = root.id();
    root.AddAttr("k", static_cast<double>(k));
    ScanDirectory(PageSetup::kOrder);
    // HS search (§2.2) over two sources: the next unprocessed page of
    // the page order and the cell heap; on equal MINDIST the page goes
    // first.
    std::vector<uint8_t> batch_buf;
    // MINDIST of a source with nothing left.
    constexpr double kExhausted = std::numeric_limits<double>::infinity();
    size_t next_page = 0;
    while (true) {
      // Skip the pages earlier batches already transferred.
      while (next_page < NumOrdered() &&
             processed_[OrderedPage(next_page).dir_index]) {
        ++next_page;
      }
      const double page_mindist =
          next_page < NumOrdered() ? OrderedPage(next_page).mindist
                                   : kExhausted;
      const double cell_mindist =
          cells_.empty() ? kExhausted : cells_.top().mindist;
      if (!(std::min(page_mindist, cell_mindist) < PruneDistance())) break;
      if (cell_mindist < page_mindist) {
        const CellEntry top = cells_.top();
        cells_.pop();
        IQ_RETURN_NOT_OK(RefineSlot(top.dir_index, top.slot));
        AdvanceCursor(top);
        continue;
      }
      const size_t page_pos = next_page++;
      IQ_RETURN_NOT_OK(
          LoadBatch(OrderedPage(page_pos).dir_index, page_pos, &batch_buf));
    }
    out->assign(results_.begin(), results_.end());
    std::sort(out->begin(), out->end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance < b.distance;
              });
    return Status::OK();
  }

  Status RunRange(double radius, std::vector<Neighbor>* out) {
    kind_ = "range";
    obs::ScopedSpan root(tracer_, kind_, options_.parent_span);
    root_span_ = root.id();
    root.AddAttr("radius", radius);
    ScanDirectory(PageSetup::kMinDist);
    IQ_RETURN_NOT_OK(ReadKnownSet(Ball{radius}, out));
    std::sort(out->begin(), out->end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance < b.distance;
              });
    return Status::OK();
  }

  /// Window ids come out in page order: by qpage block, then by slot.
  Status RunWindow(const Mbr& window, std::vector<PointId>* out) {
    kind_ = "window";
    obs::ScopedSpan root(tracer_, kind_, options_.parent_span);
    root_span_ = root.id();
    ScanDirectory(PageSetup::kNone);
    return ReadKnownSet(Window{window}, out);
  }

 private:
  /// What a query sets up from the directory besides charging its scan.
  enum class PageSetup {
    kNone,     // window: its screen reads the MBRs directly
    kMinDist,  // range: every page's MINDIST to the query
    kOrder,    // kNN: the MINDISTs plus the page order (and planner state)
  };

  /// The charged level-1 directory scan plus the in-memory page setup,
  /// as one traced span.
  void ScanDirectory(PageSetup setup) {
    obs::ScopedSpan span(tracer_, "dir_scan", root_span_);
    const double io_before = head_.stats.io_time_s;
    tree_.ChargeDirectoryScan(head_);
    InitPages(setup);
    span.AddAttr("pages", static_cast<double>(tree_.dir_.size()));
    span.AddAttr("io_s", Charged(io_before, &stats_.observed.t1));
  }

  /// The I/O this query charged since its clock read `io_before` (a
  /// span's `io_s`), also added to `level`, its term of stats_.observed.
  double Charged(double io_before, double* level) {
    const double io_s = head_.stats.io_time_s - io_before;
    *level += io_s;
    return io_s;
  }

  void InitPages(PageSetup setup) {
    if (setup == PageSetup::kNone) return;
    const size_t n = tree_.dir_.size();
    page_mindist_.resize(n);
    const IqTree::DirGeometry& geom = tree_.dir_geom_;
    FilterKernel::BoxMinDists(q_, metric_, geom.lo.data(), geom.hi.data(),
                              geom.stride, n, page_mindist_.data());
    if (setup == PageSetup::kMinDist) return;
    processed_.assign(n, 0);
    // The one page order of the HS loop and the §2.1 planner:
    // (MINDIST, dir_index) ascending, so tied pages enter the eq. 3
    // product by directory index (IqSearchGoldenPlanTest pins the
    // resulting plans). A heap over all pages yields it lazily; most
    // queries stop long before the order is exhausted.
    order_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      order_[i] = RankedPage{page_mindist_[i], static_cast<uint32_t>(i)};
    }
    std::make_heap(order_.begin(), order_.end(), LaterPage);
    heap_end_ = n;
    moments_.clear();
    if (options_.optimized_access) moments_.reserve(n);
  }

  /// Pages in the order (all of the directory).
  size_t NumOrdered() const { return order_.size(); }

  /// The j-th page (from 0) of the (MINDIST, dir_index) order, j <
  /// NumOrdered(). Pops the heap prefix of order_ until page j has left
  /// it; popped pages collect at the back of order_, the smallest last,
  /// so page j sits at order_[n - 1 - j] and stays put once there.
  IQ_HOT_NOALLOC
  const RankedPage& OrderedPage(size_t j) {
    const size_t n = order_.size();
    while (n - heap_end_ <= j) {
      std::pop_heap(order_.begin(),
                    order_.begin() + static_cast<ptrdiff_t>(heap_end_),
                    LaterPage);
      --heap_end_;
    }
    return order_[n - 1 - j];
  }

  /// Current pruning distance: the k-th best exact distance found.
  double PruneDistance() const {
    return results_.size() < k_ ? std::numeric_limits<double>::infinity()
                                : results_top_;
  }

  /// results_ is a bounded max-heap on distance, so replacing the worst
  /// of k results is O(log k) instead of the former two O(k) scans.
  IQ_HOT_NOALLOC
  void AddResult(PointId id, double distance) {
    if (results_.size() < k_) {
      // iqlint: allow(hotpath-alloc): bounded by k and reserved at
      // query setup; never grows past k entries.
      results_.push_back(Neighbor{id, distance});
      std::push_heap(results_.begin(), results_.end(), CloserNeighbor);
      if (results_.size() == k_) results_top_ = results_.front().distance;
      return;
    }
    if (distance >= results_top_) return;
    std::pop_heap(results_.begin(), results_.end(), CloserNeighbor);
    results_.back() = Neighbor{id, distance};
    std::push_heap(results_.begin(), results_.end(), CloserNeighbor);
    results_top_ = results_.front().distance;
  }

  /// Access probability of the page at file position `block` for the
  /// current query state (the scheduler's callback). `pivot_pos` is the
  /// pivot page's position in the page order.
  IQ_HOT_NOALLOC
  double AccessProbability(uint64_t block, uint64_t pivot_block,
                           size_t pivot_pos) {
    if (block == pivot_block) return 1.0;
    const uint32_t dir_index = tree_.dir_geom_.EntryAt(block);
    if (dir_index == kNoEntry || processed_[dir_index]) return 0.0;
    const double md = page_mindist_[dir_index];
    if (md >= PruneDistance()) return 0.0;
    // The higher-priority set (§2.2): the unprocessed pages of smaller
    // MINDIST, in page order and at most kMaxPrunerRegions of them. The
    // walk starts at the pivot, since every earlier page is processed.
    size_t pos = pivot_pos;
    size_t taken = 0;
    const auto next_region = [&](PrunerRegion* region) {
      for (; taken < kMaxPrunerRegions && pos < NumOrdered(); ++pos) {
        const RankedPage& page = OrderedPage(pos);
        if (page.mindist >= md) return false;
        if (processed_[page.dir_index]) continue;
        // iqlint: allow(hotpath-alloc): reserved to the page count at
        // query setup; grows to the deepest position walked.
        if (pos >= moments_.size()) moments_.resize(pos + 1);
        const DirEntry& entry = tree_.dir_[page.dir_index];
        *region = PrunerRegion{&entry.mbr, entry.count, &moments_[pos++]};
        ++taken;
        return true;
      }
      return false;
    };
    // A page still in the priority list can always turn out to be
    // needed, and mistakenly skipping it costs a whole seek while
    // over-reading it costs one transfer; keep a floor under the
    // estimate so near-certain-looking skips stay cheap to hedge. The
    // product only falls, so it stops as soon as it crosses the floor.
    return std::max(kMinCandidateProbability,
                    PageAccessProbability(q_, md, next_region, metric_,
                                          kMinCandidateProbability));
  }

  /// The kNN load step. With optimized access, the paper's
  /// time-optimized one (§2.1): batch the pivot page with neighboring
  /// on-disk pages whose access probability makes over-reading cheaper
  /// than a later seek; with standard access, the pivot page alone.
  /// Then process everything that was transferred.
  Status LoadBatch(size_t pivot_dir_index, size_t pivot_pos,
                   std::vector<uint8_t>* buf) {
    obs::ScopedSpan batch_span(tracer_, "batch", root_span_);
    const double io_before = head_.stats.io_time_s;
    const uint64_t pivot_block = tree_.dir_[pivot_dir_index].qpage_block;
    BatchRange range{pivot_block, pivot_block};
    if (options_.optimized_access) {
      IQ_HOT_NOALLOC_BEGIN;
      range = PlanNnBatch(pivot_block, tree_.dir_geom_.block_entry.size(),
                          tree_.disk_->params(), [&](uint64_t block) {
                            return AccessProbability(block, pivot_block,
                                                     pivot_pos);
                          });
      IQ_HOT_NOALLOC_END;
    }
    buf->resize(range.count() * block_size_);
    IQ_RETURN_NOT_OK(tree_.qpages_->ReadRange(head_, range.first,
                                              range.count(), buf->data()));
    stats_.batches += 1;
    stats_.blocks_transferred += range.count();
    batch_span.AddAttr("pivot_block", static_cast<double>(pivot_block));
    batch_span.AddAttr("first_block", static_cast<double>(range.first));
    batch_span.AddAttr("blocks", static_cast<double>(range.count()));
    batch_span.AddAttr("pred_io_s",
                       BatchCost(range, tree_.disk_->params()));
    batch_span.AddAttr("io_s", Charged(io_before, &stats_.observed.t2));
    size_t pruned = 0;
    for (uint64_t b = 0; b < range.count(); ++b) {
      const uint32_t dir_index = tree_.dir_geom_.EntryAt(range.first + b);
      if (dir_index == kNoEntry || processed_[dir_index]) continue;
      // Pages already pruned by the current result are transferred but
      // not decoded.
      if (dir_index != pivot_dir_index &&
          page_mindist_[dir_index] >= PruneDistance()) {
        processed_[dir_index] = 1;
        ++pruned;
        continue;
      }
      IQ_RETURN_NOT_OK(ProcessPage(dir_index, buf->data() + b * block_size_,
                                   batch_span.id()));
    }
    batch_span.AddAttr("pages_pruned", static_cast<double>(pruned));
    return Status::OK();
  }

  /// Decodes a loaded quantized page: exact points are evaluated
  /// directly; the cell approximations under the prune distance become
  /// the page's candidates (§3.2), and only the best of them enters the
  /// cell heap.
  IQ_HOT_NOALLOC
  Status ProcessPage(size_t dir_index, const uint8_t* page,
                     obs::SpanId parent_span) {
    processed_[dir_index] = 1;
    stats_.pages_decoded += 1;
    const DirEntry& entry = tree_.dir_[dir_index];
    obs::ScopedSpan span(tracer_, "page", parent_span);
    span.AddAttr("dir_index", static_cast<double>(dir_index));
    span.AddAttr("g", static_cast<double>(entry.quant_bits));
    span.AddAttr("points", static_cast<double>(entry.count));
    IQ_ASSIGN_OR_RETURN(QuantPageHeader header, codec_.DecodeHeader(page));
    if (header.count != entry.count || header.bits != entry.quant_bits) {
      return Status::Corruption("quantized page disagrees with directory");
    }
    if (entry.quant_bits >= kExactBits) {
      IQ_RETURN_NOT_OK(codec_.DecodeExact(page, &ids_scratch_,
                                          &coords_scratch_));
      // iqlint: allow(hotpath-alloc): reused member scratch; steady
      // state stays under the high-water capacity.
      dist_scratch_.resize(ids_scratch_.size());
      FilterKernel::BatchDistances(q_, metric_, coords_scratch_.data(),
                                   ids_scratch_.size(), dist_scratch_.data());
      for (size_t s = 0; s < ids_scratch_.size(); ++s) {
        if (dist_scratch_[s] < PruneDistance()) {
          AddResult(ids_scratch_[s], dist_scratch_[s]);
        }
      }
      return Status::OK();
    }
    IQ_RETURN_NOT_OK(codec_.DecodeCells(page, &cells_scratch_));
    // Batch the whole page through the filter kernel; PruneDistance()
    // is constant across the page (nothing below updates results_), so
    // filtering after the batch is identical to the former per-point
    // CellBox+MinDist loop — and the kernel's bounds are bit-identical
    // to it (see quant/filter_kernel.h).
    kernel_.BindMinDist(q_, metric_, entry.mbr, entry.quant_bits);
    // The page's bounds go straight into the query's bound arena.
    const size_t bounds = bounds_.size();
    // iqlint: allow(hotpath-alloc): the query's bound arena grows
    // amortized and only holds this query's decoded pages.
    bounds_.resize(bounds + entry.count);
    double* const bound = bounds_.data() + bounds;
    kernel_.MinDistLowerBounds(cells_scratch_.data(), entry.count, bound);
    // The candidates are the cells under the prune distance; the first
    // least bound is the page's head.
    const double prune = PruneDistance();
    size_t enqueued = 0;
    double head_mindist = prune;
    uint32_t head = 0;
    for (uint32_t s = 0; s < entry.count; ++s) {
      enqueued += bound[s] < prune;
      if (bound[s] < head_mindist) {
        head_mindist = bound[s];
        head = s;
      }
    }
    stats_.cells_enqueued += enqueued;
    span.AddAttr("cells_enqueued", static_cast<double>(enqueued));
    if (enqueued == 0) {
      // iqlint: allow(hotpath-alloc): shrinks back, never allocates.
      bounds_.resize(bounds);
      return Status::OK();
    }
    const uint32_t cursor = static_cast<uint32_t>(cursors_.size());
    // iqlint: allow(hotpath-alloc): one cursor per decoded page, grows
    // amortized over the query.
    cursors_.push_back(PageCursor{bounds, 0, 0, false});
    // iqlint: allow(hotpath-alloc): the cell heap's backing vector holds
    // one entry per decoded page and grows amortized.
    cells_.push(CellEntry{head_mindist, static_cast<uint32_t>(dir_index),
                          head, cursor});
    return Status::OK();
  }

  /// After `popped`, its page's head, was refined: puts the page's next
  /// head into the cell heap. The page's candidates are gathered and
  /// ordered only now, on its first pop, without the cells the prune
  /// distance has excluded since decode (it never grows, so they would
  /// never pop).
  IQ_HOT_NOALLOC
  void AdvanceCursor(const CellEntry& popped) {
    PageCursor& run = cursors_[popped.cursor];
    const double prune = PruneDistance();
    if (!run.ordered) {
      const double* const bound = bounds_.data() + run.bounds;
      const uint32_t count = tree_.dir_[popped.dir_index].count;
      run.begin = candidates_.size();
      for (uint32_t s = 0; s < count; ++s) {
        if (s != popped.slot && bound[s] < prune) {
          // iqlint: allow(hotpath-alloc): the query's candidate arena
          // grows amortized and only holds this query's candidates.
          candidates_.push_back(Candidate{bound[s], s});
        }
      }
      run.end = candidates_.size();
      std::make_heap(candidates_.data() + run.begin,
                     candidates_.data() + run.end, LaterCandidate);
      run.ordered = true;
    } else {
      std::pop_heap(candidates_.data() + run.begin,
                    candidates_.data() + run.end, LaterCandidate);
      --run.end;
    }
    if (run.begin == run.end) return;
    const Candidate& next = candidates_[run.begin];
    if (!(next.mindist < prune)) return;
    // iqlint: allow(hotpath-alloc): replaces the entry just popped, so
    // the heap never outgrows its high-water size.
    cells_.push(CellEntry{next.mindist, popped.dir_index, next.slot,
                          popped.cursor});
  }

  /// Consults the exact geometry of one point (§3.2): reads only the
  /// block(s) of the third-level page that hold this point's record —
  /// a point approximation is refined at most once per query (it leaves
  /// the priority list when popped), so there is nothing to cache.
  IQ_HOT_NOALLOC
  Status RefineSlot(size_t dir_index, uint32_t slot) {
    obs::ScopedSpan span(tracer_, "refine", root_span_);
    span.AddAttr("dir_index", static_cast<double>(dir_index));
    span.AddAttr("slot", static_cast<double>(slot));
    const double io_before = head_.stats.io_time_s;
    const DirEntry& entry = tree_.dir_[dir_index];
    const size_t record = ExactRecordBytes(dims_);
    if (entry.quant_bits >= kExactBits ||
        (static_cast<uint64_t>(slot) + 1) * record > entry.exact.length) {
      return Status::Corruption("refinement slot out of range");
    }
    const Extent record_extent{entry.exact.offset + slot * record, record};
    // iqlint: allow(hotpath-alloc): fixed record-size member buffer;
    // allocates once on the first refinement, reused after.
    record_buf_.resize(record);
    IQ_RETURN_NOT_OK(
        tree_.exact_->Read(head_, record_extent, record_buf_.data()));
    stats_.refinements += 1;
    span.AddAttr("io_s", Charged(io_before, &stats_.observed.t3));
    PointId id;
    std::memcpy(&id, record_buf_.data(), sizeof(PointId));
    // iqlint: allow(hotpath-alloc): fixed dims-size member buffer,
    // reused across refinements.
    record_coords_.resize(dims_);
    std::memcpy(record_coords_.data(), record_buf_.data() + sizeof(PointId),
                sizeof(float) * dims_);
    const double dist = Distance(q_, record_coords_, metric_);
    if (dist < PruneDistance()) AddResult(id, dist);
    return Status::OK();
  }

  /// The known-set loop of range and window queries: their page set is
  /// known from the directory alone (the pages `region` keeps), so it
  /// is read with the optimal seek-vs-overread plan (§2), and every
  /// kept page is searched for `region`'s hits.
  template <typename Region>
  Status ReadKnownSet(const Region& region,
                      std::vector<typename Region::Hit>* out) {
    std::vector<uint64_t> blocks;
    for (size_t i = 0; i < tree_.dir_.size(); ++i) {
      if (Keeps(region, i)) blocks.push_back(tree_.dir_[i].qpage_block);
    }
    std::sort(blocks.begin(), blocks.end());
    const std::vector<FetchRun> runs =
        PlanKnownSetFetch(blocks, tree_.disk_->params());
    std::vector<uint8_t> buf;
    for (const FetchRun& run : runs) {
      obs::ScopedSpan batch_span(tracer_, "batch", root_span_);
      const double io_before = head_.stats.io_time_s;
      buf.resize(run.count * block_size_);
      IQ_RETURN_NOT_OK(tree_.qpages_->ReadRange(head_, run.first, run.count,
                                                buf.data()));
      stats_.batches += 1;
      stats_.blocks_transferred += run.count;
      batch_span.AddAttr("first_block", static_cast<double>(run.first));
      batch_span.AddAttr("blocks", static_cast<double>(run.count));
      batch_span.AddAttr("pred_io_s",
                         PlanCost(std::span(&run, 1), tree_.disk_->params()));
      batch_span.AddAttr("io_s", Charged(io_before, &stats_.observed.t2));
      for (uint64_t b = 0; b < run.count; ++b) {
        const uint32_t dir_index = tree_.dir_geom_.EntryAt(run.first + b);
        if (dir_index == kNoEntry) continue;  // over-read gap
        if (!Keeps(region, dir_index)) continue;  // over-read page
        IQ_RETURN_NOT_OK(SearchPage(region, dir_index,
                                    buf.data() + b * block_size_, out,
                                    batch_span.id()));
      }
    }
    return Status::OK();
  }

  /// Known-set page handler: appends the page's points that lie in
  /// `region`, loading the exact page at most once and only when a cell
  /// approximation leaves a point undecided.
  template <typename Region>
  IQ_HOT_NOALLOC
  Status SearchPage(const Region& region, size_t dir_index,
                    const uint8_t* page,
                    std::vector<typename Region::Hit>* out,
                    obs::SpanId parent_span) {
    stats_.pages_decoded += 1;
    const DirEntry& entry = tree_.dir_[dir_index];
    obs::ScopedSpan span(tracer_, "page", parent_span);
    span.AddAttr("dir_index", static_cast<double>(dir_index));
    span.AddAttr("g", static_cast<double>(entry.quant_bits));
    span.AddAttr("points", static_cast<double>(entry.count));
    IQ_ASSIGN_OR_RETURN(QuantPageHeader header, codec_.DecodeHeader(page));
    if (header.count != entry.count || header.bits != entry.quant_bits) {
      return Status::Corruption("quantized page disagrees with directory");
    }
    if (entry.quant_bits >= kExactBits) {
      IQ_RETURN_NOT_OK(codec_.DecodeExact(page, &ids_scratch_,
                                          &coords_scratch_));
      CollectAll(region, out);
      return Status::OK();
    }
    IQ_RETURN_NOT_OK(codec_.DecodeCells(page, &cells_scratch_));
    // One kernel batch per page instead of a per-point cell box (the
    // kernel's answers are bit-identical, so the candidate set is too).
    candidates_scratch_.clear();
    SelectCandidates(region, entry);
    if (candidates_scratch_.empty()) return Status::OK();
    stats_.refinements += candidates_scratch_.size();
    obs::ScopedSpan exact_span(tracer_, "exact_page", span.id());
    exact_span.AddAttr("refinements",
                       static_cast<double>(candidates_scratch_.size()));
    const double io_before = head_.stats.io_time_s;
    // The exact-page scratch is free here: this page is quantized.
    IQ_RETURN_NOT_OK(tree_.LoadExactPage(head_, dir_index, &ids_scratch_,
                                         &coords_scratch_));
    exact_span.AddAttr("io_s", Charged(io_before, &stats_.observed.t3));
    for (uint32_t s : candidates_scratch_) Collect(region, s, out);
    return Status::OK();
  }

  // What each region supplies to the known-set loop: its page screen,
  // its cell filter (into candidates_scratch_), and its exact test of
  // the loaded records (ids_scratch_, coords_scratch_) with the hit
  // that test appends. The ball's whole-page test is one batch of
  // distances.

  bool Keeps(const Ball& ball, size_t dir_index) const {
    return page_mindist_[dir_index] <= ball.radius;
  }
  bool Keeps(const Window& window, size_t dir_index) const {
    return window.box.Intersects(tree_.dir_[dir_index].mbr);
  }

  IQ_HOT_NOALLOC
  void SelectCandidates(const Ball& ball, const DirEntry& entry) {
    kernel_.BindMinDist(q_, metric_, entry.mbr, entry.quant_bits);
    kernel_.SelectCandidates(cells_scratch_.data(), entry.count, ball.radius,
                             &candidates_scratch_);
  }
  IQ_HOT_NOALLOC
  void SelectCandidates(const Window& window, const DirEntry& entry) {
    kernel_.BindWindow(window.box, entry.mbr, entry.quant_bits);
    kernel_.WindowCandidates(cells_scratch_.data(), entry.count,
                             &candidates_scratch_);
  }

  PointView Record(uint32_t slot) const {
    return PointView(coords_scratch_.data() + slot * dims_, dims_);
  }

  IQ_HOT_NOALLOC
  void Collect(const Ball& ball, uint32_t slot, std::vector<Neighbor>* out) {
    const double dist = Distance(q_, Record(slot), metric_);
    if (dist <= ball.radius) {
      // iqlint: allow(hotpath-alloc): append to the caller-owned result
      // vector — the query's output, not scratch.
      out->push_back(Neighbor{ids_scratch_[slot], dist});
    }
  }
  IQ_HOT_NOALLOC
  void Collect(const Window& window, uint32_t slot,
               std::vector<PointId>* out) {
    // iqlint: allow(hotpath-alloc): append to the caller-owned result
    // vector.
    if (window.box.Contains(Record(slot))) out->push_back(ids_scratch_[slot]);
  }

  IQ_HOT_NOALLOC
  void CollectAll(const Ball& ball, std::vector<Neighbor>* out) {
    // iqlint: allow(hotpath-alloc): reused member scratch; steady
    // state stays under the high-water capacity.
    dist_scratch_.resize(ids_scratch_.size());
    FilterKernel::BatchDistances(q_, metric_, coords_scratch_.data(),
                                 ids_scratch_.size(), dist_scratch_.data());
    for (size_t s = 0; s < ids_scratch_.size(); ++s) {
      if (dist_scratch_[s] <= ball.radius) {
        // iqlint: allow(hotpath-alloc): append to the caller-owned
        // result vector.
        out->push_back(Neighbor{ids_scratch_[s], dist_scratch_[s]});
      }
    }
  }
  IQ_HOT_NOALLOC
  void CollectAll(const Window& window, std::vector<PointId>* out) {
    for (uint32_t s = 0; s < ids_scratch_.size(); ++s) {
      Collect(window, s, out);
    }
  }

  const IqTree& tree_;
  PointView q_;
  IqSearchOptions options_;
  /// Null unless this query asked for a trace; all span calls no-op on
  /// null (one pointer test inside ScopedSpan).
  obs::QueryTracer* tracer_;
  obs::SpanId root_span_ = obs::kNoSpan;
  /// The root span's name, "knn", "range" or "window": the slow-log
  /// record's kind.
  const char* kind_ = "";
  Metric metric_;
  size_t dims_;
  uint32_t block_size_;
  QuantPageCodec codec_;
  size_t k_ = 1;

  std::vector<double> page_mindist_;
  std::vector<uint8_t> processed_;
  /// kNN page order (see OrderedPage): a heap over [0, heap_end_), the
  /// pages popped from it in order behind.
  std::vector<RankedPage> order_;
  size_t heap_end_ = 0;
  /// §2.1 planner (kNN with optimized access): the eq. 3 moments of the
  /// page at each order position, filled on the page's first L2 use, so
  /// they are computed at most once per page per query.
  std::vector<DistanceMoments> moments_;

  std::vector<Neighbor> results_;
  double results_top_ = std::numeric_limits<double>::infinity();

  /// kNN cell queue (§2.2) as a k-way merge over the decoded pages
  /// (cursors_): each page's head in cells_, its lower bounds in
  /// bounds_ and, once its head has popped, its remaining candidates
  /// in candidates_.
  std::vector<double> bounds_;
  std::vector<Candidate> candidates_;
  std::vector<PageCursor> cursors_;
  CellHeap cells_;

  /// Batch filter kernel plus per-page scratch, reused across pages so
  /// the steady-state per-point filter loop performs no heap traffic.
  FilterKernel kernel_;
  std::vector<uint32_t> cells_scratch_;
  std::vector<double> dist_scratch_;
  std::vector<uint32_t> candidates_scratch_;
  std::vector<PointId> ids_scratch_;
  std::vector<float> coords_scratch_;
  std::vector<uint8_t> record_buf_;
  std::vector<float> record_coords_;

  /// This query's disk head; head_.stats.io_time_s is its I/O clock,
  /// which every span's io_s is a difference of.
  DiskHead head_;
  /// Accumulated privately per query (searchers on other threads have
  /// their own); handed out once, by Finish.
  IqTree::QueryStats stats_;
};

Result<Neighbor> IqTree::NearestNeighbor(
    PointView q, const IqSearchOptions& options) const {
  IQ_RETURN_NOT_OK(CheckQueryPoint(q, meta_.dims));
  if (dir_.empty()) return Status::NotFound("empty index");
  IqTreeSearcher searcher(*this, q, options);
  std::vector<Neighbor> out;
  IQ_RETURN_NOT_OK(searcher.Finish(searcher.RunKnn(1, &out)));
  if (out.empty()) return Status::NotFound("empty index");
  return out.front();
}

Result<std::vector<Neighbor>> IqTree::KNearestNeighbors(
    PointView q, size_t k, const IqSearchOptions& options) const {
  IQ_RETURN_NOT_OK(CheckQueryPoint(q, meta_.dims));
  if (k == 0) return std::vector<Neighbor>{};
  IqTreeSearcher searcher(*this, q, options);
  std::vector<Neighbor> out;
  IQ_RETURN_NOT_OK(searcher.Finish(searcher.RunKnn(k, &out)));
  return out;
}

Result<std::vector<Neighbor>> IqTree::RangeSearch(
    PointView q, double radius, const IqSearchOptions& options) const {
  IQ_RETURN_NOT_OK(CheckQueryPoint(q, meta_.dims));
  IQ_RETURN_NOT_OK(CheckQueryRadius(radius));
  IqTreeSearcher searcher(*this, q, options);
  std::vector<Neighbor> out;
  IQ_RETURN_NOT_OK(searcher.Finish(searcher.RunRange(radius, &out)));
  return out;
}

Result<std::vector<PointId>> IqTree::WindowQuery(
    const Mbr& window, const IqSearchOptions& options) const {
  if (window.dims() != meta_.dims) {
    return Status::InvalidArgument("window dimensionality mismatch");
  }
  IqTreeSearcher searcher(*this, PointView(), options);
  std::vector<PointId> out;
  IQ_RETURN_NOT_OK(searcher.Finish(searcher.RunWindow(window, &out)));
  return out;
}

}  // namespace iq
