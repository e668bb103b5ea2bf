#include "core/iq_tree.h"

#include <algorithm>

#include "analysis/invariant_checker.h"
#include "common/math_utils.h"
#include "fractal/fractal_dimension.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "quant/grid_quantizer.h"

namespace iq {

namespace {

// Query-level rollups in the shared namespace: every finished query
// adds its counters here once, so serving dashboards see aggregate
// search work without touching per-tree QueryStats.
struct QueryMetrics {
  obs::Counter* queries;
  obs::Counter* pages_decoded;
  obs::Counter* blocks_transferred;
  obs::Counter* batches;
  obs::Counter* refinements;
  obs::Counter* cells_enqueued;

  static const QueryMetrics& Get() {
    auto& registry = obs::MetricRegistry::Global();
    static const QueryMetrics m{
        registry.GetCounter(obs::metric::kQueryTotal),
        registry.GetCounter(obs::metric::kQueryPagesDecodedTotal),
        registry.GetCounter(obs::metric::kQueryBlocksTransferredTotal),
        registry.GetCounter(obs::metric::kQueryBatchesTotal),
        registry.GetCounter(obs::metric::kQueryRefinementsTotal),
        registry.GetCounter(obs::metric::kQueryCellsEnqueuedTotal)};
    return m;
  }
};

}  // namespace

void IqTree::PublishQueryStats(const QueryStats& stats) const {
  {
    MutexLock lock(&query_stats_mu_);
    last_query_stats_ = stats;
  }
  const QueryMetrics& metrics = QueryMetrics::Get();
  metrics.queries->Increment();
  metrics.pages_decoded->Add(stats.pages_decoded);
  metrics.blocks_transferred->Add(stats.blocks_transferred);
  metrics.batches->Add(stats.batches);
  metrics.refinements->Add(stats.refinements);
  metrics.cells_enqueued->Add(stats.cells_enqueued);
}

Result<std::unique_ptr<IqTree>> IqTree::Open(Storage& storage,
                                             const std::string& name,
                                             DiskModel& disk) {
  auto tree = std::unique_ptr<IqTree>(new IqTree());
  tree->disk_ = &disk;
  tree->storage_ = &storage;
  tree->name_ = name;
  IQ_ASSIGN_OR_RETURN(tree->dir_file_, storage.Open(DirFileName(name)));
  IQ_ASSIGN_OR_RETURN(tree->meta_,
                      ReadDirectory(*tree->dir_file_, &tree->dir_));
  if (tree->meta_.block_size != disk.params().block_size) {
    return Status::InvalidArgument(
        "index built with block size " +
        std::to_string(tree->meta_.block_size) + " opened with " +
        std::to_string(disk.params().block_size));
  }
  tree->dir_file_id_ = disk.RegisterFile();
  tree->qpages_ = std::make_unique<BlockFile>();
  IQ_RETURN_NOT_OK(tree->qpages_->Open(storage, QpgFileName(name), disk,
                                       /*create=*/false));
  tree->exact_ = std::make_unique<ExtentFile>();
  IQ_RETURN_NOT_OK(tree->exact_->Open(storage, DatFileName(name), disk,
                                      /*create=*/false));
  // Structural sanity: every entry must be internally consistent and
  // point inside its files before anything trusts the directory.
  const InvariantChecker checker(tree->meta_, disk.params().block_size);
  IQ_RETURN_NOT_OK(checker.CheckDirectory(
      tree->dir_, InvariantChecker::FileBounds{
                      tree->qpages_->NumBlocks(), tree->exact_->SizeBytes()}));
  tree->RefreshFromDirectory();
  return tree;
}

IqTree::DirGeometry IqTree::MakeDirGeometry() const {
  const size_t n = dir_.size();
  const size_t dims = meta_.dims;
  DirGeometry geom;
  geom.stride = n;
  geom.lo.resize(dims * geom.stride);
  geom.hi.resize(dims * geom.stride);
  for (size_t j = 0; j < n; ++j) {
    const Mbr& mbr = dir_[j].mbr;
    for (size_t i = 0; i < dims; ++i) {
      geom.lo[i * geom.stride + j] = mbr.lb(i);
      geom.hi[i * geom.stride + j] = mbr.ub(i);
    }
  }
  geom.block_entry.assign(qpages_->NumBlocks(), DirGeometry::kNoEntry);
  for (size_t j = 0; j < n; ++j) {
    if (dir_[j].qpage_block < geom.block_entry.size()) {
      geom.block_entry[dir_[j].qpage_block] = static_cast<uint32_t>(j);
    }
  }
  return geom;
}

Status IqTree::CheckDirGeometry() const {
  const DirGeometry want = MakeDirGeometry();
  const DirGeometry& have = dir_geom_;
  if (have.stride != want.stride || have.lo != want.lo ||
      have.hi != want.hi || have.block_entry != want.block_entry) {
    return Status::Corruption("directory mirror differs from the " +
                              std::to_string(dir_.size()) +
                              "-entry directory");
  }
  return Status::OK();
}

void IqTree::ChargeDirectoryScan(DiskHead& head) const {
  const uint64_t bytes = dir_.size() * DirEntryBytes(meta_.dims);
  const uint64_t blocks =
      CeilDiv(std::max<uint64_t>(bytes, 1), disk_->params().block_size);
  disk_->ChargeRead(head, dir_file_id_, 0, blocks);
}

Status IqTree::LoadExactPage(DiskHead& head, size_t dir_index,
                             std::vector<PointId>* ids,
                             std::vector<float>* coords) const {
  const DirEntry& entry = dir_[dir_index];
  if (entry.quant_bits >= kExactBits) {
    // Exact pages live entirely on the second level.
    std::vector<uint8_t> page(disk_->params().block_size);
    IQ_RETURN_NOT_OK(
        qpages_->ReadBlock(head, entry.qpage_block, page.data()));
    QuantPageCodec codec(meta_.dims, disk_->params().block_size);
    return codec.DecodeExact(page.data(), ids, coords);
  }
  std::vector<uint8_t> buf(entry.exact.length);
  IQ_RETURN_NOT_OK(exact_->Read(head, entry.exact, buf.data()));
  ExactPageCodec codec(meta_.dims);
  IQ_RETURN_NOT_OK(codec.Decode(buf.data(), buf.size(), ids, coords));
  if (ids->size() != entry.count) {
    return Status::Corruption("exact page count mismatch");
  }
  return Status::OK();
}

CostModel IqTree::MakeCostModel() const {
  CostModelParams params;
  params.disk = disk_->params();
  params.metric = metric();
  params.dims = meta_.dims;
  params.total_points = std::max<uint64_t>(meta_.total_points, 1);
  params.fractal_dimension =
      meta_.fractal_dimension > 0
          ? std::min(meta_.fractal_dimension,
                     static_cast<double>(meta_.dims))
          : static_cast<double>(meta_.dims);
  params.dir_entry_bytes = DirEntryBytes(meta_.dims);
  params.exact_record_bytes = ExactRecordBytes(meta_.dims);
  params.knn_k = std::max<uint32_t>(1, meta_.knn_k);
  return CostModel(params);
}

void IqTree::RefreshFromDirectory() {
  dir_geom_ = MakeDirGeometry();
  MutexLock lock(&predicted_mu_);
  predicted_.reset();
}

obs::CostBreakdown IqTree::PredictCost() const {
  MutexLock lock(&predicted_mu_);
  if (predicted_.has_value()) return *predicted_;
  const CostModel model = MakeCostModel();
  obs::CostBreakdown out;
  out.t1 = model.DirectoryScanCost(num_pages());
  out.t2 = model.SecondLevelCost(num_pages());
  for (const DirEntry& entry : dir_) {
    out.t3 += model.PageRefinementCost(entry.mbr, entry.count,
                                       entry.quant_bits);
  }
  predicted_ = out;
  return out;
}

Status IqTree::Reoptimize() {
  DiskHead head;
  // Snapshot every record currently in the index.
  Dataset snapshot(std::max<size_t>(meta_.dims, 1));
  std::vector<PointId> row_ids;
  std::vector<PointId> page_ids;
  std::vector<float> page_coords;
  for (size_t i = 0; i < dir_.size(); ++i) {
    IQ_RETURN_NOT_OK(LoadExactPage(head, i, &page_ids, &page_coords));
    for (size_t s = 0; s < page_ids.size(); ++s) {
      row_ids.push_back(page_ids[s]);
      snapshot.Append(
          PointView(page_coords.data() + s * meta_.dims, meta_.dims));
    }
  }
  // Re-estimate the fractal dimension on the current contents.
  if (snapshot.size() >= 2) {
    const double fractal =
        EstimateCorrelationDimension(snapshot.data(), snapshot.size(),
                                     snapshot.dims())
            .dimension;
    if (fractal > 0) {
      meta_.fractal_dimension =
          std::min(fractal, static_cast<double>(meta_.dims));
    }
  }
  meta_.total_points = snapshot.size();
  // Recreate the two data files (reclaims garbage blocks and dead
  // extents) and repopulate with the optimizer.
  qpages_ = std::make_unique<BlockFile>();
  IQ_RETURN_NOT_OK(qpages_->Open(*storage_, QpgFileName(name_), *disk_,
                                 /*create=*/true));
  exact_ = std::make_unique<ExtentFile>();
  IQ_RETURN_NOT_OK(exact_->Open(*storage_, DatFileName(name_), *disk_,
                                /*create=*/true));
  Options options;
  options.metric = metric();
  options.quantize = meta_.quantized != 0;
  options.fractal_dimension = meta_.fractal_dimension;
  options.optimize_for_k = meta_.knn_k;
  const Status populated =
      PopulateFromDataset(head, snapshot, row_ids, options);
  // Mirror whatever directory was written, a partial one included.
  RefreshFromDirectory();
  IQ_RETURN_NOT_OK(populated);
  dirty_ = true;
  IQ_RETURN_NOT_OK(Flush());
  return DebugCheckInvariants();
}

Status IqTree::Validate() const {
  // Shallow pass first: metadata, every directory entry, and cross-entry
  // invariants, without touching the data files.
  const InvariantChecker checker(meta_, disk_->params().block_size);
  IQ_RETURN_NOT_OK(checker.CheckDirectory(
      dir_, InvariantChecker::FileBounds{qpages_->NumBlocks(),
                                         exact_->SizeBytes()}));
  // Deep scrub: decode every page of all three levels against the
  // directory.
  QuantPageCodec codec(meta_.dims, disk_->params().block_size);
  std::vector<uint8_t> page(disk_->params().block_size);
  std::vector<bool> seen;  // id uniqueness, grown on demand
  DiskHead head;
  for (size_t i = 0; i < dir_.size(); ++i) {
    const DirEntry& entry = dir_[i];
    const std::string where = "entry " + std::to_string(i);
    IQ_RETURN_NOT_OK(qpages_->ReadBlock(head, entry.qpage_block, page.data()));
    // Header agreement + decoded cell boxes contained in the entry MBR.
    IQ_RETURN_NOT_OK(
        checker.CheckPage(entry, i, std::span(page.data(), page.size())));
    std::vector<PointId> ids;
    std::vector<float> coords;
    std::vector<uint32_t> cells;
    if (entry.quant_bits >= kExactBits) {
      IQ_RETURN_NOT_OK(codec.DecodeExact(page.data(), &ids, &coords));
    } else {
      IQ_RETURN_NOT_OK(codec.DecodeCells(page.data(), &cells));
      IQ_RETURN_NOT_OK(LoadExactPage(head, i, &ids, &coords));
    }
    std::vector<uint32_t> point_cells(meta_.dims);
    for (uint32_t s = 0; s < entry.count; ++s) {
      const PointView p(coords.data() + s * meta_.dims, meta_.dims);
      if (!entry.mbr.Contains(p)) {
        return Status::Corruption(where + ": point outside page MBR");
      }
      if (entry.quant_bits < kExactBits) {
        std::copy(cells.begin() + static_cast<ptrdiff_t>(s) * meta_.dims,
                  cells.begin() +
                      static_cast<ptrdiff_t>(s + 1) * meta_.dims,
                  point_cells.begin());
        const GridQuantizer quantizer(entry.mbr, entry.quant_bits);
        if (!quantizer.CellBox(point_cells).Contains(p)) {
          return Status::Corruption(where +
                                    ": cell box does not contain its point");
        }
      }
      if (ids[s] >= seen.size()) seen.resize(ids[s] + 1, false);
      if (seen[ids[s]]) {
        return Status::Corruption(where + ": duplicate point id " +
                                  std::to_string(ids[s]));
      }
      seen[ids[s]] = true;
    }
  }
  return Status::OK();
}

Status IqTree::DebugCheckInvariants() const {
#if defined(IQ_DEBUG_INVARIANTS)
  const InvariantChecker checker(meta_, disk_->params().block_size);
  IQ_RETURN_NOT_OK(checker.CheckDirectory(
      dir_, InvariantChecker::FileBounds{qpages_->NumBlocks(),
                                         exact_->SizeBytes()}));
  return CheckDirGeometry();
#else
  return Status::OK();
#endif
}

Status IqTree::Flush() {
  if (!dirty_) return Status::OK();
  IQ_RETURN_NOT_OK(WriteDirectory(*dir_file_, meta_, dir_));
  // Directory rewrite: charged as one sequential write pass.
  const uint64_t bytes = dir_.size() * DirEntryBytes(meta_.dims);
  DiskHead head;
  disk_->ChargeWrite(head, dir_file_id_, 0,
                     CeilDiv(std::max<uint64_t>(bytes, 1),
                             disk_->params().block_size));
  dirty_ = false;
  return Status::OK();
}

}  // namespace iq
