#include <numeric>

#include "core/iq_tree.h"
#include "core/partitioner.h"
#include "fractal/fractal_dimension.h"
#include "quant/grid_quantizer.h"

namespace iq {

namespace {

/// Gathers the exact records (ids + coords) of one solution page. The
/// rows referenced by `rows` get their public ids from `row_ids` (or
/// the row index itself when null).
void GatherRecords(const Dataset& data, std::span<const PointId> rows,
                   const std::vector<PointId>* row_ids,
                   std::vector<PointId>* out_ids,
                   std::vector<float>* out_coords) {
  const size_t dims = data.dims();
  out_ids->resize(rows.size());
  out_coords->resize(rows.size() * dims);
  for (size_t i = 0; i < rows.size(); ++i) {
    (*out_ids)[i] = row_ids != nullptr ? (*row_ids)[rows[i]] : rows[i];
    const float* row = data.row(rows[i]);
    std::copy(row, row + dims, out_coords->data() + i * dims);
  }
}

size_t LevelIndex(unsigned g) {
  size_t index = 0;
  for (unsigned level : kQuantLevels) {
    if (level == g) return index;
    ++index;
  }
  return 0;
}

}  // namespace

Status IqTree::WriteEntryPages(DiskHead& head, DirEntry* entry,
                               const std::vector<PointId>& ids,
                               const std::vector<float>& coords,
                               bool append_qpage) {
  const size_t dims = meta_.dims;
  const uint32_t block_size = disk_->params().block_size;
  QuantPageCodec codec(dims, block_size);
  std::vector<uint8_t> page(block_size);
  entry->count = static_cast<uint32_t>(ids.size());
  if (entry->quant_bits >= kExactBits) {
    IQ_RETURN_NOT_OK(codec.EncodeExact(ids, coords, page.data()));
    entry->exact = Extent{};  // no third-level page for exact entries
  } else {
    GridQuantizer quantizer(entry->mbr, entry->quant_bits);
    std::vector<uint32_t> cells;
    cells.reserve(ids.size() * dims);
    std::vector<uint32_t> point_cells;
    for (size_t i = 0; i < ids.size(); ++i) {
      quantizer.Encode(PointView(coords.data() + i * dims, dims),
                       point_cells);
      cells.insert(cells.end(), point_cells.begin(), point_cells.end());
    }
    IQ_RETURN_NOT_OK(codec.EncodeCells(entry->quant_bits, cells, page.data()));
    ExactPageCodec exact_codec(dims);
    std::vector<uint8_t> exact_page;
    exact_codec.Encode(ids, coords, &exact_page);
    IQ_ASSIGN_OR_RETURN(entry->exact,
                        exact_->Append(head, exact_page.data(),
                                       exact_page.size()));
  }
  if (append_qpage) {
    IQ_ASSIGN_OR_RETURN(uint64_t block,
                        qpages_->AppendBlock(head, page.data()));
    entry->qpage_block = static_cast<uint32_t>(block);
  } else {
    IQ_RETURN_NOT_OK(
        qpages_->WriteBlock(head, entry->qpage_block, page.data()));
  }
  return Status::OK();
}

Result<std::unique_ptr<IqTree>> IqTree::Build(const Dataset& data,
                                              Storage& storage,
                                              const std::string& name,
                                              DiskModel& disk,
                                              const Options& options) {
  if (data.dims() == 0) {
    return Status::InvalidArgument("cannot build over a 0-dimensional set");
  }
  const uint32_t block_size = disk.params().block_size;
  if (QuantPageCapacity(data.dims(), kExactBits, block_size) == 0) {
    return Status::InvalidArgument(
        "block size too small for one exact point at this dimensionality");
  }

  auto tree = std::unique_ptr<IqTree>(new IqTree());
  tree->disk_ = &disk;
  tree->dir_file_id_ = disk.RegisterFile();
  tree->meta_.dims = static_cast<uint32_t>(data.dims());
  tree->meta_.total_points = data.size();
  tree->meta_.block_size = block_size;
  tree->meta_.metric = static_cast<uint32_t>(options.metric);
  tree->meta_.quantized = options.quantize ? 1 : 0;
  tree->meta_.knn_k = std::max(1u, options.optimize_for_k);

  double fractal = options.fractal_dimension;
  if (fractal <= 0 && data.size() >= 2) {
    FractalOptions fopt;
    fopt.seed = options.seed;
    fractal = EstimateCorrelationDimension(data.data(), data.size(),
                                           data.dims(), fopt)
                  .dimension;
  }
  if (fractal <= 0) fractal = static_cast<double>(data.dims());
  tree->meta_.fractal_dimension =
      std::min(fractal, static_cast<double>(data.dims()));

  tree->qpages_ = std::make_unique<BlockFile>();
  IQ_RETURN_NOT_OK(tree->qpages_->Open(storage, QpgFileName(name), disk,
                                       /*create=*/true));
  tree->exact_ = std::make_unique<ExtentFile>();
  IQ_RETURN_NOT_OK(tree->exact_->Open(storage, DatFileName(name), disk,
                                      /*create=*/true));
  IQ_ASSIGN_OR_RETURN(tree->dir_file_, storage.Create(DirFileName(name)));
  tree->storage_ = &storage;
  tree->name_ = name;

  DiskHead head;
  IQ_RETURN_NOT_OK(tree->PopulateFromDataset(head, data, nullptr, options));
  tree->dir_geom_ = tree->MakeDirGeometry();

  tree->dirty_ = true;
  IQ_RETURN_NOT_OK(tree->Flush());
  IQ_RETURN_NOT_OK(tree->DebugCheckInvariants());
  return tree;
}

Status IqTree::PopulateFromDataset(DiskHead& head, const Dataset& data,
                                   const std::vector<PointId>* row_ids,
                                   const Options& options) {
  const uint32_t block_size = disk_->params().block_size;
  std::vector<PointId> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);

  dir_.clear();
  build_stats_ = BuildStats{};

  std::vector<SolutionPage> pages;
  if (data.size() > 0) {
    if (options.quantize && options.fixed_quant_bits > 0) {
      if (!IsQuantLevel(options.fixed_quant_bits)) {
        return Status::InvalidArgument("fixed_quant_bits must be one of "
                                       "1, 2, 4, 8, 16, 32");
      }
      const uint32_t capacity =
          QuantPageCapacity(data.dims(), options.fixed_quant_bits,
                            block_size);
      for (const Partition& partition :
           PartitionDataset(data, ids, capacity)) {
        pages.push_back(SolutionPage{partition.begin, partition.end,
                                     partition.mbr,
                                     options.fixed_quant_bits});
      }
      build_stats_.initial_partitions = pages.size();
    } else if (options.quantize) {
      // §3.3: partition until every page fits a 1-bit representation,
      // then §3.5: optimize the quantization per partition.
      const uint32_t capacity_1bit =
          QuantPageCapacity(data.dims(), 1, block_size);
      const std::vector<Partition> initial =
          PartitionDataset(data, ids, capacity_1bit);
      const CostModel model = MakeCostModel();
      OptimizerResult optimized = OptimizeQuantization(
          data, ids, initial, model, block_size);
      build_stats_.initial_partitions = initial.size();
      build_stats_.splits_explored = optimized.splits_explored;
      build_stats_.splits_kept = optimized.splits_kept;
      build_stats_.expected_query_cost_s = optimized.expected_cost;
      pages = std::move(optimized.pages);
    } else {
      // Reduced variant: exact pages only.
      const uint32_t capacity_exact =
          QuantPageCapacity(data.dims(), kExactBits, block_size);
      for (const Partition& partition :
           PartitionDataset(data, ids, capacity_exact)) {
        pages.push_back(SolutionPage{partition.begin, partition.end,
                                     partition.mbr, kExactBits});
      }
      build_stats_.initial_partitions = pages.size();
    }
  }

  build_stats_.num_pages = pages.size();
  build_stats_.fractal_dimension = meta_.fractal_dimension;

  dir_.reserve(pages.size());
  std::vector<PointId> page_ids;
  std::vector<float> page_coords;
  for (const SolutionPage& page : pages) {
    DirEntry entry;
    entry.mbr = page.mbr;
    entry.quant_bits = page.quant_bits;
    build_stats_.pages_per_level[LevelIndex(page.quant_bits)]++;
    GatherRecords(data,
                  std::span<const PointId>(ids.data() + page.begin,
                                           page.end - page.begin),
                  row_ids, &page_ids, &page_coords);
    IQ_RETURN_NOT_OK(WriteEntryPages(head, &entry, page_ids, page_coords,
                                     /*append_qpage=*/true));
    dir_.push_back(std::move(entry));
  }
  return Status::OK();
}

}  // namespace iq
