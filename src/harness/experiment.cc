#include "harness/experiment.h"

#include <limits>

#include "io/storage.h"
#include "scan/seq_scan.h"
#include "vafile/va_file.h"
#include "xtree/x_tree.h"

namespace iq {

namespace {

MethodStats Summarize(const IoStats& io, size_t queries, uint64_t size) {
  MethodStats stats;
  const double n = queries > 0 ? static_cast<double>(queries) : 1.0;
  stats.avg_query_time_s = io.io_time_s / n;
  stats.seeks_per_query = static_cast<double>(io.seeks) / n;
  stats.blocks_per_query = static_cast<double>(io.blocks_read) / n;
  stats.structure_size = size;
  return stats;
}

}  // namespace

Result<MethodStats> Experiment::RunIqTree(bool quantize,
                                          bool optimized_access,
                                          unsigned fixed_quant_bits,
                                          double fractal_dimension) const {
  MemoryStorage storage;
  DiskModel disk(disk_);
  IqTree::Options options;
  options.metric = metric_;
  options.quantize = quantize;
  options.fixed_quant_bits = fixed_quant_bits;
  options.fractal_dimension = fractal_dimension;
  IQ_ASSIGN_OR_RETURN(auto tree, IqTree::Build(data_, storage, "iq", disk,
                                               options));
  disk.ResetStats();
  disk.InvalidateHead();
  IqSearchOptions search;
  search.optimized_access = optimized_access;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (k_ == 1) {
      IQ_RETURN_NOT_OK(tree->NearestNeighbor(queries_[i], search).status());
    } else {
      IQ_RETURN_NOT_OK(
          tree->KNearestNeighbors(queries_[i], k_, search).status());
    }
    disk.InvalidateHead();
  }
  return Summarize(disk.stats(), queries_.size(), tree->num_pages());
}

Result<MethodStats> Experiment::RunXTree() const {
  MemoryStorage storage;
  DiskModel disk(disk_);
  XTree::Options options;
  options.metric = metric_;
  IQ_ASSIGN_OR_RETURN(auto tree, XTree::Build(data_, storage, "x", disk,
                                              options));
  disk.ResetStats();
  disk.InvalidateHead();
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (k_ == 1) {
      IQ_RETURN_NOT_OK(tree->NearestNeighbor(queries_[i]).status());
    } else {
      IQ_RETURN_NOT_OK(tree->KNearestNeighbors(queries_[i], k_).status());
    }
    disk.InvalidateHead();
  }
  return Summarize(disk.stats(), queries_.size(),
                   tree->ComputeStats().num_data_pages);
}

Result<MethodStats> Experiment::RunVaFile(unsigned bits_per_dim) const {
  MemoryStorage storage;
  DiskModel disk(disk_);
  VaFile::Options options;
  options.metric = metric_;
  options.bits_per_dim = bits_per_dim;
  IQ_ASSIGN_OR_RETURN(auto va, VaFile::Build(data_, storage, "va", disk,
                                             options));
  disk.ResetStats();
  disk.InvalidateHead();
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (k_ == 1) {
      IQ_RETURN_NOT_OK(va->NearestNeighbor(queries_[i]).status());
    } else {
      IQ_RETURN_NOT_OK(va->KNearestNeighbors(queries_[i], k_).status());
    }
    disk.InvalidateHead();
  }
  return Summarize(disk.stats(), queries_.size(), va->size());
}

Result<MethodStats> Experiment::RunVaFileBestBits(unsigned min_bits,
                                                  unsigned max_bits,
                                                  unsigned* best_bits) const {
  MethodStats best;
  best.avg_query_time_s = std::numeric_limits<double>::infinity();
  unsigned best_setting = min_bits;
  for (unsigned bits = min_bits; bits <= max_bits; ++bits) {
    IQ_ASSIGN_OR_RETURN(MethodStats stats, RunVaFile(bits));
    if (stats.avg_query_time_s < best.avg_query_time_s) {
      best = stats;
      best_setting = bits;
    }
  }
  if (best_bits != nullptr) *best_bits = best_setting;
  return best;
}

Result<MethodStats> Experiment::RunSeqScan() const {
  MemoryStorage storage;
  DiskModel disk(disk_);
  SeqScan::Options options;
  options.metric = metric_;
  IQ_ASSIGN_OR_RETURN(auto scan, SeqScan::Build(data_, storage, "scan", disk,
                                                options));
  disk.ResetStats();
  disk.InvalidateHead();
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (k_ == 1) {
      IQ_RETURN_NOT_OK(scan->NearestNeighbor(queries_[i]).status());
    } else {
      IQ_RETURN_NOT_OK(scan->KNearestNeighbors(queries_[i], k_).status());
    }
    disk.InvalidateHead();
  }
  return Summarize(disk.stats(), queries_.size(), scan->size());
}

}  // namespace iq
