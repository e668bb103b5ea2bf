#ifndef IQ_HARNESS_EXPERIMENT_H_
#define IQ_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/iq_tree.h"
#include "data/dataset.h"
#include "io/disk_model.h"

namespace iq {

/// Per-technique measurement of one experiment configuration.
struct MethodStats {
  /// Average simulated query time, seconds — the paper's y-axis.
  double avg_query_time_s = 0.0;
  /// Average random seeks / blocks transferred per query.
  double seeks_per_query = 0.0;
  double blocks_per_query = 0.0;
  /// Number of second-level pages (IQ-tree), data pages (X-tree) or
  /// total points (VA-file, scan) — a size diagnostic.
  uint64_t structure_size = 0;
};

/// Runs the paper's measurement protocol over one (database, query set)
/// pair: build the structure (unmeasured), then report the average
/// simulated nearest-neighbor time over all query points (§4: "the
/// performance of each technique was measured by the average total time
/// over all these query points").
class Experiment {
 public:
  Experiment(const Dataset& data, const Dataset& queries,
             DiskParameters disk, Metric metric = Metric::kL2)
      : data_(data), queries_(queries), disk_(disk), metric_(metric) {}

  /// k of the k-NN queries (the paper uses k = 1).
  void set_k(size_t k) { k_ = k; }

  /// The IQ-tree with its two concept switches (Fig. 7's four variants:
  /// quantize x optimized_access).
  Result<MethodStats> RunIqTree(bool quantize = true,
                                bool optimized_access = true,
                                unsigned fixed_quant_bits = 0,
                                double fractal_dimension = 0.0) const;

  Result<MethodStats> RunXTree() const;

  /// VA-file at a specific bits-per-dimension setting.
  Result<MethodStats> RunVaFile(unsigned bits_per_dim) const;

  /// The paper's protocol for the VA-file: try every setting in
  /// [min_bits, max_bits] and report the best (the VA-file must be
  /// hand-tuned; the IQ-tree adapts automatically). If `best_bits` is
  /// non-null it receives the winning setting.
  Result<MethodStats> RunVaFileBestBits(unsigned min_bits = 2,
                                        unsigned max_bits = 8,
                                        unsigned* best_bits = nullptr) const;

  Result<MethodStats> RunSeqScan() const;

 private:
  const Dataset& data_;
  const Dataset& queries_;
  DiskParameters disk_;
  Metric metric_;
  size_t k_ = 1;
};

}  // namespace iq

#endif  // IQ_HARNESS_EXPERIMENT_H_
