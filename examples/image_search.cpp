// Content-based image retrieval, the paper's COLOR motivation: color
// histograms are high-dimensional, only slightly clustered vectors —
// exactly where classic trees collapse to a slow scan. This example
// builds an IQ-tree and a VA-file over synthetic 16-bin histograms,
// runs "find the 10 most similar images" queries, and compares the
// simulated I/O cost.

#include <cstdio>

#include "core/iq_tree.h"
#include "data/generators.h"
#include "io/storage.h"
#include "vafile/va_file.h"

int main() {
  using namespace iq;
  const size_t kImages = 40000;
  const size_t kBins = 16;

  Dataset histograms = GenerateColorLike(kImages + 3, kBins, 7);
  const Dataset query_images = histograms.TakeTail(3);

  MemoryStorage storage;
  DiskModel disk;

  auto tree = IqTree::Build(histograms, storage, "images", disk, {});
  VaFile::Options va_options;
  va_options.bits_per_dim = 6;
  auto va = VaFile::Build(histograms, storage, "images_va", disk,
                          va_options);
  if (!tree.ok() || !va.ok()) {
    std::fprintf(stderr, "build failed\n");
    return 1;
  }
  std::printf("indexed %zu histograms (%zu bins); IQ-tree has %zu pages, "
              "D_F=%.2f\n\n",
              kImages, kBins, (*tree)->num_pages(),
              (*tree)->fractal_dimension());

  for (size_t qi = 0; qi < query_images.size(); ++qi) {
    disk.ResetStats();
    auto iq_results = (*tree)->KNearestNeighbors(query_images[qi], 10);
    const double iq_time = disk.stats().io_time_s;

    disk.ResetStats();
    auto va_results = (*va)->KNearestNeighbors(query_images[qi], 10);
    const double va_time = disk.stats().io_time_s;

    if (!iq_results.ok() || !va_results.ok()) {
      std::fprintf(stderr, "query failed\n");
      return 1;
    }
    std::printf("query image %zu:\n", qi);
    std::printf("  best matches (id, distance):");
    for (size_t i = 0; i < 3; ++i) {
      std::printf(" (%u, %.4f)", (*iq_results)[i].id,
                  (*iq_results)[i].distance);
    }
    std::printf("\n  IQ-tree: %.4f s   VA-file: %.4f s   (both exact; "
                "answers agree: %s)\n",
                iq_time, va_time,
                (*iq_results)[0].distance == (*va_results)[0].distance
                    ? "yes"
                    : "no");
  }
  return 0;
}
