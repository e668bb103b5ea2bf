// Ablation A5: the k-NN optimization target (§3.4 footnote). An index
// tuned for k = 1 quantizes coarser than the k = 20 workload wants;
// telling the cost model the real k buys back query time. Results stay
// exact either way.

#include "bench_common.h"
#include "data/generators.h"

int main(int argc, char** argv) {
  using namespace iq;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const size_t n = args.Scale(200000, 30000);

  struct NamedWorkload {
    const char* name;
    size_t dims;
    Dataset data;
  };
  NamedWorkload workloads[] = {
      {"CAD-16d", 16, GenerateCadLike(n + args.queries, 16, args.seed)},
      {"WEATHER-9d", 9, GenerateWeatherLike(n + args.queries, 9, args.seed)},
  };

  std::printf("Ablation: k-NN optimization target (%zu points, "
              "k = 20 query workload)\n\n", n);
  Table table({"workload", "tuned for k=1", "tuned for k=20",
               "tuned for k=100"});
  bench::JsonReport report("abl_knn");
  double workload_index = 0;
  for (NamedWorkload& workload : workloads) {
    const Dataset queries = workload.data.TakeTail(args.queries);
    Experiment experiment(workload.data, queries, args.disk);
    experiment.set_k(20);
    std::vector<std::string> row{workload.name};
    for (unsigned target : {1u, 20u, 100u}) {
      MemoryStorage storage;
      DiskModel disk(args.disk);
      IqTree::Options options;
      options.optimize_for_k = target;
      auto tree = IqTree::Build(workload.data, storage, "iq", disk, options);
      if (!tree.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     tree.status().ToString().c_str());
        return 1;
      }
      disk.ResetStats();
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        if (!(*tree)->KNearestNeighbors(queries[qi], 20).ok()) return 1;
      }
      const double avg =
          disk.stats().io_time_s / static_cast<double>(queries.size());
      report.Add("tuned_k" + std::to_string(target), workload_index, avg);
      row.push_back(Table::Num(avg));
    }
    workload_index += 1;
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  report.Print();
  std::printf(
      "\nExpected: the k=20 column is the cheapest (or ties); tuning for\n"
      "k far above the workload over-splits without payoff.\n");
  return 0;
}
