// iqtool — command-line driver for the IQ-tree library.
//
// Indexes live as real files in a directory (FileStorage); datasets are
// the binary format of data/dataset_io.h. All query costs are printed
// in simulated disk seconds (see io/disk_model.h).
//
// Run without arguments, it prints the commands and their options
// (Usage() below). `profile` runs the queries with a QueryTracer
// attached and prints the recorded span tree (or a JSON trace dump
// with --json) plus the cost-model calibration report (predicted vs observed T_1st/T_2nd/
// T_3rd); `slowlog` runs a query batch on a ThreadPool, each query
// with its own tracer and all with one slow-query log attached, and
// dumps the retained outliers with their span trees; `health`
// summarizes the index structure (per-page g distribution, occupancy,
// MBR stats). See docs/observability.md for the span schema and report
// formats. `trace` replays queries against a sharded layout through a
// QueryFrontEnd with the stitched span tree attached (frontend →
// wave<i> → shard<i> → per-shard IQ-tree subtree) and exits non-zero
// when the trace disagrees with the aggregated ShardQueryStats.
// `shard build` loads a dataset into a multi-shard layout (manifest +
// one bulk-built IQ-tree per shard, src/shard/); `shard stats` and
// `shard health` report per-shard and aggregated figures —
// `stats --manifest M` / `health --manifest M` are shorthands for the
// shard forms, so monitoring can point one command at either layout.
// Every command rejects, with `error: ...` and exit code 2, an option
// that its line of Usage() does not list and a value that does not
// parse.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/index_health.h"
#include "concurrency/thread_pool.h"
#include "core/iq_tree.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "io/storage.h"
#include "obs/calibration.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "shard/query_front_end.h"
#include "shard/shard_manifest.h"
#include "shard/sharded_bulk_loader.h"
#include "shard/sharded_searcher.h"

namespace iq {
namespace {

// The value of an option that CheckArgs accepted, or `fallback` when
// the option was not given.
uint64_t ParseCount(const std::string& text, uint64_t fallback) {
  return text.empty() ? fallback : std::strtoull(text.c_str(), nullptr, 10);
}

double ParseNumber(const std::string& text, double fallback) {
  return text.empty() ? fallback : std::strtod(text.c_str(), nullptr);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;
  /// Tokens that are neither an option nor an option's value.
  std::vector<std::string> stray;

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  bool Has(const std::string& flag) const {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  }
};

/// `--name value` is an option unless the next token is itself an
/// option, so a value may start with a single '-' (a negative
/// coordinate); `--name` alone is a flag.
Args Parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.stray.push_back(token);
      continue;
    }
    token = token.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[token] = argv[++i];
    } else {
      args.flags.push_back(token);
    }
  }
  return args;
}

/// One command: what it runs and the options its line of Usage()
/// lists, by what their values must parse as.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string> text, count, number, flag;
};

/// The accepted words of the text options that take one of a set.
const std::map<std::string, std::string> kChoices = {
    {"metric", "l2|lmax"},
    {"plan", "roundrobin|rank"},
    {"workload", "uniform|cad|color|weather"}};

int ArgError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

/// Rejects an argument that `command` does not list and a value that
/// does not parse as its option's kind: prints `error: ...` naming the
/// option and returns 2. Returns 0 when every argument is valid.
int CheckArgs(const Args& args, const Command& command) {
  auto listed = [](const std::vector<std::string>& names,
                   const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  if (!args.stray.empty()) {
    return ArgError("unexpected argument '" + args.stray.front() + "'");
  }
  for (const std::string& flag : args.flags) {
    if (listed(command.flag, flag)) continue;
    return ArgError(listed(command.text, flag) || listed(command.count, flag) ||
                            listed(command.number, flag)
                        ? "option --" + flag + " needs a value"
                        : "unknown option --" + flag);
  }
  for (const auto& [name, value] : args.options) {
    const std::string got = " for --" + name + ", got '" + value + "'";
    char* end = nullptr;
    if (listed(command.count, name)) {
      errno = 0;
      std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value.find_first_not_of("0123456789") !=
                               std::string::npos || errno == ERANGE) {
        return ArgError("expected a count" + got);
      }
    } else if (listed(command.number, name)) {
      const double number = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !std::isfinite(number)) {
        return ArgError("expected a number" + got);
      }
    } else if (listed(command.text, name)) {
      const auto choices = kChoices.find(name);
      if (choices != kChoices.end() &&
          ("|" + choices->second + "|").find("|" + value + "|") ==
              std::string::npos) {
        return ArgError("expected one of " + choices->second + got);
      }
    } else {
      return ArgError(listed(command.flag, name)
                          ? "option --" + name + " takes no value" + got
                          : "unknown option --" + name);
    }
  }
  return 0;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: iqtool "
      "<generate|build|query|stats|health|profile|slowlog|trace|"
      "validate|reopt|shard> ...\n"
      "  generate --out DIR/NAME --workload uniform|cad|color|weather\n"
      "           --n N --dims D [--seed S]\n"
      "  build    --dir DIR --dataset NAME --index NAME [--metric l2|lmax]\n"
      "           [--no-quantize] [--fixed-bits G] [--k K]\n"
      "  query    --dir DIR --index NAME --point x,y,... [--k K] [--radius R]\n"
      "  stats    --dir DIR (--index NAME | --manifest NAME) [--metrics]\n"
      "           [--json]\n"
      "  health   --dir DIR (--index NAME | --manifest NAME) [--json]\n"
      "  profile  --dir DIR --index NAME (--point x,y,... |\n"
      "           --queries DSNAME [--limit N]) [--k K] [--radius R]\n"
      "           [--threads T] [--json]\n"
      "  slowlog  --dir DIR --index NAME --queries DSNAME [--limit N]\n"
      "           [--k K] [--radius R] [--threads T] [--capacity C]\n"
      "           [--threshold S] [--quantile Q] [--json]\n"
      "  trace    --dir DIR --manifest NAME (--point x,y,... |\n"
      "           --queries DSNAME [--limit N]) [--k K] [--radius R]\n"
      "           [--threads T] [--max-in-flight N] [--max-queued N]\n"
      "           [--deadline S] [--json]\n"
      "  validate --dir DIR --index NAME\n"
      "  reopt    --dir DIR --index NAME\n"
      "  shard build  --dir DIR --dataset NAME --manifest NAME [--shards N]\n"
      "               [--plan roundrobin|rank] [--plan-dim D]\n"
      "               [--metric l2|lmax]\n"
      "  shard stats  --dir DIR --manifest NAME [--metrics] [--json]\n"
      "  shard health --dir DIR --manifest NAME [--json]\n");
  return 2;
}

int Generate(const Args& args) {
  const std::string out = args.Get("out");
  const std::string workload = args.Get("workload", "uniform");
  const size_t n = ParseCount(args.Get("n"), 10000);
  const size_t dims = ParseCount(args.Get("dims"), 16);
  const uint64_t seed = ParseCount(args.Get("seed"), 42);
  if (out.empty()) return Usage();
  const size_t slash = out.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : out.substr(0, slash);
  const std::string name =
      slash == std::string::npos ? out : out.substr(slash + 1);
  Dataset data(dims);
  if (workload == "uniform") {
    data = GenerateUniform(n, dims, seed);
  } else if (workload == "cad") {
    data = GenerateCadLike(n, dims, seed);
  } else if (workload == "color") {
    data = GenerateColorLike(n, dims, seed);
  } else {
    data = GenerateWeatherLike(n, dims, seed);
  }
  FileStorage storage(dir);
  if (Status s = WriteDataset(storage, name, data); !s.ok()) return Fail(s);
  std::printf("wrote %zu x %zu '%s' dataset to %s/%s\n", n, dims,
              workload.c_str(), dir.c_str(), name.c_str());
  return 0;
}

int Build(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string dataset = args.Get("dataset");
  const std::string index = args.Get("index");
  if (dataset.empty() || index.empty()) return Usage();
  FileStorage storage(dir);
  auto data = ReadDataset(storage, dataset);
  if (!data.ok()) return Fail(data.status());
  DiskModel disk;
  IqTree::Options options;
  options.metric =
      args.Get("metric", "l2") == "lmax" ? Metric::kLMax : Metric::kL2;
  options.quantize = !args.Has("no-quantize");
  options.fixed_quant_bits =
      static_cast<unsigned>(ParseCount(args.Get("fixed-bits"), 0));
  options.optimize_for_k =
      static_cast<unsigned>(ParseCount(args.Get("k"), 1));
  auto tree = IqTree::Build(*data, storage, index, disk, options);
  if (!tree.ok()) return Fail(tree.status());
  const auto& stats = (*tree)->build_stats();
  std::printf("built '%s': %zu pages over %llu points (D_F=%.2f)\n",
              index.c_str(), stats.num_pages,
              static_cast<unsigned long long>((*tree)->size()),
              stats.fractal_dimension);
  std::printf("pages per level (g=1,2,4,8,16,32):");
  for (size_t count : stats.pages_per_level) std::printf(" %zu", count);
  std::printf("\nmodel-predicted query cost: %.4f s\n",
              stats.expected_query_cost_s);
  return 0;
}

Result<Point> ParsePoint(const std::string& text) {
  Point p;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const float value = std::strtof(item.c_str(), &end);
    if (end == nullptr || *end != '\0' || item.empty()) {
      return Status::InvalidArgument("bad coordinate '" + item + "'");
    }
    p.push_back(value);
  }
  if (p.empty()) return Status::InvalidArgument("empty point");
  return p;
}

int Query(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string index = args.Get("index");
  const std::string point = args.Get("point");
  if (index.empty() || point.empty()) return Usage();
  FileStorage storage(dir);
  DiskModel disk;
  auto tree = IqTree::Open(storage, index, disk);
  if (!tree.ok()) return Fail(tree.status());
  auto q = ParsePoint(point);
  if (!q.ok()) return Fail(q.status());
  if (q->size() != (*tree)->dims()) {
    std::fprintf(stderr, "point has %zu dims, index has %zu\n", q->size(),
                 (*tree)->dims());
    return 2;
  }
  IqTree::QueryStats stats;
  IqSearchOptions options;
  options.stats = &stats;
  if (!args.Get("radius").empty()) {
    const double radius = ParseNumber(args.Get("radius"), 0.0);
    auto hits = (*tree)->RangeSearch(*q, radius, options);
    if (!hits.ok()) return Fail(hits.status());
    std::printf("%zu points within %.4f (%.4f simulated s):\n",
                hits->size(), radius, stats.io.io_time_s);
    for (const Neighbor& r : *hits) {
      std::printf("  id=%u dist=%.6f\n", r.id, r.distance);
    }
    return 0;
  }
  const size_t k = ParseCount(args.Get("k"), 1);
  auto hits = (*tree)->KNearestNeighbors(*q, k, options);
  if (!hits.ok()) return Fail(hits.status());
  std::printf("%zu nearest neighbors (%.4f simulated s):\n", hits->size(),
              stats.io.io_time_s);
  for (const Neighbor& r : *hits) {
    std::printf("  id=%u dist=%.6f\n", r.id, r.distance);
  }
  return 0;
}

int ShardStats(const Args& args);
int ShardHealth(const Args& args);

int Stats(const Args& args) {
  // `stats --manifest M` reports a sharded layout instead of one tree.
  if (!args.Get("manifest").empty()) return ShardStats(args);
  const std::string dir = args.Get("dir", ".");
  const std::string index = args.Get("index");
  if (index.empty()) return Usage();
  FileStorage storage(dir);
  DiskModel disk;
  auto tree = IqTree::Open(storage, index, disk);
  if (!tree.ok()) return Fail(tree.status());
  if (args.Has("json")) {
    // One JSON document on one line: index structure plus a snapshot of
    // the process-wide metric registry (opening the index already
    // touched storage/disk metrics).
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Uint(1);
    w.Key("index").String(index);
    w.Key("points").Uint((*tree)->size());
    w.Key("dims").Uint((*tree)->dims());
    w.Key("pages").Uint((*tree)->num_pages());
    w.Key("fractal_dimension").Double((*tree)->fractal_dimension());
    w.Key("metrics").Raw(
        obs::ExportJson(obs::MetricRegistry::Global().Snapshot()));
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("index:        %s/%s.{dir,qpg,dat}\n", dir.c_str(),
              index.c_str());
  std::printf("points:       %llu\n",
              static_cast<unsigned long long>((*tree)->size()));
  std::printf("dims:         %zu\n", (*tree)->dims());
  std::printf("metric:       %s\n",
              (*tree)->metric() == Metric::kL2 ? "L2" : "L-max");
  std::printf("pages:        %zu\n", (*tree)->num_pages());
  std::printf("fractal dim:  %.3f\n", (*tree)->fractal_dimension());
  std::map<unsigned, size_t> levels;
  uint64_t quantized_points = 0;
  for (const DirEntry& entry : (*tree)->directory()) {
    levels[entry.quant_bits] += 1;
    if (entry.quant_bits < kExactBits) quantized_points += entry.count;
  }
  std::printf("levels:      ");
  for (const auto& [g, count] : levels) {
    std::printf(" g=%u:%zu", g, count);
  }
  std::printf("\ncompressed:   %.1f%% of points\n",
              (*tree)->size() > 0
                  ? 100.0 * static_cast<double>(quantized_points) /
                        static_cast<double>((*tree)->size())
                  : 0.0);
  if (args.Has("metrics")) {
    std::printf("\n%s", obs::ExportPrometheus(
                            obs::MetricRegistry::Global().Snapshot())
                            .c_str());
  }
  return 0;
}

int Health(const Args& args) {
  // `health --manifest M` reports a sharded layout instead of one tree.
  if (!args.Get("manifest").empty()) return ShardHealth(args);
  const std::string dir = args.Get("dir", ".");
  const std::string index = args.Get("index");
  if (index.empty()) return Usage();
  FileStorage storage(dir);
  DiskModel disk;
  auto tree = IqTree::Open(storage, index, disk);
  if (!tree.ok()) return Fail(tree.status());
  const IndexHealth health =
      ComputeIndexHealth((*tree)->meta(), (*tree)->directory());
  if (args.Has("json")) {
    std::printf("%s\n", IndexHealthToJson(health).c_str());
    return 0;
  }
  std::printf("index:              %s/%s\n", dir.c_str(), index.c_str());
  std::printf("points / pages:     %llu / %llu\n",
              static_cast<unsigned long long>(health.total_points),
              static_cast<unsigned long long>(health.num_pages));
  std::printf("pages per level:   ");
  for (size_t i = 0; i < std::size(kQuantLevels); ++i) {
    std::printf(" g=%u:%llu", kQuantLevels[i],
                static_cast<unsigned long long>(health.pages_per_level[i]));
  }
  std::printf("\npage occupancy:     mean=%.3f min=%.3f max=%.3f\n",
              health.occupancy_mean, health.occupancy_min,
              health.occupancy_max);
  std::printf("MBR volume:         mean=%.3e max=%.3e\n",
              health.mbr_volume_mean, health.mbr_volume_max);
  std::printf(
      "MBR overlap:        mean=%.3e over %llu pairs (%.1f%% overlapping)\n",
      health.mbr_overlap_mean,
      static_cast<unsigned long long>(health.mbr_overlap_pairs),
      100.0 * health.mbr_overlap_fraction);
  std::printf("level-3 indirection: %.1f%% of pages (%llu exact bytes)\n",
              100.0 * health.level3_indirection_ratio,
              static_cast<unsigned long long>(health.exact_bytes));
  return 0;
}

/// Checks the recorded span tree against the query's QueryStats: the
/// trace and the counters are produced independently, so agreement is
/// strong evidence both are right (the acceptance check behind
/// `iqtool profile`). Returns true when consistent; appends a
/// `counter trace=X stats=Y` description per mismatch otherwise.
bool CheckTraceConsistency(const std::vector<obs::SpanRecord>& spans,
                           const IqTree::QueryStats& stats,
                           std::string* problems) {
  const auto check = [&](const char* what, double from_trace,
                         double from_stats) {
    if (from_trace == from_stats) return true;
    *problems += std::string(" ") + what +
                 " trace=" + std::to_string(from_trace) +
                 " stats=" + std::to_string(from_stats);
    return false;
  };
  bool ok = true;
  ok &= check("pages_decoded", obs::AggregateSpans(spans, "page", nullptr),
              static_cast<double>(stats.pages_decoded));
  ok &= check("batches", obs::AggregateSpans(spans, "batch", nullptr),
              static_cast<double>(stats.batches));
  ok &= check("blocks_transferred",
              obs::AggregateSpans(spans, "batch", "blocks"),
              static_cast<double>(stats.blocks_transferred));
  ok &= check("refinements",
              obs::AggregateSpans(spans, "refine", nullptr) +
                  obs::AggregateSpans(spans, "exact_page", "refinements"),
              static_cast<double>(stats.refinements));
  ok &= check("cells_enqueued",
              obs::AggregateSpans(spans, "page", "cells_enqueued"),
              static_cast<double>(stats.cells_enqueued));
  return ok;
}

/// Human form of the calibration report. rel = (observed-predicted)/
/// predicted, so bias "under" means the model under-predicts the
/// observed cost.
void PrintCalibration(const obs::CalibrationReport& report) {
  std::printf("cost-model calibration (%llu queries):\n",
              static_cast<unsigned long long>(report.total.samples));
  std::printf("  %-6s %13s %13s %9s %9s %9s %s\n", "comp", "pred_mean_s",
              "obs_mean_s", "mean_rel", "p50|rel|", "p95|rel|", "bias");
  for (const obs::ComponentCalibration* c :
       {&report.t1, &report.t2, &report.t3, &report.total}) {
    std::printf("  %-6s %13.6f %13.6f %+9.3f %9.3f %9.3f %s\n",
                c->name.c_str(), c->predicted_mean, c->observed_mean,
                c->mean_rel_error, c->p50_abs_rel_error,
                c->p95_abs_rel_error,
                c->bias > 0 ? "under" : (c->bias < 0 ? "over" : "ok"));
  }
}

void WriteStatsJson(obs::JsonWriter& w, const IqTree::QueryStats& stats) {
  w.BeginObject();
  w.Key("pages_decoded").Uint(stats.pages_decoded);
  w.Key("blocks_transferred").Uint(stats.blocks_transferred);
  w.Key("batches").Uint(stats.batches);
  w.Key("refinements").Uint(stats.refinements);
  w.Key("cells_enqueued").Uint(stats.cells_enqueued);
  w.Key("seeks").Uint(stats.io.seeks);
  w.Key("io_s").Double(stats.io.io_time_s);
  w.EndObject();
}

int Profile(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string index = args.Get("index");
  if (index.empty()) return Usage();
  FileStorage storage(dir);
  DiskModel disk;
  auto tree = IqTree::Open(storage, index, disk);
  if (!tree.ok()) return Fail(tree.status());

  // Query set: one --point, or the first --limit rows of a dataset.
  Dataset queries((*tree)->dims());
  if (!args.Get("point").empty()) {
    auto q = ParsePoint(args.Get("point"));
    if (!q.ok()) return Fail(q.status());
    if (q->size() != (*tree)->dims()) {
      std::fprintf(stderr, "point has %zu dims, index has %zu\n", q->size(),
                   (*tree)->dims());
      return 2;
    }
    queries.Append(PointView(q->data(), q->size()));
  } else if (!args.Get("queries").empty()) {
    auto data = ReadDataset(storage, args.Get("queries"));
    if (!data.ok()) return Fail(data.status());
    if (data->dims() != (*tree)->dims()) {
      std::fprintf(stderr, "dataset has %zu dims, index has %zu\n",
                   data->dims(), (*tree)->dims());
      return 2;
    }
    const size_t limit = ParseCount(args.Get("limit"), 8);
    for (size_t i = 0; i < data->size() && i < limit; ++i) {
      queries.Append((*data)[i]);
    }
  } else {
    return Usage();
  }

  const bool json = args.Has("json");
  const bool range = !args.Get("radius").empty();
  const double radius = ParseNumber(args.Get("radius"), 0.0);
  const size_t k = ParseCount(args.Get("k"), 1);
  const size_t threads = ParseCount(args.Get("threads"), 1);

  obs::JsonWriter w;
  if (json) {
    w.BeginObject();
    w.Key("schema_version").Uint(1);
    w.Key("index").String(index);
    w.Key("mode").String(range ? "range" : "knn");
    w.Key(range ? "radius" : "k");
    if (range) {
      w.Double(radius);
    } else {
      w.Uint(k);
    }
    w.Key("queries").BeginArray();
  }

  // Calibration telemetry: the cost model's predicted breakdown is a
  // per-index constant; every query contributes its own observed
  // breakdown, IqQueryStats::observed (docs/observability.md,
  // "Calibration").
  obs::CalibrationTracker calibration;
  const obs::CostBreakdown predicted = (*tree)->PredictCost();

  // One tracer and one stats sink per query on a pool of `--threads`
  // workers: each query's trace, stats and calibration sample are its
  // own, so what it reports does not depend on the thread count. The
  // worker keeps only the span snapshot and releases its tracer.
  struct ProfiledQuery {
    std::vector<obs::SpanRecord> spans;
    uint64_t dropped = 0;
    IqTree::QueryStats stats;
    Status status;
  };
  ThreadPool pool(threads);
  std::vector<std::future<ProfiledQuery>> runs;
  runs.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    runs.push_back(pool.Submit([&, i] {
      ProfiledQuery run;
      obs::QueryTracer tracer;
      IqSearchOptions options;
      options.tracer = &tracer;
      options.stats = &run.stats;
      run.status =
          range ? (*tree)->RangeSearch(queries[i], radius, options).status()
                : (*tree)->KNearestNeighbors(queries[i], k, options).status();
      run.spans = tracer.Snapshot();
      run.dropped = tracer.dropped();
      return run;
    }));
  }

  // Reported in query order; each run is dropped once printed.
  bool all_consistent = true;
  uint64_t dropped = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const ProfiledQuery run = runs[i].get();
    if (!run.status.ok()) return Fail(run.status);
    const IqTree::QueryStats& stats = run.stats;
    const std::vector<obs::SpanRecord>& spans = run.spans;
    dropped += run.dropped;
    calibration.Record(predicted, stats.observed);
    // With observability compiled out the trace is empty by design —
    // nothing to cross-check.
    std::string problems;
    const bool consistent =
        !obs::kEnabled || CheckTraceConsistency(spans, stats, &problems);
    all_consistent &= consistent;
    if (json) {
      w.BeginObject();
      w.Key("trace").Raw(obs::TraceToJson(spans));
      w.Key("stats");
      WriteStatsJson(w, stats);
      w.Key("consistent").Bool(consistent);
      w.EndObject();
    } else {
      std::printf("query %zu:\n", i);
      obs::PrintSpanTree(spans, std::cout);
      std::printf(
          "  stats: pages_decoded=%zu blocks=%zu batches=%zu "
          "refinements=%zu cells_enqueued=%zu seeks=%llu io_s=%.6f\n",
          stats.pages_decoded, stats.blocks_transferred, stats.batches,
          stats.refinements, stats.cells_enqueued,
          static_cast<unsigned long long>(stats.io.seeks),
          stats.io.io_time_s);
      if (obs::kEnabled) {
        std::printf("  trace/stats consistency: %s%s\n",
                    consistent ? "OK" : "MISMATCH", problems.c_str());
      }
    }
  }

  const uint64_t calibrated = calibration.Report().total.samples;
  if (json) {
    w.EndArray();
    w.Key("dropped_spans").Uint(dropped);
    w.Key("calibrated_queries").Uint(calibrated);
    w.Key("calibration").Raw(obs::CalibrationToJson(calibration.Report()));
    w.Key("metrics").Raw(
        obs::ExportJson(obs::MetricRegistry::Global().Snapshot()));
    w.Key("consistent").Bool(all_consistent);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("dropped_spans=%llu, calibrated %llu of %zu queries\n",
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(calibrated), queries.size());
    if (obs::kEnabled) PrintCalibration(calibration.Report());
  }
  if (!all_consistent) {
    std::fprintf(stderr, "error: trace disagrees with query stats\n");
    return 1;
  }
  return 0;
}

int SlowLog(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string index = args.Get("index");
  const std::string queries_name = args.Get("queries");
  if (index.empty() || queries_name.empty()) return Usage();
  FileStorage storage(dir);
  DiskModel disk;
  auto tree = IqTree::Open(storage, index, disk);
  if (!tree.ok()) return Fail(tree.status());
  auto data = ReadDataset(storage, queries_name);
  if (!data.ok()) return Fail(data.status());
  if (data->dims() != (*tree)->dims()) {
    std::fprintf(stderr, "dataset has %zu dims, index has %zu\n",
                 data->dims(), (*tree)->dims());
    return 2;
  }
  const size_t limit = ParseCount(args.Get("limit"), 32);
  Dataset queries((*tree)->dims());
  for (size_t i = 0; i < data->size() && i < limit; ++i) {
    queries.Append((*data)[i]);
  }

  obs::SlowLogOptions log_options;
  log_options.capacity = ParseCount(args.Get("capacity"), 8);
  log_options.absolute_threshold_s = ParseNumber(args.Get("threshold"), 0.0);
  log_options.quantile = ParseNumber(args.Get("quantile"), 0.75);
  // A CLI batch is small; adapt from the first queries instead of the
  // library default's 64-query warm-up.
  log_options.min_samples = queries.size() / 4 + 1;
  obs::SlowQueryLog slow_log(log_options);

  const size_t threads = std::max<size_t>(1, ParseCount(args.Get("threads"), 2));
  const bool range = !args.Get("radius").empty();
  const double radius = ParseNumber(args.Get("radius"), 0.0);
  const size_t k = ParseCount(args.Get("k"), 1);
  // One tracer per query, so each retained record carries exactly its
  // own query's span tree.
  ThreadPool pool(threads);
  std::vector<std::future<Status>> statuses;
  statuses.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    statuses.push_back(pool.Submit([&, i] {
      obs::QueryTracer tracer;
      IqSearchOptions options;
      options.tracer = &tracer;
      options.slow_log = &slow_log;
      return range
                 ? (*tree)->RangeSearch(queries[i], radius, options).status()
                 : (*tree)->KNearestNeighbors(queries[i], k, options).status();
    }));
  }
  for (std::future<Status>& status : statuses) {
    const Status s = status.get();
    if (!s.ok()) return Fail(s);
  }

  const std::vector<obs::SlowQueryRecord> records = slow_log.Snapshot();
  if (args.Has("json")) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Uint(1);
    w.Key("index").String(index);
    w.Key("mode").String(range ? "range" : "knn");
    w.Key("queries").Uint(queries.size());
    w.Key("threads").Uint(threads);
    w.Key("threshold_s").Double(slow_log.current_threshold_s());
    w.Key("offered").Uint(slow_log.offered());
    w.Key("retained").Uint(slow_log.retained());
    w.Key("records").Raw(obs::SlowLogToJson(records));
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf(
      "slow-query log: %llu of %llu queries retained "
      "(threshold %.4f simulated s, ring capacity %zu)\n",
      static_cast<unsigned long long>(slow_log.retained()),
      static_cast<unsigned long long>(slow_log.offered()),
      slow_log.current_threshold_s(), log_options.capacity);
  for (const obs::SlowQueryRecord& record : records) {
    std::printf(
        "query %llu (%s): observed %.4f s (t1=%.4f t2=%.4f t3=%.4f), "
        "predicted %.4f s (t1=%.4f t2=%.4f t3=%.4f)%s\n",
        static_cast<unsigned long long>(record.query_index),
        record.kind.c_str(), record.observed.total(), record.observed.t1,
        record.observed.t2, record.observed.t3, record.predicted.total(),
        record.predicted.t1, record.predicted.t2, record.predicted.t3,
        record.truncated ? " [trace truncated]" : "");
    obs::PrintSpanTree(record.spans, std::cout);
  }
  return 0;
}

/// Extends CheckTraceConsistency to the stitched sharded trace: the
/// per-tree counters are summed over every shard subtree (the spans
/// under `shard<i>` are ordinary IQ-tree spans, so the single-tree
/// checks apply to the whole forest at once), and the facade-level
/// aggregates — queried/pruned shard counts and the io_s sum — are
/// recomputed from the `shard<i>` spans themselves. Exact equality
/// throughout: the spans and ShardQueryStats fold the same values in
/// the same gather order.
bool CheckShardedTraceConsistency(const std::vector<obs::SpanRecord>& spans,
                                  const ShardQueryStats& stats,
                                  std::string* problems) {
  bool ok = CheckTraceConsistency(spans, stats.totals, problems);
  const auto check = [&](const char* what, double from_trace,
                         double from_stats) {
    if (from_trace == from_stats) return true;
    *problems += std::string(" ") + what +
                 " trace=" + std::to_string(from_trace) +
                 " stats=" + std::to_string(from_stats);
    return false;
  };
  // The prefix "shard" also matches the `sharded_*` root, but the root
  // carries neither io_s nor pruned, so the attribute sums see only
  // the per-shard spans. Counting the shard spans themselves needs the
  // strict shard<digits> parse.
  size_t shard_spans = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name.size() <= 5 || span.name.compare(0, 5, "shard") != 0) {
      continue;
    }
    bool digits = true;
    for (size_t i = 5; i < span.name.size(); ++i) {
      digits = digits && span.name[i] >= '0' && span.name[i] <= '9';
    }
    if (digits) ++shard_spans;
  }
  const double pruned = obs::AggregateSpansByPrefix(spans, "shard", "pruned");
  ok &= check("io_s_sum",
              obs::AggregateSpansByPrefix(spans, "shard", "io_s"),
              stats.io_s_sum);
  ok &= check("shards_pruned", pruned,
              static_cast<double>(stats.shards_pruned));
  ok &= check("shards_queried", static_cast<double>(shard_spans) - pruned,
              static_cast<double>(stats.shards_queried));
  return ok;
}

void WriteShardStatsJson(obs::JsonWriter& w, const ShardQueryStats& stats) {
  w.BeginObject();
  w.Key("shards_total").Uint(stats.shards_total);
  w.Key("shards_queried").Uint(stats.shards_queried);
  w.Key("shards_pruned").Uint(stats.shards_pruned);
  w.Key("io_s_sum").Double(stats.io_s_sum);
  w.Key("io_s_max").Double(stats.io_s_max);
  w.Key("dropped_spans").Uint(stats.dropped_spans);
  w.Key("truncated").Bool(stats.truncated);
  w.Key("totals");
  WriteStatsJson(w, stats.totals);
  w.EndObject();
}

/// Replays queries against a sharded layout with the full stitched
/// trace attached — frontend → wave<i> → shard<i> → per-shard IQ-tree
/// subtree — and cross-checks every tree against the facade's
/// ShardQueryStats (exit 1 on mismatch, as `profile` does for a single
/// tree).
int Trace(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string manifest_name = args.Get("manifest");
  if (manifest_name.empty()) return Usage();
  FileStorage storage(dir);
  auto manifest = ShardManifest::Read(storage, manifest_name);
  if (!manifest.ok()) return Fail(manifest.status());
  ShardedSearcher::Options open_options;
  open_options.threads = ParseCount(args.Get("threads"), 4);
  auto searcher = ShardedSearcher::Open(storage, *manifest, open_options);
  if (!searcher.ok()) return Fail(searcher.status());

  // Query set: one --point, or the first --limit rows of a dataset.
  Dataset queries((*searcher)->dims());
  if (!args.Get("point").empty()) {
    auto q = ParsePoint(args.Get("point"));
    if (!q.ok()) return Fail(q.status());
    if (q->size() != (*searcher)->dims()) {
      std::fprintf(stderr, "point has %zu dims, manifest has %zu\n",
                   q->size(), (*searcher)->dims());
      return 2;
    }
    queries.Append(PointView(q->data(), q->size()));
  } else if (!args.Get("queries").empty()) {
    auto data = ReadDataset(storage, args.Get("queries"));
    if (!data.ok()) return Fail(data.status());
    if (data->dims() != (*searcher)->dims()) {
      std::fprintf(stderr, "dataset has %zu dims, manifest has %zu\n",
                   data->dims(), (*searcher)->dims());
      return 2;
    }
    const size_t limit = ParseCount(args.Get("limit"), 4);
    for (size_t i = 0; i < data->size() && i < limit; ++i) {
      queries.Append((*data)[i]);
    }
  } else {
    return Usage();
  }

  QueryFrontEnd::Options fe_options;
  fe_options.max_in_flight = ParseCount(args.Get("max-in-flight"), 4);
  fe_options.max_queued = ParseCount(args.Get("max-queued"), 16);
  fe_options.default_deadline_s = ParseNumber(args.Get("deadline"), 0.0);
  QueryFrontEnd front_end(**searcher, fe_options);

  const bool json = args.Has("json");
  const bool range = !args.Get("radius").empty();
  const double radius = ParseNumber(args.Get("radius"), 0.0);
  const size_t k = ParseCount(args.Get("k"), 1);

  obs::JsonWriter w;
  if (json) {
    w.BeginObject();
    w.Key("schema_version").Uint(1);
    w.Key("manifest").String(manifest_name);
    w.Key("mode").String(range ? "range" : "knn");
    w.Key(range ? "radius" : "k");
    if (range) {
      w.Double(radius);
    } else {
      w.Uint(k);
    }
    w.Key("queries").BeginArray();
  }

  bool all_consistent = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    // 16x QueryTracer's default cap: fan-out multiplies span volume,
    // and a truncated trace would fail the consistency check by design.
    obs::QueryTracer tracer(1 << 20);
    ShardQueryStats stats;
    ShardedSearchOptions options;
    options.tracer = &tracer;
    options.stats = &stats;
    if (range) {
      auto hits = front_end.RangeSearch(queries[i], radius, options);
      if (!hits.ok()) return Fail(hits.status());
    } else {
      auto hits = front_end.KNearestNeighbors(queries[i], k, options);
      if (!hits.ok()) return Fail(hits.status());
    }
    const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
    // With observability compiled out the trace is empty by design —
    // nothing to cross-check.
    std::string problems;
    const bool consistent =
        !obs::kEnabled ||
        CheckShardedTraceConsistency(spans, stats, &problems);
    all_consistent &= consistent;
    if (json) {
      w.BeginObject();
      w.Key("trace").Raw(obs::TraceToJson(spans));
      w.Key("stats");
      WriteShardStatsJson(w, stats);
      w.Key("consistent").Bool(consistent);
      w.EndObject();
    } else {
      std::printf("query %zu:\n", i);
      obs::PrintSpanTree(spans, std::cout);
      std::printf(
          "  stats: shards=%zu queried=%zu pruned=%zu io_s_sum=%.6f "
          "io_s_max=%.6f pages_decoded=%zu refinements=%zu\n",
          stats.shards_total, stats.shards_queried, stats.shards_pruned,
          stats.io_s_sum, stats.io_s_max, stats.totals.pages_decoded,
          stats.totals.refinements);
      if (obs::kEnabled) {
        std::printf("  trace/stats consistency: %s%s\n",
                    consistent ? "OK" : "MISMATCH", problems.c_str());
      }
    }
  }

  if (json) {
    w.EndArray();
    w.Key("metrics").Raw(
        obs::ExportJson(obs::MetricRegistry::Global().Snapshot()));
    w.Key("consistent").Bool(all_consistent);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }
  if (!all_consistent) {
    std::fprintf(stderr,
                 "error: stitched trace disagrees with shard query stats\n");
    return 1;
  }
  return 0;
}

int Validate(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string index = args.Get("index");
  if (index.empty()) return Usage();
  FileStorage storage(dir);
  DiskModel disk;
  auto tree = IqTree::Open(storage, index, disk);
  if (!tree.ok()) return Fail(tree.status());
  if (Status s = (*tree)->Validate(); !s.ok()) return Fail(s);
  std::printf("OK: %zu pages, %llu points, all invariants hold\n",
              (*tree)->num_pages(),
              static_cast<unsigned long long>((*tree)->size()));
  std::printf(
      "checked: meta plausibility; per-entry MBR/quant-level/capacity/"
      "file bounds; unique quantized pages; count totals; page-header "
      "agreement; cell boxes inside page MBRs; points inside MBRs and "
      "cell boxes; point id uniqueness\n");
  return 0;
}

int Reoptimize(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string index = args.Get("index");
  if (index.empty()) return Usage();
  FileStorage storage(dir);
  DiskModel disk;
  auto tree = IqTree::Open(storage, index, disk);
  if (!tree.ok()) return Fail(tree.status());
  const size_t pages_before = (*tree)->num_pages();
  if (Status s = (*tree)->Reoptimize(); !s.ok()) return Fail(s);
  std::printf("reoptimized: %zu -> %zu pages, predicted cost %.4f s\n",
              pages_before, (*tree)->num_pages(),
              (*tree)->build_stats().expected_query_cost_s);
  return 0;
}

int ShardBuild(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string dataset = args.Get("dataset");
  const std::string manifest_name = args.Get("manifest");
  if (dataset.empty() || manifest_name.empty()) return Usage();
  FileStorage storage(dir);
  auto data = ReadDataset(storage, dataset);
  if (!data.ok()) return Fail(data.status());

  ShardedBulkLoader::Options options;
  options.num_shards = ParseCount(args.Get("shards"), 4);
  options.plan = args.Get("plan", "roundrobin") == "rank"
                     ? ShardPlan::kRankPartition
                     : ShardPlan::kRoundRobin;
  options.plan_dim = ParseCount(args.Get("plan-dim"), 0);
  options.tree.metric =
      args.Get("metric", "l2") == "lmax" ? Metric::kLMax : Metric::kL2;
  ShardedBulkLoader loader(storage, manifest_name, options);
  for (size_t row = 0; row < data->size(); ++row) {
    if (Status s = loader.Add((*data)[row]); !s.ok()) return Fail(s);
  }
  auto manifest = loader.Finish();
  if (!manifest.ok()) return Fail(manifest.status());
  std::printf("built %zu shards over %llu points (manifest '%s'):\n",
              manifest->num_shards(),
              static_cast<unsigned long long>(manifest->total_points()),
              manifest_name.c_str());
  for (const ShardInfo& shard : manifest->shards()) {
    std::printf("  %-16s %llu points\n", shard.name.c_str(),
                static_cast<unsigned long long>(shard.points));
  }
  return 0;
}

/// Opens the manifest and every shard tree (with the manifest
/// cross-checks of ShardedSearcher::Open) for the read-only commands.
Result<std::unique_ptr<ShardedSearcher>> OpenShards(Storage& storage,
                                                    const std::string& name) {
  IQ_ASSIGN_OR_RETURN(ShardManifest manifest,
                      ShardManifest::Read(storage, name));
  ShardedSearcher::Options options;
  options.threads = 1;  // no queries run here; skip the fan-out pool
  return ShardedSearcher::Open(storage, manifest, options);
}

int ShardStats(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string manifest_name = args.Get("manifest");
  if (manifest_name.empty()) return Usage();
  FileStorage storage(dir);
  auto searcher = OpenShards(storage, manifest_name);
  if (!searcher.ok()) return Fail(searcher.status());
  const ShardedSearcher& shards = **searcher;
  uint64_t total_pages = 0;
  for (size_t i = 0; i < shards.num_shards(); ++i) {
    total_pages += shards.shard_tree(i).num_pages();
  }
  if (args.Has("json")) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Uint(1);
    w.Key("manifest").String(manifest_name);
    w.Key("per_shard").BeginArray();
    for (size_t i = 0; i < shards.num_shards(); ++i) {
      const IqTree& tree = shards.shard_tree(i);
      w.BeginObject();
      w.Key("name").String(ShardManifest::ShardIndexName(manifest_name, i));
      w.Key("points").Uint(tree.size());
      w.Key("pages").Uint(tree.num_pages());
      w.Key("fractal_dimension").Double(tree.fractal_dimension());
      w.EndObject();
    }
    w.EndArray();
    w.Key("aggregate").BeginObject();
    w.Key("shards").Uint(shards.num_shards());
    w.Key("points").Uint(shards.size());
    w.Key("pages").Uint(total_pages);
    w.Key("dims").Uint(shards.dims());
    w.Key("predicted_cost_s").Double(shards.predicted_cost().total());
    w.EndObject();
    w.Key("metrics").Raw(
        obs::ExportJson(obs::MetricRegistry::Global().Snapshot()));
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("manifest:     %s/%s (%zu shards)\n", dir.c_str(),
              manifest_name.c_str(), shards.num_shards());
  std::printf("points:       %llu\n",
              static_cast<unsigned long long>(shards.size()));
  std::printf("dims:         %zu\n", shards.dims());
  std::printf("metric:       %s\n",
              shards.metric() == Metric::kL2 ? "L2" : "L-max");
  std::printf("pages:        %llu\n",
              static_cast<unsigned long long>(total_pages));
  std::printf("predicted:    %.4f s (sum of shard cost models)\n",
              shards.predicted_cost().total());
  for (size_t i = 0; i < shards.num_shards(); ++i) {
    const IqTree& tree = shards.shard_tree(i);
    std::printf("  shard %-3zu %llu points, %zu pages, D_F=%.2f\n", i,
                static_cast<unsigned long long>(tree.size()),
                tree.num_pages(), tree.fractal_dimension());
  }
  if (args.Has("metrics")) {
    std::printf("\n%s", obs::ExportPrometheus(
                            obs::MetricRegistry::Global().Snapshot())
                            .c_str());
  }
  return 0;
}

int ShardHealth(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string manifest_name = args.Get("manifest");
  if (manifest_name.empty()) return Usage();
  FileStorage storage(dir);
  auto searcher = OpenShards(storage, manifest_name);
  if (!searcher.ok()) return Fail(searcher.status());
  const ShardedSearcher& shards = **searcher;

  // Aggregate across shards: totals sum; occupancy and the indirection
  // ratio are pages-weighted means; min/max span all non-empty shards.
  std::vector<IndexHealth> per_shard;
  IndexHealth agg;
  double weighted_occupancy = 0;
  double weighted_indirection = 0;
  for (size_t i = 0; i < shards.num_shards(); ++i) {
    const IqTree& tree = shards.shard_tree(i);
    per_shard.push_back(ComputeIndexHealth(tree.meta(), tree.directory()));
    const IndexHealth& h = per_shard.back();
    agg.dims = h.dims;
    agg.block_size = h.block_size;
    agg.total_points += h.total_points;
    agg.num_pages += h.num_pages;
    agg.exact_bytes += h.exact_bytes;
    for (size_t level = 0; level < h.pages_per_level.size(); ++level) {
      agg.pages_per_level[level] += h.pages_per_level[level];
    }
    const double pages = static_cast<double>(h.num_pages);
    weighted_occupancy += h.occupancy_mean * pages;
    weighted_indirection += h.level3_indirection_ratio * pages;
    if (h.num_pages > 0) {
      agg.occupancy_min = agg.num_pages == h.num_pages
                              ? h.occupancy_min
                              : std::min(agg.occupancy_min, h.occupancy_min);
      agg.occupancy_max = std::max(agg.occupancy_max, h.occupancy_max);
      agg.mbr_volume_max = std::max(agg.mbr_volume_max, h.mbr_volume_max);
    }
  }
  if (agg.num_pages > 0) {
    const double pages = static_cast<double>(agg.num_pages);
    agg.occupancy_mean = weighted_occupancy / pages;
    agg.level3_indirection_ratio = weighted_indirection / pages;
  }

  if (args.Has("json")) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Uint(1);
    w.Key("manifest").String(manifest_name);
    w.Key("per_shard").BeginArray();
    for (size_t i = 0; i < per_shard.size(); ++i) {
      w.BeginObject();
      w.Key("name").String(ShardManifest::ShardIndexName(manifest_name, i));
      w.Key("health").Raw(IndexHealthToJson(per_shard[i]));
      w.EndObject();
    }
    w.EndArray();
    w.Key("aggregate").Raw(IndexHealthToJson(agg));
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("manifest:           %s/%s (%zu shards)\n", dir.c_str(),
              manifest_name.c_str(), shards.num_shards());
  std::printf("points / pages:     %llu / %llu\n",
              static_cast<unsigned long long>(agg.total_points),
              static_cast<unsigned long long>(agg.num_pages));
  std::printf("pages per level:   ");
  for (size_t i = 0; i < std::size(kQuantLevels); ++i) {
    std::printf(" g=%u:%llu", kQuantLevels[i],
                static_cast<unsigned long long>(agg.pages_per_level[i]));
  }
  std::printf("\npage occupancy:     mean=%.3f min=%.3f max=%.3f\n",
              agg.occupancy_mean, agg.occupancy_min, agg.occupancy_max);
  std::printf("level-3 indirection: %.1f%% of pages (%llu exact bytes)\n",
              100.0 * agg.level3_indirection_ratio,
              static_cast<unsigned long long>(agg.exact_bytes));
  for (size_t i = 0; i < per_shard.size(); ++i) {
    const IndexHealth& h = per_shard[i];
    std::printf("  shard %-3zu %llu points, %llu pages, occupancy %.3f\n", i,
                static_cast<unsigned long long>(h.total_points),
                static_cast<unsigned long long>(h.num_pages),
                h.occupancy_mean);
  }
  return 0;
}

int Dispatch(const std::vector<Command>& commands, const Args& args) {
  for (const Command& command : commands) {
    if (args.command != command.name) continue;
    if (int rc = CheckArgs(args, command); rc != 0) return rc;
    return command.run(args);
  }
  return Usage();
}

int Shard(int argc, char** argv) {
  // `iqtool shard build ...` re-parses with `shard` stripped so the
  // sub-verb lands in Args::command and the flags parse as usual.
  static const std::vector<Command> kShardCommands = {
      {"build", ShardBuild, {"dir", "dataset", "manifest", "plan", "metric"},
       {"shards", "plan-dim"}, {}, {}},
      {"stats", ShardStats, {"dir", "manifest"}, {}, {}, {"metrics", "json"}},
      {"health", ShardHealth, {"dir", "manifest"}, {}, {}, {"json"}},
  };
  return Dispatch(kShardCommands, Parse(argc - 1, argv + 1));
}

int Run(int argc, char** argv) {
  static const std::vector<Command> kCommands = {
      {"generate", Generate, {"out", "workload"}, {"n", "dims", "seed"}, {},
       {}},
      {"build", Build, {"dir", "dataset", "index", "metric"},
       {"fixed-bits", "k"}, {}, {"no-quantize"}},
      {"query", Query, {"dir", "index", "point"}, {"k"}, {"radius"}, {}},
      {"stats", Stats, {"dir", "index", "manifest"}, {}, {},
       {"metrics", "json"}},
      {"health", Health, {"dir", "index", "manifest"}, {}, {}, {"json"}},
      {"profile", Profile, {"dir", "index", "point", "queries"},
       {"limit", "k", "threads"}, {"radius"}, {"json"}},
      {"slowlog", SlowLog, {"dir", "index", "queries"},
       {"limit", "k", "threads", "capacity"},
       {"radius", "threshold", "quantile"}, {"json"}},
      {"trace", Trace, {"dir", "manifest", "point", "queries"},
       {"limit", "k", "threads", "max-in-flight", "max-queued"},
       {"radius", "deadline"}, {"json"}},
      {"validate", Validate, {"dir", "index"}, {}, {}, {}},
      {"reopt", Reoptimize, {"dir", "index"}, {}, {}, {}},
  };
  const Args args = Parse(argc, argv);
  if (args.command == "shard") return Shard(argc, argv);
  return Dispatch(kCommands, args);
}

}  // namespace
}  // namespace iq

int main(int argc, char** argv) { return iq::Run(argc, argv); }
