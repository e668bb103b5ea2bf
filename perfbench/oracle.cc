#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <utility>

#include "geom/metrics.h"
#include "io/disk_model.h"
#include "io/storage.h"
#include "scan/seq_scan.h"

namespace iqperf {

namespace {

bool ByDistanceThenId(const iq::Neighbor& a, const iq::Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "oracle: %s\n", what.c_str());
  std::exit(2);
}

}  // namespace

std::vector<Expected> ScanOracle(const iq::Dataset& data,
                                 const iq::Dataset& queries, size_t k,
                                 size_t radius_rank, size_t threads) {
  iq::MemoryStorage storage;
  iq::DiskModel disk;
  auto scan = iq::SeqScan::Build(data, storage, "oracle", disk,
                                 iq::SeqScan::Options());
  if (!scan.ok()) Die(scan.status().ToString());
  std::vector<Expected> out(queries.size());
  std::vector<std::string> errors(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      for (size_t i = t; i < queries.size(); i += threads) {
        auto nearest = (*scan)->KNearestNeighbors(queries[i], radius_rank);
        if (!nearest.ok() || nearest->size() < radius_rank) {
          errors[t] = "k-NN scan failed";
          return;
        }
        Expected& e = out[i];
        e.radius = nearest->back().distance;
        e.knn.assign(nearest->begin(),
                     nearest->begin() + static_cast<ptrdiff_t>(k));
        auto range = (*scan)->RangeSearch(queries[i], e.radius);
        if (!range.ok()) {
          errors[t] = "range scan failed";
          return;
        }
        e.range = std::move(range).value();
        std::sort(e.range.begin(), e.range.end(), ByDistanceThenId);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::string& e : errors) {
    if (!e.empty()) Die(e);
  }
  return out;
}

LiveSet::LiveSet(const iq::Dataset& base)
    : dims_(base.dims()),
      coords_(base.data(), base.data() + base.size() * base.dims()),
      live_(base.size(), 1) {}

void LiveSet::Insert(iq::PointId id, iq::PointView p) {
  if (id >= live_.size()) {
    live_.resize(id + 1, 0);
    coords_.resize(live_.size() * dims_, 0.0f);
  }
  std::copy(p.begin(), p.end(), coords_.begin() + id * dims_);
  live_[id] = 1;
}

void LiveSet::Remove(iq::PointId id) {
  if (id < live_.size()) live_[id] = 0;
}

double LiveSet::DistanceTo(iq::PointView q, iq::PointId id) const {
  if (id >= live_.size() || live_[id] == 0) return -1;
  return iq::Distance(q, iq::PointView(coords_.data() + id * dims_, dims_),
                      iq::Metric::kL2);
}

Expected LiveSet::Answer(iq::PointView q, size_t k,
                         size_t radius_rank) const {
  std::vector<iq::Neighbor> all;
  all.reserve(live_.size());
  for (size_t id = 0; id < live_.size(); ++id) {
    if (live_[id] == 0) continue;
    all.push_back(iq::Neighbor{
        static_cast<iq::PointId>(id),
        iq::Distance(q, iq::PointView(coords_.data() + id * dims_, dims_),
                     iq::Metric::kL2)});
  }
  Expected e;
  const size_t rank = std::min(radius_rank, all.size());
  if (rank == 0) return e;
  std::nth_element(all.begin(), all.begin() + static_cast<ptrdiff_t>(rank - 1),
                   all.end(), ByDistanceThenId);
  e.radius = all[rank - 1].distance;
  for (const iq::Neighbor& n : all) {
    if (n.distance <= e.radius) e.range.push_back(n);
  }
  std::sort(e.range.begin(), e.range.end(), ByDistanceThenId);
  e.knn.assign(e.range.begin(),
               e.range.begin() + static_cast<ptrdiff_t>(std::min(k, rank)));
  return e;
}

std::string CheckKnn(const Expected& expected,
                     const std::vector<iq::Neighbor>& actual,
                     const TrueDistance& distance_to) {
  if (actual.size() != expected.knn.size()) {
    return "k-NN returned " + std::to_string(actual.size()) +
           " neighbors, expected " + std::to_string(expected.knn.size());
  }
  if (actual.empty()) return "";
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i].distance != expected.knn[i].distance) {
      return "k-NN distance differs at rank " + std::to_string(i);
    }
    if (distance_to(actual[i].id) != actual[i].distance) {
      return "k-NN neighbor " + std::to_string(actual[i].id) +
             " is not at its reported distance";
    }
  }
  const double kth = expected.knn.back().distance;
  std::set<iq::PointId> seen, expected_below, actual_below;
  for (const iq::Neighbor& n : actual) {
    if (!seen.insert(n.id).second) {
      return "k-NN returned id " + std::to_string(n.id) + " twice";
    }
    if (n.distance < kth) actual_below.insert(n.id);
  }
  for (const iq::Neighbor& n : expected.knn) {
    if (n.distance < kth) expected_below.insert(n.id);
  }
  if (actual_below != expected_below) return "k-NN ids differ below the k-th";
  return "";
}

std::string CheckRange(const Expected& expected,
                       std::vector<iq::Neighbor> actual) {
  std::sort(actual.begin(), actual.end(), ByDistanceThenId);
  if (actual.size() != expected.range.size()) {
    return "range returned " + std::to_string(actual.size()) +
           " points, expected " + std::to_string(expected.range.size());
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (!(actual[i] == expected.range[i])) {
      return "range answer differs at position " + std::to_string(i);
    }
  }
  return "";
}

}  // namespace iqperf
