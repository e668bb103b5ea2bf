#include "layers.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace iqperf {

using iq::obs::kNoSpan;
using iq::obs::SpanRecord;

std::string SpanKind(std::string_view name) {
  size_t end = name.size();
  while (end > 0 && name[end - 1] >= '0' && name[end - 1] <= '9') --end;
  return std::string(name.substr(0, end));
}

int64_t FoldSelfTimes(const std::vector<SpanRecord>& spans,
                      std::map<std::string, int64_t>* self_ns) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoSpan && spans[i].parent < spans.size()) {
      children[spans[i].parent].push_back(i);
    }
  }
  int64_t total = 0;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].wall_begin_ns;
    const int64_t end = spans[i].wall_end_ns;
    covered.clear();
    for (size_t c : children[i]) {
      const int64_t b = std::max(begin, spans[c].wall_begin_ns);
      const int64_t e = std::min(end, spans[c].wall_end_ns);
      if (e > b) covered.emplace_back(b, e);
    }
    std::sort(covered.begin(), covered.end());
    int64_t child_ns = 0;
    int64_t reach = begin;
    for (const auto& [b, e] : covered) {
      const int64_t from = std::max(b, reach);
      if (e > from) child_ns += e - from;
      reach = std::max(reach, e);
    }
    const int64_t self = (end - begin) - child_ns;
    (*self_ns)[SpanKind(spans[i].name)] += self;
    total += self;
  }
  return total;
}

int64_t RootDuration(const std::vector<SpanRecord>& spans) {
  int64_t total = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent == kNoSpan) total += s.wall_end_ns - s.wall_begin_ns;
  }
  return total;
}

void CollectDurationsMs(const std::vector<SpanRecord>& spans,
                        std::string_view kind, std::vector<double>* out) {
  for (const SpanRecord& s : spans) {
    if (SpanKind(s.name) == kind) {
      out->push_back(static_cast<double>(s.wall_end_ns - s.wall_begin_ns) /
                     1e6);
    }
  }
}

void CollectFirstChildDelayMs(const std::vector<SpanRecord>& spans,
                              std::string_view kind,
                              std::vector<double>* out) {
  std::vector<int64_t> first_child(spans.size(), -1);
  for (const SpanRecord& s : spans) {
    if (s.parent == kNoSpan || s.parent >= spans.size()) continue;
    int64_t& first = first_child[s.parent];
    if (first < 0 || s.wall_begin_ns < first) first = s.wall_begin_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (first_child[i] >= 0 && SpanKind(spans[i].name) == kind) {
      out->push_back(
          static_cast<double>(first_child[i] - spans[i].wall_begin_ns) / 1e6);
    }
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace iqperf
