#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>

#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace iq::obs {

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kAdmissionAccept:
      return "admission_accept";
    case FlightEventType::kAdmissionReject:
      return "admission_reject";
    case FlightEventType::kQueueEnter:
      return "queue_enter";
    case FlightEventType::kQueueExit:
      return "queue_exit";
    case FlightEventType::kWaveDispatch:
      return "wave_dispatch";
    case FlightEventType::kShardQuery:
      return "shard_query";
    case FlightEventType::kShardPrune:
      return "shard_prune";
    case FlightEventType::kDeadlineCheck:
      return "deadline_check";
    case FlightEventType::kDeadlineExceeded:
      return "deadline_exceeded";
    case FlightEventType::kSlowLogOffer:
      return "slow_log_offer";
    case FlightEventType::kPoolTask:
      return "pool_task";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::Global() {
  // Leaked on purpose: dumps must work during static destruction.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

#if !defined(IQ_OBS_DISABLED)

namespace {

uint64_t PackTypeArg(FlightEventType type, uint32_t arg) {
  return (static_cast<uint64_t>(type) << 32) | arg;
}

}  // namespace

int64_t FlightRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

FlightRecorder::Ring* FlightRecorder::ThisThreadRing() {
  // One cached ring per thread per process; the recorder is a leaked
  // singleton, so the cache never outlives its owner.
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    auto owned = std::make_unique<Ring>();
    ring = owned.get();
    MutexLock lock(&mu_);
    rings_.push_back(std::move(owned));
  }
  return ring;
}

void FlightRecorder::Record(FlightEventType type, uint32_t arg, double v0,
                            double v1) {
  Ring* ring = ThisThreadRing();
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  std::atomic<uint64_t>* slot =
      &ring->words[(head % kRingCapacity) * Ring::kWordsPerSlot];
  slot[0].store(static_cast<uint64_t>(NowNs()), std::memory_order_relaxed);
  slot[1].store(PackTypeArg(type, arg), std::memory_order_relaxed);
  slot[2].store(std::bit_cast<uint64_t>(v0), std::memory_order_relaxed);
  slot[3].store(std::bit_cast<uint64_t>(v1), std::memory_order_relaxed);
  // Publishes the slot: a reader that acquires head >= this value sees
  // the stores above. A reader mid-overwrite can decode a torn event
  // (diagnostic noise), never a data race — every word is atomic.
  ring->head.store(head + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  MutexLock lock(&mu_);
  for (size_t r = 0; r < rings_.size(); ++r) {
    const Ring& ring = *rings_[r];
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    const uint64_t begin = head > kRingCapacity ? head - kRingCapacity : 0;
    for (uint64_t seq = begin; seq < head; ++seq) {
      const std::atomic<uint64_t>* slot =
          &ring.words[(seq % kRingCapacity) * Ring::kWordsPerSlot];
      const uint64_t packed = slot[1].load(std::memory_order_relaxed);
      FlightEvent event;
      event.ts_ns = static_cast<int64_t>(
          slot[0].load(std::memory_order_relaxed));
      event.type = static_cast<FlightEventType>(packed >> 32);
      event.thread = static_cast<uint32_t>(r);
      event.seq = seq;
      event.arg = static_cast<uint32_t>(packed & 0xFFFFFFFFu);
      event.v0 = std::bit_cast<double>(
          slot[2].load(std::memory_order_relaxed));
      event.v1 = std::bit_cast<double>(
          slot[3].load(std::memory_order_relaxed));
      events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.thread != b.thread) return a.thread < b.thread;
              return a.seq < b.seq;
            });
  return events;
}

uint64_t FlightRecorder::recorded() const {
  uint64_t total = 0;
  MutexLock lock(&mu_);
  for (const auto& ring : rings_) {
    total += ring->head.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t FlightRecorder::dropped() const {
  uint64_t total = 0;
  MutexLock lock(&mu_);
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > kRingCapacity) total += head - kRingCapacity;
  }
  return total;
}

uint64_t FlightRecorder::dumps() const {
  MutexLock lock(&mu_);
  return dumps_;
}

void FlightRecorder::TriggerDump(std::string_view reason) {
  // Snapshot (and the registry counters) before taking mu_ for the
  // dump state: mu_ ranks above MetricRegistry's, so counters may not
  // be touched while holding it.
  const std::vector<FlightEvent> events = Snapshot();
  const uint64_t total_recorded = recorded();
  const uint64_t total_dropped = dropped();
  std::string dump =
      FlightToJson(events, reason, total_recorded, total_dropped);
  // The recorder deliberately never touches the registry on the event
  // path; the counters advance by the delta since the previous dump.
  uint64_t delta_recorded = 0;
  uint64_t delta_dropped = 0;
  {
    MutexLock lock(&mu_);
    delta_recorded =
        total_recorded > exported_recorded_ ? total_recorded -
                                                  exported_recorded_
                                            : 0;
    delta_dropped = total_dropped > exported_dropped_
                        ? total_dropped - exported_dropped_
                        : 0;
    exported_recorded_ = total_recorded;
    exported_dropped_ = total_dropped;
    last_dump_ = std::move(dump);
    last_dump_reason_.assign(reason);
    ++dumps_;
  }
  auto& registry = MetricRegistry::Global();
  registry.GetCounter(metric::kFlightDumpsTotal)->Increment();
  registry.GetCounter(metric::kFlightEventsTotal)->Add(delta_recorded);
  registry.GetCounter(metric::kFlightDroppedTotal)->Add(delta_dropped);
}

std::string FlightRecorder::last_dump() const {
  MutexLock lock(&mu_);
  return last_dump_;
}

std::string FlightRecorder::last_dump_reason() const {
  MutexLock lock(&mu_);
  return last_dump_reason_;
}

void FlightRecorder::Clear() {
  MutexLock lock(&mu_);
  for (auto& ring : rings_) {
    // Rings are never freed or removed (producer threads cache raw
    // pointers); a reset just rewinds the head.
    ring->head.store(0, std::memory_order_release);
  }
  last_dump_.clear();
  last_dump_reason_.clear();
  dumps_ = 0;
  exported_recorded_ = 0;
  exported_dropped_ = 0;
}

#endif  // !defined(IQ_OBS_DISABLED)

std::string FlightToJson(const std::vector<FlightEvent>& events,
                         std::string_view reason, uint64_t recorded,
                         uint64_t dropped) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("reason").String(reason);
  w.Key("recorded").Uint(recorded);
  w.Key("dropped").Uint(dropped);
  w.Key("events").BeginArray();
  for (const FlightEvent& event : events) {
    w.BeginObject();
    w.Key("ts_ns").Int(event.ts_ns);
    w.Key("type").String(FlightEventTypeName(event.type));
    w.Key("thread").Uint(event.thread);
    w.Key("seq").Uint(event.seq);
    w.Key("arg").Uint(event.arg);
    w.Key("v0").Double(event.v0);
    w.Key("v1").Double(event.v1);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace iq::obs
