#ifndef IQ_OBS_FLIGHT_RECORDER_H_
#define IQ_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace iq::obs {

/// What happened. The recorder stores these as packed integers; the
/// names below are the JSON vocabulary (docs/observability.md).
enum class FlightEventType : uint32_t {
  kAdmissionAccept = 1,   // arg=in_flight after admit, v0=wait_s
  kAdmissionReject = 2,   // arg=queue_depth at rejection
  kQueueEnter = 3,        // arg=queue_depth after enqueue
  kQueueExit = 4,         // arg=queue_depth after dequeue, v0=wait_s
  kWaveDispatch = 5,      // arg=wave index, v0=shards in wave
  kShardQuery = 6,        // arg=shard index, v0=mindist, v1=io_s
  kShardPrune = 7,        // arg=shard index, v0=mindist, v1=kth distance
  kDeadlineCheck = 8,     // arg=shards queried so far, v0=remaining_s
  kDeadlineExceeded = 9,  // arg=shards queried so far, v0=elapsed_s
  kSlowLogOffer = 10,     // v0=observed io_s
  kPoolTask = 11,         // arg=queue depth at dequeue, v0=wait_s
};

/// JSON/debug name of an event type ("admission_reject", ...).
const char* FlightEventTypeName(FlightEventType type);

/// One decoded event, as returned by Snapshot(). `thread` is the
/// recorder's registration index for the producing thread (stable for
/// the thread's lifetime), `seq` the per-thread event ordinal.
struct FlightEvent {
  int64_t ts_ns = 0;
  FlightEventType type = FlightEventType::kAdmissionAccept;
  uint32_t thread = 0;
  uint64_t seq = 0;
  uint32_t arg = 0;
  double v0 = 0.0;
  double v1 = 0.0;
};

/// Always-on, process-wide flight recorder: the last few thousand
/// control-plane decisions (admission, wave dispatch, shard pruning,
/// deadline checks), kept in per-thread fixed-size rings so a failed
/// query has a post-mortem even though nobody asked to trace it.
///
/// Hot-path contract (enforced by bench/micro_obs and the obs CI leg):
/// Record() performs no allocation and takes no lock — it writes one
/// ring slot with relaxed atomic stores and publishes it with one
/// release store of the per-thread head counter. Readers (Snapshot,
/// TriggerDump) acquire the head and read slots relaxed; an event
/// being overwritten concurrently can decode torn values but never
/// tears memory or races (every slot word is a std::atomic). The only
/// mutex (`mu_`, rank 90 — a leaf above even MetricRegistry, because
/// Record's first call on a thread registers its ring while the caller
/// may hold any other lock) guards ring registration and dump state,
/// never the per-event path.
///
/// With IQ_OBS_DISABLED every member function is an empty inline
/// no-op: zero instructions on the hot path, verified by the obs CI
/// leg (the Record symbol must not exist in that build).
class FlightRecorder {
 public:
  /// Events retained per thread. 4 words * 1024 = 32 KiB per ring.
  static constexpr size_t kRingCapacity = 1024;

  /// The process-wide recorder (constructed on first use, never
  /// destroyed — post-mortems outlive subsystem teardown).
  static FlightRecorder& Global();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

#if defined(IQ_OBS_DISABLED)
  void Record(FlightEventType, uint32_t = 0, double = 0.0, double = 0.0) {}
  std::vector<FlightEvent> Snapshot() const { return {}; }
  uint64_t recorded() const { return 0; }
  uint64_t dropped() const { return 0; }
  uint64_t dumps() const { return 0; }
  void TriggerDump(std::string_view) {}
  std::string last_dump() const { return {}; }
  std::string last_dump_reason() const { return {}; }
  void Clear() {}
#else
  /// Records one event into the calling thread's ring (registering the
  /// ring on the thread's first call). Overwrites the oldest event
  /// when the ring is full — recording never blocks and never fails.
  void Record(FlightEventType type, uint32_t arg = 0, double v0 = 0.0,
              double v1 = 0.0);

  /// Decodes every ring's retained events, ordered by timestamp.
  std::vector<FlightEvent> Snapshot() const IQ_EXCLUDES(mu_);

  /// Total events recorded / overwritten-before-read across all rings.
  uint64_t recorded() const IQ_EXCLUDES(mu_);
  uint64_t dropped() const IQ_EXCLUDES(mu_);
  uint64_t dumps() const IQ_EXCLUDES(mu_);

  /// Snapshots the rings and retains the result as a one-line JSON
  /// dump tagged with `reason` ("deadline_exceeded", "rejected",
  /// "slow_query", "on_demand"); bumps iq_flight_dumps_total. The dump
  /// is fetched with last_dump() — callers decide where it goes.
  void TriggerDump(std::string_view reason) IQ_EXCLUDES(mu_);

  std::string last_dump() const IQ_EXCLUDES(mu_);
  std::string last_dump_reason() const IQ_EXCLUDES(mu_);

  /// Resets every ring and the dump state (tests and bench reps).
  void Clear() IQ_EXCLUDES(mu_);
#endif

 private:
  FlightRecorder() = default;

#if !defined(IQ_OBS_DISABLED)
  /// One single-producer ring. The producing thread owns head_ and is
  /// the only writer of slots; any thread may read. A slot is four
  /// words: ts_ns, type|arg packed, v0 bits, v1 bits.
  struct Ring {
    static constexpr size_t kWordsPerSlot = 4;
    std::atomic<uint64_t> head{0};
    std::atomic<uint64_t> words[kRingCapacity * kWordsPerSlot];

    Ring() {
      for (auto& w : words) w.store(0, std::memory_order_relaxed);
    }
  };

  /// The calling thread's ring, registering it on first use.
  Ring* ThisThreadRing() IQ_EXCLUDES(mu_);

  int64_t NowNs() const;

  mutable Mutex mu_{IQ_LOCK_RANK(90)};
  /// Registered rings; never removed (a finished thread's events stay
  /// readable), so indices are stable thread ids for the dump.
  std::vector<std::unique_ptr<Ring>> rings_ IQ_GUARDED_BY(mu_);
  std::string last_dump_ IQ_GUARDED_BY(mu_);
  std::string last_dump_reason_ IQ_GUARDED_BY(mu_);
  uint64_t dumps_ IQ_GUARDED_BY(mu_) = 0;
  /// recorded()/dropped() values already folded into the registry
  /// counters, so successive dumps export deltas, not running totals.
  uint64_t exported_recorded_ IQ_GUARDED_BY(mu_) = 0;
  uint64_t exported_dropped_ IQ_GUARDED_BY(mu_) = 0;
#endif
};

/// One JSON object {"schema_version":1,"reason":...,"recorded":N,
/// "dropped":N,"events":[{"ts_ns","type","thread","seq","arg","v0",
/// "v1"},...]} — the dump format of TriggerDump and `iqtool flight`.
std::string FlightToJson(const std::vector<FlightEvent>& events,
                         std::string_view reason, uint64_t recorded,
                         uint64_t dropped);

}  // namespace iq::obs

#endif  // IQ_OBS_FLIGHT_RECORDER_H_
