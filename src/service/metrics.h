// Metrics for `concord serve`: one registry of named metric families.
//
// MetricsRegistry stores counters, gauges and log2 latency histograms, each
// cell addressed by an ordered label list (e.g. {verb="check"}). Everything the
// service measures lands in its one registry:
//
//   - the request path records the request, config-cache and check-work
//     families (RecordServeRequest, RecordCacheProbe, RecordCheckWork);
//   - the socket frontend records its connection and admission families;
//   - a scrape writes the contract-set, resident-dataset and store gauges, and
//     mirrors the counters other layers own (trace stage totals, durable-store
//     reads) with SetCounter.
//
// Three views read the same cells: the `metrics` verb's Prometheus exposition
// (PrometheusText), the `stats` verb's JSON (ServeStatsJson) and the shutdown
// summary (ServeSummaryText). Family and label order are deterministic, so all
// three are golden-testable.
#ifndef SRC_SERVICE_METRICS_H_
#define SRC_SERVICE_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/format/json.h"
#include "src/util/sync.h"

namespace concord {

// Log2 latency histogram: bucket i counts requests in [2^i, 2^(i+1)) microseconds;
// the last bucket absorbs everything slower.
struct LatencyHistogram {
  static constexpr size_t kNumBuckets = 24;  // ~16.7s and beyond in the last bucket.

  uint64_t count = 0;
  uint64_t sum_micros = 0;
  uint64_t max_micros = 0;
  std::array<uint64_t, kNumBuckets> buckets{};

  void Record(uint64_t micros);
  JsonValue ToJson() const;  // {count, sum_micros, max_micros, mean_micros, buckets}.

  // Appends Prometheus histogram samples (<name>_bucket{...,le="..."},
  // <name>_sum, <name>_count). `labels` is the pre-rendered label list without
  // braces ("" or e.g. `verb="check"`).
  void AppendPrometheus(std::string* out, std::string_view name,
                        const std::string& labels) const;
};

// General labeled-metric registry. Thread-safe; every mutation carries the
// family's help text so exposition needs no separate registration step. A
// family's type is fixed by its first use.
class MetricsRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  // One labeled cell. Only the member matching the family's type is used.
  struct Cell {
    Labels labels;
    uint64_t counter = 0;
    double gauge = 0;
    LatencyHistogram histogram;
  };

  void Count(std::string_view name, std::string_view help, const Labels& labels,
             uint64_t delta = 1);
  // Sets a counter to an absolute value: for counters another layer owns,
  // mirrored into the registry at scrape time.
  void SetCounter(std::string_view name, std::string_view help,
                  const Labels& labels, uint64_t value);
  void SetGauge(std::string_view name, std::string_view help, const Labels& labels,
                double value);
  void ObserveMicros(std::string_view name, std::string_view help,
                     const Labels& labels, uint64_t micros);

  // Current counter value (0 when the cell does not exist).
  uint64_t CounterValue(std::string_view name, const Labels& labels) const;

  // Calls `visit` on every cell of family `name` (none when it does not exist),
  // in label order. Runs under the registry lock: `visit` must not call back
  // into the registry.
  void VisitFamily(std::string_view name,
                   const std::function<void(const Cell&)>& visit) const;

  // Prometheus text exposition: families in name order, one # HELP/# TYPE pair
  // each, cells in label order. Label values are escaped per the exposition
  // format (backslash, quote, newline).
  std::string PrometheusText() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::map<std::string, Cell, std::less<>> cells;  // Keyed by rendered label list.
  };

  Cell& CellFor(std::string_view name, std::string_view help, Kind kind,
                const Labels& labels) CONCORD_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Family, std::less<>> families_ CONCORD_GUARDED_BY(mu_);
};

// The serve request families. `verb` becomes a label value, so it must come
// from a closed set (the service passes a known verb, "unknown" or "invalid").
void RecordServeRequest(MetricsRegistry& registry, std::string_view verb, bool ok,
                        uint64_t micros);
// Outcome of probing the parsed-config cache for one batch.
void RecordCacheProbe(MetricsRegistry& registry, uint64_t hits, uint64_t misses);
// Aggregate work done by one check/coverage request.
void RecordCheckWork(MetricsRegistry& registry, uint64_t configs,
                     uint64_t contracts_evaluated, uint64_t violations);

// The `stats` JSON ({requests, errors, verbs, cache, work}) and the terse
// shutdown summary, both read from the families recorded above.
JsonValue ServeStatsJson(const MetricsRegistry& registry);
std::string ServeSummaryText(const MetricsRegistry& registry);

}  // namespace concord

#endif  // SRC_SERVICE_METRICS_H_
