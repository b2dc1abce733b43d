#include "src/service/metrics.h"

#include <sstream>

namespace concord {

void LatencyHistogram::Record(uint64_t micros) {
  ++count;
  sum_micros += micros;
  if (micros > max_micros) {
    max_micros = micros;
  }
  size_t bucket = 0;
  while (bucket + 1 < kNumBuckets && micros >= (uint64_t{2} << bucket)) {
    ++bucket;
  }
  ++buckets[bucket];
}

JsonValue LatencyHistogram::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue::Number(static_cast<int64_t>(count)));
  out.Set("sum_micros", JsonValue::Number(static_cast<int64_t>(sum_micros)));
  out.Set("max_micros", JsonValue::Number(static_cast<int64_t>(max_micros)));
  out.Set("mean_micros",
          JsonValue::Number(count == 0 ? 0.0
                                       : static_cast<double>(sum_micros) /
                                             static_cast<double>(count)));
  JsonValue buckets_json = JsonValue::Array();
  // Trailing empty buckets are elided so small snapshots stay readable.
  size_t last = kNumBuckets;
  while (last > 0 && buckets[last - 1] == 0) {
    --last;
  }
  for (size_t i = 0; i < last; ++i) {
    buckets_json.Append(JsonValue::Number(static_cast<int64_t>(buckets[i])));
  }
  out.Set("buckets", std::move(buckets_json));
  return out;
}

void LatencyHistogram::AppendPrometheus(std::string* out, std::string_view name,
                                        const std::string& labels) const {
  // Bucket i spans [2^i, 2^(i+1)), so its cumulative upper bound is 2^(i+1);
  // the final (absorbing) bucket renders only as +Inf.
  uint64_t cumulative = 0;
  for (size_t i = 0; i + 1 < kNumBuckets; ++i) {
    cumulative += buckets[i];
    out->append(name);
    out->append("_bucket{");
    if (!labels.empty()) {
      out->append(labels);
      out->push_back(',');
    }
    out->append("le=\"" + std::to_string(uint64_t{2} << i) + "\"} " +
                std::to_string(cumulative) + "\n");
  }
  out->append(name);
  out->append("_bucket{");
  if (!labels.empty()) {
    out->append(labels);
    out->push_back(',');
  }
  out->append("le=\"+Inf\"} " + std::to_string(count) + "\n");
  out->append(name);
  out->append("_sum");
  if (!labels.empty()) {
    out->append("{" + labels + "}");
  }
  out->append(" " + std::to_string(sum_micros) + "\n");
  out->append(name);
  out->append("_count");
  if (!labels.empty()) {
    out->append("{" + labels + "}");
  }
  out->append(" " + std::to_string(count) + "\n");
}

namespace {

// Renders `labels` as `k1="v1",k2="v2"`, escaping values per the exposition
// format (backslash, quote, newline), into a per-thread buffer so probing an
// existing cell allocates nothing. The result is valid until the calling
// thread's next call.
const std::string& RenderLabels(const MetricsRegistry::Labels& labels) {
  thread_local std::string out;
  out.clear();
  for (const auto& [key, value] : labels) {
    if (!out.empty()) {
      out += ',';
    }
    out += key;
    out += "=\"";
    for (char c : value) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    out += '"';
  }
  return out;
}

std::string FormatGauge(double value) {
  // Integral gauges render without a fractional part so expositions stay tidy.
  if (value == static_cast<double>(static_cast<int64_t>(value))) {
    return std::to_string(static_cast<int64_t>(value));
  }
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

MetricsRegistry::Cell& MetricsRegistry::CellFor(std::string_view name,
                                                std::string_view help, Kind kind,
                                                const Labels& labels) {
  auto family = families_.find(name);
  if (family == families_.end()) {
    Family created;
    created.kind = kind;
    created.help = std::string(help);
    family = families_.emplace(std::string(name), std::move(created)).first;
  }
  auto& cells = family->second.cells;
  const std::string& key = RenderLabels(labels);
  auto cell = cells.find(key);
  if (cell == cells.end()) {
    Cell created;
    created.labels = labels;
    cell = cells.emplace(key, std::move(created)).first;
  }
  return cell->second;
}

void MetricsRegistry::Count(std::string_view name, std::string_view help,
                            const Labels& labels, uint64_t delta) {
  MutexLock lock(mu_);
  CellFor(name, help, Kind::kCounter, labels).counter += delta;
}

void MetricsRegistry::SetCounter(std::string_view name, std::string_view help,
                                 const Labels& labels, uint64_t value) {
  MutexLock lock(mu_);
  CellFor(name, help, Kind::kCounter, labels).counter = value;
}

void MetricsRegistry::SetGauge(std::string_view name, std::string_view help,
                               const Labels& labels, double value) {
  MutexLock lock(mu_);
  CellFor(name, help, Kind::kGauge, labels).gauge = value;
}

void MetricsRegistry::ObserveMicros(std::string_view name, std::string_view help,
                                    const Labels& labels, uint64_t micros) {
  MutexLock lock(mu_);
  CellFor(name, help, Kind::kHistogram, labels).histogram.Record(micros);
}

uint64_t MetricsRegistry::CounterValue(std::string_view name,
                                       const Labels& labels) const {
  MutexLock lock(mu_);
  auto family = families_.find(name);
  if (family == families_.end()) {
    return 0;
  }
  auto cell = family->second.cells.find(RenderLabels(labels));
  return cell == family->second.cells.end() ? 0 : cell->second.counter;
}

void MetricsRegistry::VisitFamily(
    std::string_view name, const std::function<void(const Cell&)>& visit) const {
  MutexLock lock(mu_);
  auto family = families_.find(name);
  if (family == families_.end()) {
    return;
  }
  for (const auto& [labels, cell] : family->second.cells) {
    visit(cell);
  }
}

std::string MetricsRegistry::PrometheusText() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " ";
    switch (family.kind) {
      case Kind::kCounter: out += "counter\n"; break;
      case Kind::kGauge: out += "gauge\n"; break;
      case Kind::kHistogram: out += "histogram\n"; break;
    }
    for (const auto& [labels, cell] : family.cells) {
      switch (family.kind) {
        case Kind::kCounter:
          out += name + (labels.empty() ? "" : "{" + labels + "}") + " " +
                 std::to_string(cell.counter) + "\n";
          break;
        case Kind::kGauge:
          out += name + (labels.empty() ? "" : "{" + labels + "}") + " " +
                 FormatGauge(cell.gauge) + "\n";
          break;
        case Kind::kHistogram:
          cell.histogram.AppendPrometheus(&out, name, labels);
          break;
      }
    }
  }
  return out;
}

namespace {

constexpr std::string_view kRequests = "concord_requests_total";
constexpr std::string_view kRequestsHelp = "Requests handled, by verb and outcome.";
constexpr std::string_view kLatency = "concord_request_latency_micros";
constexpr std::string_view kLatencyHelp =
    "Request wall time in microseconds, by verb.";
constexpr std::string_view kCacheProbes = "concord_config_cache_probes_total";
constexpr std::string_view kCacheProbesHelp = "Parsed-config cache probes, by result.";
constexpr std::string_view kConfigs = "concord_check_configs_total";
constexpr std::string_view kConfigsHelp = "Configs checked.";
constexpr std::string_view kEvaluated = "concord_check_contracts_evaluated_total";
constexpr std::string_view kEvaluatedHelp = "Contract evaluations performed.";
constexpr std::string_view kViolations = "concord_check_violations_total";
constexpr std::string_view kViolationsHelp = "Contract violations found.";

struct VerbTotals {
  uint64_t count = 0;
  uint64_t errors = 0;
  LatencyHistogram latency;
};

// What the `stats` JSON and the shutdown summary report, read from the cells
// the Record* functions below write.
struct ServeTotals {
  std::map<std::string, VerbTotals> verbs;  // In verb order.
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t configs = 0;
  uint64_t contracts_evaluated = 0;
  uint64_t violations = 0;
};

ServeTotals ReadServeTotals(const MetricsRegistry& registry) {
  ServeTotals totals;
  // Request cells carry {verb, status} labels, latency cells {verb}.
  registry.VisitFamily(kRequests, [&totals](const MetricsRegistry::Cell& cell) {
    VerbTotals& verb = totals.verbs[cell.labels[0].second];
    verb.count += cell.counter;
    if (cell.labels[1].second == "error") {
      verb.errors += cell.counter;
    }
  });
  registry.VisitFamily(kLatency, [&totals](const MetricsRegistry::Cell& cell) {
    totals.verbs[cell.labels[0].second].latency = cell.histogram;
  });
  for (const auto& [name, verb] : totals.verbs) {
    totals.requests += verb.count;
    totals.errors += verb.errors;
  }
  totals.cache_hits = registry.CounterValue(kCacheProbes, {{"result", "hit"}});
  totals.cache_misses = registry.CounterValue(kCacheProbes, {{"result", "miss"}});
  totals.configs = registry.CounterValue(kConfigs, {});
  totals.contracts_evaluated = registry.CounterValue(kEvaluated, {});
  totals.violations = registry.CounterValue(kViolations, {});
  return totals;
}

JsonValue Number(uint64_t n) { return JsonValue::Number(static_cast<int64_t>(n)); }

}  // namespace

void RecordServeRequest(MetricsRegistry& registry, std::string_view verb, bool ok,
                        uint64_t micros) {
  // Both outcome cells exist for every verb seen, so each verb always exposes
  // an ok and an error row.
  MetricsRegistry::Labels labels = {{"verb", std::string(verb)}, {"status", "ok"}};
  registry.Count(kRequests, kRequestsHelp, labels, ok ? 1 : 0);
  labels[1].second = "error";
  registry.Count(kRequests, kRequestsHelp, labels, ok ? 0 : 1);
  labels.pop_back();
  registry.ObserveMicros(kLatency, kLatencyHelp, labels, micros);
}

void RecordCacheProbe(MetricsRegistry& registry, uint64_t hits, uint64_t misses) {
  registry.Count(kCacheProbes, kCacheProbesHelp, {{"result", "hit"}}, hits);
  registry.Count(kCacheProbes, kCacheProbesHelp, {{"result", "miss"}}, misses);
}

void RecordCheckWork(MetricsRegistry& registry, uint64_t configs,
                     uint64_t contracts_evaluated, uint64_t violations) {
  registry.Count(kConfigs, kConfigsHelp, {}, configs);
  registry.Count(kEvaluated, kEvaluatedHelp, {}, contracts_evaluated);
  registry.Count(kViolations, kViolationsHelp, {}, violations);
}

JsonValue ServeStatsJson(const MetricsRegistry& registry) {
  ServeTotals totals = ReadServeTotals(registry);
  JsonValue verbs = JsonValue::Object();
  for (const auto& [name, verb] : totals.verbs) {
    JsonValue v = JsonValue::Object();
    v.Set("count", Number(verb.count));
    v.Set("errors", Number(verb.errors));
    v.Set("latency", verb.latency.ToJson());
    verbs.Set(name, std::move(v));
  }
  JsonValue out = JsonValue::Object();
  out.Set("requests", Number(totals.requests));
  out.Set("errors", Number(totals.errors));
  out.Set("verbs", std::move(verbs));

  JsonValue cache = JsonValue::Object();
  cache.Set("hits", Number(totals.cache_hits));
  cache.Set("misses", Number(totals.cache_misses));
  uint64_t probes = totals.cache_hits + totals.cache_misses;
  cache.Set("hit_rate",
            JsonValue::Number(probes == 0 ? 0.0
                                          : static_cast<double>(totals.cache_hits) /
                                                static_cast<double>(probes)));
  out.Set("cache", std::move(cache));

  JsonValue work = JsonValue::Object();
  work.Set("configs_checked", Number(totals.configs));
  work.Set("contracts_evaluated", Number(totals.contracts_evaluated));
  work.Set("violations_found", Number(totals.violations));
  out.Set("work", std::move(work));
  return out;
}

std::string ServeSummaryText(const MetricsRegistry& registry) {
  ServeTotals totals = ReadServeTotals(registry);
  std::ostringstream out;
  out << "concord serve summary\n";
  out << "  requests: " << totals.requests << " (" << totals.errors << " errors)\n";
  for (const auto& [name, verb] : totals.verbs) {
    out << "    " << name << ": " << verb.count;
    if (verb.latency.count > 0) {
      out << " (mean " << verb.latency.sum_micros / verb.latency.count << "us, max "
          << verb.latency.max_micros << "us)";
    }
    out << "\n";
  }
  uint64_t probes = totals.cache_hits + totals.cache_misses;
  out << "  config cache: " << totals.cache_hits << " hits / " << totals.cache_misses
      << " misses";
  if (probes > 0) {
    out << " (" << (100 * totals.cache_hits) / probes << "% hit rate)";
  }
  out << "\n";
  out << "  checked: " << totals.configs << " configs, " << totals.contracts_evaluated
      << " contracts evaluated, " << totals.violations << " violations\n";
  return out.str();
}

}  // namespace concord
