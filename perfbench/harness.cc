#include "perfbench/harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "src/util/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) {
    spans_.reserve(size_t{1} << 19);
    open_.reserve(64);
  }
}

int32_t Tracer::Open(const char* name, uint32_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.allocs_begin = concord::AllocationCount();
  span.begin_ns = NowNs();
  spans_.push_back(span);
  int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::Close(int32_t id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  span.allocs_end = concord::AllocationCount();
  open_.pop_back();
}

LayerTotals Tracer::Totals(size_t first) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  std::vector<uint64_t> child_allocs(spans_.size(), 0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0 && static_cast<size_t>(span.parent) >= first) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.begin_ns;
      child_allocs[static_cast<size_t>(span.parent)] += span.allocs_end - span.allocs_begin;
    }
  }
  LayerTotals totals;
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    LayerTotal& total = totals[span.name];
    total.self_ns += span.end_ns - span.begin_ns - child_ns[i];
    total.self_allocs += span.allocs_end - span.allocs_begin - child_allocs[i];
    ++total.calls;
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().begin_ns;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << (span.begin_ns - epoch) / 1000.0
        << ",\"dur\":" << (span.end_ns - span.begin_ns) / 1000.0 << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << ",\"allocs\":" << (span.allocs_end - span.allocs_begin) << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

void RunResult::Print(const std::string& name, double value, const std::string& unit,
                      const std::string& extra) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  Note("metric " + name + " = " + buffer + " " + unit + (extra.empty() ? "" : "  (" + extra + ")"));
}

void RunResult::NoteSamples(const std::string& what, const std::vector<double>& samples) {
  std::string line = "samples " + what + ":";
  for (double sample : samples) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, " %.6g", sample);
    line += buffer;
  }
  Note(line);
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  ++failed;
  Note("CHECK FAILED: " + what);
}

CorpusSpec CorpusSpecOf(const concord::JsonValue& spec) {
  CorpusSpec corpus;
  const concord::JsonValue* generator = spec.Find("generator");
  if (generator == nullptr) {
    throw std::runtime_error("workload spec has no generator");
  }
  corpus.family = generator->GetString("family").value_or("");
  if (const concord::JsonValue* knobs = generator->Find("knobs")) {
    for (const auto& [key, value] : knobs->members()) {
      corpus.knobs.Set(key, value.is_string() ? value.AsString() : value.NumberSpelling());
    }
  }
  return corpus;
}

concord::GeneratedCorpus Generate(const CorpusSpec& corpus, uint64_t seed) {
  return concord::GenerateFamily(concord::GeneratorRegistry::Global(), corpus.family, seed,
                                 corpus.knobs);
}

std::map<std::string, std::string> Provenance(const Options& options,
                                              const CorpusSpec& corpus,
                                              const concord::GeneratedCorpus& generated) {
  return {
      {"workload", options.workload},
      {"family", corpus.family},
      {"seed", std::to_string(options.seed)},
      {"knobs", corpus.knobs.Fingerprint()},
      {"corpus_configs", std::to_string(generated.configs.size())},
      {"corpus_metadata", std::to_string(generated.metadata.size())},
      {"corpus_lines", std::to_string(generated.TotalLines())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"source", options.source_id},
      {"trace", options.trace ? "1" : "0"},
      {"seconds", std::to_string(options.seconds)},
  };
}

namespace {

std::string ProcFile(pid_t pid, const char* leaf) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + leaf);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

double PeakRssMb(pid_t pid) {
  std::string status = ProcFile(pid, "status");
  size_t at = status.find("VmHWM:");
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

double CpuSeconds(pid_t pid) {
  std::string stat = ProcFile(pid, "stat");
  size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return -1;
  }
  // Fields after "pid (comm)": state is field 3; utime and stime are 14 and 15.
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double CalibrationSeconds() {
  const int64_t begin = NowNs();
  std::vector<std::string> lines;
  lines.reserve(100000);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    lines.push_back("interface Ethernet" + std::to_string(x % 64) + "/" + std::to_string(i % 48) +
                    " ip address 10." + std::to_string((x >> 8) % 256) + "." +
                    std::to_string((x >> 16) % 256) + ".1/30");
  }
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < lines.size(); ++i) {
    index.emplace(lines[i], i);
  }
  std::sort(lines.begin(), lines.end());
  if (index.empty() || lines.front().empty()) {
    throw std::logic_error("calibration built nothing");  // Keeps the work observable.
  }
  return Seconds(NowNs() - begin);
}

void EmitEndToEnd(RunResult& result, double raw_setup_s, double raw_lines_per_s,
                  const std::vector<double>& calibration_s, double peak_rss_mb) {
  const double scale = Median(calibration_s) / kCalibrationReferenceS;
  result.Add("setup_s", raw_setup_s / scale, "s");
  result.Add("lines_per_s", raw_lines_per_s * scale, "lines/s");
  result.Add("peak_rss_mb", peak_rss_mb, "MB");
  result.NoteSamples("calibration_s", calibration_s);
  const std::string scaled = " at calibration scale " + std::to_string(scale);
  result.Print("setup_s", raw_setup_s / scale, "s",
               "raw " + std::to_string(raw_setup_s) + scaled);
  result.Print("lines_per_s", raw_lines_per_s * scale, "lines/s",
               "raw " + std::to_string(raw_lines_per_s) + scaled);
}

void EmitPerLayer(RunResult& result, const std::map<std::string, double>& values,
                  const std::string& note) {
  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"pattern.parse_s", "s"},
      {"pattern.parse_lines_per_s", "lines/s"},
      {"pattern.parse_allocs_per_line", "allocs/line"},
      {"learn.index_s", "s"},
      {"learn.summarize_s", "s"},
      {"learn.summarize_relational_s", "s"},
      {"learn.summarize_allocs", "count"},
      {"learn.aggregate_s", "s"},
      {"learn.aggregate_allocs", "count"},
      {"minimize.minimize_s", "s"},
      {"contracts.serialize_s", "s"},
      {"check.plan_s", "s"},
      {"check.scan_s", "s"},
      {"check.scan_lines_per_s", "lines/s"},
      {"check.scan_allocs", "count"},
      {"report.json_s", "s"},
      {"report.json_bytes", "bytes"},
      {"format.request_decode_us", "us"},
      {"service.check_us.p50", "us"},
      {"service.check_us.p99", "us"},
      {"service.update_us", "us"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.allocs_per_check", "count"},
      {"frontend.overhead_us", "us"},
      {"frontend.shed.overloaded", "count"},
      {"frontend.shed.rate_limited", "count"},
      {"loadgen.lag_ms", "ms"},
      {"unattributed_s", "s"},
      {"trace_overhead", "ratio"},
  };
  for (const auto& [name, unit] : kPerLayer) {
    auto it = values.find(name);
    result.Add(name, it == values.end() ? 0.0 : it->second, unit);
    if (it != values.end()) {
      result.Print(name, it->second, unit, note);
    }
  }
  for (const auto& [name, value] : values) {
    bool listed = false;
    for (const auto& [known, unit] : kPerLayer) {
      listed = listed || name == known;
    }
    if (!listed) {
      throw std::logic_error("per-layer metric not in the benchmark's list: " + name);
    }
  }
}

void PrintLayerRows(RunResult& result, const std::vector<LayerTotals>& passes) {
  std::map<std::string, uint64_t> calls;
  for (const LayerTotals& pass : passes) {
    for (const auto& [name, total] : pass) {
      calls[name] = std::max(calls[name], total.calls);
    }
  }
  for (const auto& [name, max_calls] : calls) {
    char line[256];
    std::snprintf(line, sizeof line, "layer %-28s self_s %10.6f  allocs %12.0f  calls %llu",
                  name.c_str(), MedianSeconds(passes, name), MedianAllocs(passes, name),
                  static_cast<unsigned long long>(max_calls));
    result.Note(line);
  }
}

double MedianSeconds(const std::vector<LayerTotals>& passes, const std::string& layer) {
  std::vector<double> values;
  for (const LayerTotals& pass : passes) {
    auto it = pass.find(layer);
    values.push_back(it == pass.end() ? 0.0 : Seconds(it->second.self_ns));
  }
  return Median(values);
}

double MedianAllocs(const std::vector<LayerTotals>& passes, const std::string& layer) {
  std::vector<double> values;
  for (const LayerTotals& pass : passes) {
    auto it = pass.find(layer);
    values.push_back(it == pass.end() ? 0.0 : static_cast<double>(it->second.self_allocs));
  }
  return Median(values);
}

bool AllocsRepeat(const std::vector<LayerTotals>& passes, std::string* first_mismatch) {
  for (size_t i = 1; i < passes.size(); ++i) {
    for (const auto& [name, total] : passes[0]) {
      auto it = passes[i].find(name);
      if (it == passes[i].end() || it->second.self_allocs != total.self_allocs) {
        *first_mismatch = name;
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
