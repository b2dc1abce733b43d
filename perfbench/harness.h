// Shared machinery of the perfbench workloads: the span recorder that times the
// calls into each module's public functions, order statistics, the workload
// spec, provenance, and the result every workload run returns.
//
// Spans are written only by perfbench's own code, around public calls; the
// program under test is not instrumented. A disabled Tracer costs one branch
// per span, so untraced and traced runs execute the same composition.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/datagen/corpus.h"
#include "src/datagen/generator.h"
#include "src/format/json.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }


// One timed public call. `parent` indexes the enclosing span (-1 at the root);
// `request` ties together the spans of one pass or one serve request.
struct Span {
  const char* name = "";
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
  uint64_t allocs_begin = 0;
  uint64_t allocs_end = 0;
};

// Self time and self allocations of every span name over a set of spans.
struct LayerTotal {
  int64_t self_ns = 0;
  uint64_t self_allocs = 0;
  uint64_t calls = 0;
};
using LayerTotals = std::map<std::string, LayerTotal>;

// In-memory span recorder for one thread. Spans are kept until the run ends
// and written out once (WriteJson).
class Tracer {
 public:
  // An enabled tracer reserves its span storage up front, so that recording
  // allocates nothing inside the spans it measures.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  int32_t Open(const char* name, uint32_t request);
  void Close(int32_t id);

  // Per-name self totals over the spans with index >= `first`. A span's self
  // time is its duration minus the durations of its direct children.
  LayerTotals Totals(size_t first = 0) const;

  // Writes every span as one JSON document (chrome trace_event "X" events).
  bool WriteJson(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint32_t request = 0)
        : tracer_(tracer), id_(tracer.enabled() ? tracer.Open(name, request) : -1) {}
    ~Scope() {
      if (id_ >= 0) {
        tracer_.Close(id_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int32_t id_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Order statistics (nearest rank) over a copy of the samples; 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(const std::vector<double>& samples) { return Quantile(samples, 0.5); }

// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload run hands back to main: the result object's fields plus the
// human-readable lines printed before it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;     // The BENCHMARK.json set for this mode.
  std::vector<std::string> lines;  // Named metrics, ladder steps, notes.

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  // A human-readable line (also used for the named, ungated metrics).
  void Note(const std::string& line) { lines.push_back(line); }
  void Print(const std::string& name, double value, const std::string& unit,
             const std::string& extra = "");
  // One line listing every sample, e.g. the wall seconds of each pass.
  void NoteSamples(const std::string& what, const std::vector<double>& samples);
  // A failed output check: counted as a failed operation, marks the run wrong.
  void Fail(const std::string& what);
};

// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;      // Scratch space inside the checkout.
  std::string concord_path;  // The `concord` CLI built alongside perfbench.
  std::string source_id;     // Git commit, or a hash of the source tree.
  concord::JsonValue spec;   // This workload's object from workloads.json.
};

// The (family, seed, knobs) triple of a workload, read from its spec.
struct CorpusSpec {
  std::string family;
  concord::Knobs knobs;
};
CorpusSpec CorpusSpecOf(const concord::JsonValue& spec);
concord::GeneratedCorpus Generate(const CorpusSpec& corpus, uint64_t seed);

// Provenance line fields common to every workload; workloads append theirs.
std::map<std::string, std::string> Provenance(const Options& options,
                                              const CorpusSpec& corpus,
                                              const concord::GeneratedCorpus& generated);

// Peak resident set of a process (VmHWM), in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);
// User+system CPU seconds a process has used so far; <0 when unreadable.
double CpuSeconds(pid_t pid);

// Times a fixed amount of work that does not depend on concord: building,
// hashing, sorting and freeing 100k config-like strings. Its time tracks how
// fast this host runs allocation- and cache-heavy code at the moment.
double CalibrationSeconds();

// The BENCHMARK.json metric sets, in order. Every run prints all of one set:
// a per-layer metric a workload does not exercise reads 0.
//
// The gated lines_per_s and setup_s are scaled to a reference host speed:
// rates by median(calibration_s) / kCalibrationReferenceS, times by its
// inverse. On a shared host the whole machine speeds up and slows down by
// tens of percent between runs; the scaling removes most of that while
// leaving every change to concord's own code in full. Raw values are printed
// beside them.
inline constexpr double kCalibrationReferenceS = 0.1;
void EmitEndToEnd(RunResult& result, double raw_setup_s, double raw_lines_per_s,
                  const std::vector<double>& calibration_s, double peak_rss_mb);
void EmitPerLayer(RunResult& result, const std::map<std::string, double>& values,
                  const std::string& note);

// One "layer" line per span name: median self seconds, allocations and calls.
void PrintLayerRows(RunResult& result, const std::vector<LayerTotals>& passes);

// Median over passes of one layer's self seconds or self allocations.
double MedianSeconds(const std::vector<LayerTotals>& passes, const std::string& layer);
double MedianAllocs(const std::vector<LayerTotals>& passes, const std::string& layer);
// True when every pass made the same number of allocations in every layer.
bool AllocsRepeat(const std::vector<LayerTotals>& passes, std::string* first_mismatch);

// Runs `setup` `repetitions` times and returns the median wall seconds; the
// caller keeps the state the last repetition built.
template <typename Fn>
double TimedSetups(int repetitions, Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repetitions; ++i) {
    int64_t begin = NowNs();
    setup(i == repetitions - 1);
    seconds.push_back(Seconds(NowNs() - begin));
  }
  return Median(seconds);
}

RunResult RunLearnW1(const Options& options);
RunResult RunCheckW7(const Options& options);
RunResult RunServeE2(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
