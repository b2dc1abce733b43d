// learn-w1: parse and learn a WAN role-1 corpus with the paper's defaults.
//
// Untraced passes time what `concord learn` runs: ConfigParser::Parse per
// config, Learner::Learn, SerializeContracts. Traced passes run the same work
// composed from the learner's public calls (compose.h) with a span on each.
#include <unistd.h>

#include <cstdio>

#include "perfbench/compose.h"
#include "perfbench/harness.h"
#include "src/contracts/contract_io.h"
#include "src/learn/learner.h"
#include "src/util/trace.h"

namespace perfbench {

using namespace concord;

namespace {

// The precision floor recorded for `seed`, else the general floor.
double PrecisionFloor(const JsonValue& spec, uint64_t seed) {
  const JsonValue* floors = spec.Find("precision_floor");
  if (floors == nullptr) {
    return 0;
  }
  return floors->GetDouble(std::to_string(seed))
      .value_or(floors->GetDouble("other").value_or(0));
}

}  // namespace

RunResult RunLearnW1(const Options& o) {
  RunResult r;
  const CorpusSpec corpus_spec = CorpusSpecOf(o.spec);
  const LearnOptions options{};  // Paper defaults: S=5, C=0.96, score 4.0, one thread.
  GeneratedCorpus corpus;
  const int setups = static_cast<int>(o.spec.GetInt("setup_repetitions").value_or(5));
  const double setup_s = TimedSetups(setups, [&](bool keep) {
    GeneratedCorpus generated = Generate(corpus_spec, o.seed);
    if (keep) {
      corpus = std::move(generated);
    }
  });
  for (const auto& [key, value] : Provenance(o, corpus_spec, corpus)) {
    r.Note("provenance " + key + " = " + value);
  }
  const double lines = static_cast<double>(corpus.TotalLines());
  const Lexer lexer;

  // Untraced passes: the user path. The first (warm-up) pass also scores
  // precision and keeps the reference bytes.
  std::string reference;
  double precision = -1;
  std::vector<double> pass_s;
  auto untraced_pass = [&]() {
    int64_t begin = NowNs();
    Tracer off(false);
    Dataset dataset;
    ParseInto(off, lexer, corpus.configs, corpus.metadata, ParseOptions{}, &dataset);
    LearnResult learned = Learner(options).Learn(dataset);
    std::string bytes = SerializeContracts(learned.set, dataset.patterns);
    pass_s.push_back(Seconds(NowNs() - begin));
    ++r.attempted;
    if (precision < 0) {
      size_t true_positives = 0;
      for (const Contract& contract : learned.set.contracts) {
        true_positives += corpus.truth.IsTruePositive(contract, dataset.patterns) ? 1 : 0;
      }
      precision = learned.set.contracts.empty()
                      ? 0
                      : static_cast<double>(true_positives) /
                            static_cast<double>(learned.set.contracts.size());
      reference = std::move(bytes);
    } else if (bytes != reference) {
      r.Fail("learn-w1: contract-set bytes differ between repetitions");
    }
  };

  untraced_pass();  // Warm-up: fills caches and the allocator; untimed.
  pass_s.clear();
  r.attempted = 0;
  std::vector<double> calibration_s;
  const int64_t start = NowNs();
  const double untraced_budget = o.trace ? o.seconds / 2 : o.seconds;
  while (pass_s.size() < (o.trace ? 2u : 3u) ||
         Seconds(NowNs() - start) < untraced_budget) {
    if (!o.trace) {
      calibration_s.push_back(CalibrationSeconds());
    }
    untraced_pass();
  }

  const double floor = PrecisionFloor(o.spec, o.seed);
  if (precision < floor) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer, "learn_precision %.6f below the floor %.6f", precision,
                  floor);
    r.Fail(buffer);
  }

  const double median_pass_s = Median(pass_s);
  r.NoteSamples("pass_s", pass_s);
  const std::string n = "n=" + std::to_string(pass_s.size()) + " passes";
  if (!o.trace) {
    EmitEndToEnd(r, setup_s, lines / median_pass_s, calibration_s, PeakRssMb(getpid()));
    r.Print("learn_lines_per_s", lines / median_pass_s, "lines/s",
            n + ", min " + std::to_string(lines / Quantile(pass_s, 1.0)) + ", max " +
                std::to_string(lines / Quantile(pass_s, 0.0)));
    r.Print("learn_precision", precision, "ratio", "floor " + std::to_string(floor));
    r.Print("peak_rss_mb", PeakRssMb(getpid()), "MB", "perfbench process");
    r.Print("error_rate", static_cast<double>(r.failed) / static_cast<double>(r.attempted),
            "ratio");
    return r;
  }

  // Traced passes: the composition, with allocation counting on.
  Tracer tracer(true);
  std::vector<LayerTotals> passes;
  std::vector<double> traced_s;
  EnableAllocationCounting(true);
  const int64_t traced_start = NowNs();
  while (passes.size() < 2 || Seconds(NowNs() - traced_start) < o.seconds / 2) {
    const size_t first = tracer.spans().size();
    int64_t begin = NowNs();
    std::string bytes;
    {
      Tracer::Scope root(tracer, "learn.pass", static_cast<uint32_t>(passes.size()));
      Dataset dataset;
      ParseInto(tracer, lexer, corpus.configs, corpus.metadata, ParseOptions{}, &dataset);
      bytes = LearnComposed(tracer, dataset, options);
      Tracer::Scope span(tracer, "pattern.release");
      dataset = Dataset();
    }
    traced_s.push_back(Seconds(NowNs() - begin));
    passes.push_back(tracer.Totals(first));
    ++r.attempted;
    if (bytes != reference) {
      r.Fail("learn-w1: composed learn differs from Learner::Learn");
    }
  }
  EnableAllocationCounting(false);
  std::string mismatch;
  if (!AllocsRepeat(passes, &mismatch)) {
    r.Fail("learn-w1: allocation count of layer " + mismatch + " differs between passes");
  }
  tracer.WriteJson(o.work_dir + "/trace-learn-w1.json");

  PrintLayerRows(r, passes);
  const double parse_s = MedianSeconds(passes, "pattern.parse");
  const std::map<std::string, double> layers = {
      {"pattern.parse_s", parse_s},
      {"pattern.parse_lines_per_s", lines / parse_s},
      {"pattern.parse_allocs_per_line", MedianAllocs(passes, "pattern.parse") / lines},
      {"learn.index_s", MedianSeconds(passes, "learn.index")},
      {"learn.summarize_s", MedianSeconds(passes, "learn.summarize") +
                                MedianSeconds(passes, "learn.summarize_relational")},
      {"learn.summarize_relational_s", MedianSeconds(passes, "learn.summarize_relational")},
      {"learn.summarize_allocs", MedianAllocs(passes, "learn.summarize") +
                                     MedianAllocs(passes, "learn.summarize_relational")},
      {"learn.aggregate_s", MedianSeconds(passes, "learn.aggregate")},
      {"learn.aggregate_allocs", MedianAllocs(passes, "learn.aggregate")},
      {"minimize.minimize_s", MedianSeconds(passes, "minimize.minimize")},
      {"contracts.serialize_s", MedianSeconds(passes, "contracts.serialize")},
      {"unattributed_s", MedianSeconds(passes, "learn.pass")},
      {"trace_overhead", Median(traced_s) / median_pass_s},
  };
  EmitPerLayer(r, layers, "median of " + std::to_string(passes.size()) + " traced passes");
  return r;
}

}  // namespace perfbench
