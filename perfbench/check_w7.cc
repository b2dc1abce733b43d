// check-w7: check a million-line flat WAN role-7 corpus, as `concord check`
// does with coverage on: ConfigParser::Parse per config, ParseContracts,
// BuildIndexes, Checker construction, Checker::Check, ReportJson.
//
// Contracts are learned in set-up from 48 configs spread evenly over the
// corpus, and a handful of MutationEngine faults are planted in the checked
// copy. Untraced and traced passes run the same code; tracing only turns the
// spans and allocation counting on.
#include <unistd.h>

#include <optional>
#include <set>

#include "perfbench/compose.h"
#include "perfbench/harness.h"
#include "src/check/checker.h"
#include "src/contracts/contract_io.h"
#include "src/datagen/mutation.h"
#include "src/learn/index.h"
#include "src/learn/learner.h"
#include "src/report/report.h"
#include "src/util/hash.h"
#include "src/util/trace.h"

namespace perfbench {

using namespace concord;

namespace {

struct CheckWorld {
  GeneratedCorpus corpus;  // The checked copy, faults planted.
  std::string contracts;   // Serialized set learned from the training sample.
  std::vector<Mutation> faults;
};

CheckWorld BuildWorld(const CorpusSpec& spec, uint64_t seed, size_t training_configs,
                      const std::vector<MutationKind>& fault_kinds) {
  CheckWorld world;
  world.corpus = Generate(spec, seed);
  GeneratedCorpus training;
  const size_t stride = std::max<size_t>(1, world.corpus.configs.size() / training_configs);
  for (size_t i = 0; i < world.corpus.configs.size() && training.configs.size() < training_configs;
       i += stride) {
    training.configs.push_back(world.corpus.configs[i]);
  }
  training.metadata = world.corpus.metadata;
  Dataset dataset = ParseCorpus(training);
  world.contracts = SerializeContracts(Learner(LearnOptions{}).Learn(dataset).set,
                                       dataset.patterns);
  MutationEngine engine(seed);
  for (MutationKind kind : fault_kinds) {
    if (std::optional<Mutation> fault = engine.Apply(&world.corpus, kind)) {
      world.faults.push_back(*fault);
    }
  }
  return world;
}

std::vector<MutationKind> FaultKinds(const JsonValue& spec) {
  std::vector<MutationKind> kinds;
  const JsonValue* names = spec.Find("faults");
  if (names == nullptr) {
    return kinds;
  }
  for (const JsonValue& name : names->items()) {
    for (MutationKind kind :
         {MutationKind::kDropLine, MutationKind::kCorruptValue, MutationKind::kSwapAdjacentLines,
          MutationKind::kDuplicateUniqueValue, MutationKind::kRetypeValue,
          MutationKind::kBreakSequence}) {
      if (name.is_string() && name.AsString() == MutationKindName(kind)) {
        kinds.push_back(kind);
      }
    }
  }
  return kinds;
}

struct PassOutput {
  uint64_t report_hash = 0;
  size_t report_bytes = 0;
  size_t violations = 0;
  std::set<std::string> flagged_configs;
};

PassOutput CheckPass(Tracer& tracer, uint32_t id, const Lexer& lexer, const CheckWorld& world) {
  Tracer::Scope root(tracer, "check.pass", id);
  Dataset dataset;
  ParseInto(tracer, lexer, world.corpus.configs, world.corpus.metadata, ParseOptions{},
            &dataset);
  std::optional<ContractSet> set;
  {
    Tracer::Scope span(tracer, "contracts.load");
    std::string error;
    set = ParseContracts(world.contracts, &dataset.patterns, &error);
    if (!set) {
      throw std::runtime_error("cannot parse learned contracts: " + error);
    }
  }
  std::vector<ConfigIndex> indexes;
  {
    Tracer::Scope span(tracer, "learn.index");
    indexes = BuildIndexes(dataset);
  }
  std::vector<const ConfigIndex*> pointers;
  pointers.reserve(indexes.size());
  for (const ConfigIndex& index : indexes) {
    pointers.push_back(&index);
  }
  std::optional<Checker> checker;
  {
    Tracer::Scope span(tracer, "check.plan");
    checker.emplace(&*set, &dataset.patterns);
  }
  CheckResult result;
  {
    Tracer::Scope span(tracer, "check.scan");
    result = checker->Check(pointers, CheckOptions{});
  }
  std::string report;
  {
    Tracer::Scope span(tracer, "report.json");
    report = ReportJson(result, *set, dataset.patterns);
  }
  PassOutput out;
  out.report_hash = Fnv1a64(report);
  out.report_bytes = report.size();
  out.violations = result.violations.size();
  for (const Mutation& fault : world.faults) {
    for (const Violation& violation : result.violations) {
      if (violation.config == fault.config_name) {
        out.flagged_configs.insert(fault.config_name);
        break;
      }
    }
  }
  // Freeing what each layer built is part of the check path's cost.
  {
    Tracer::Scope span(tracer, "check.release");
    result = CheckResult();
    checker.reset();
  }
  {
    Tracer::Scope span(tracer, "learn.release");
    pointers = {};
    indexes = {};
  }
  Tracer::Scope span(tracer, "pattern.release");
  dataset = Dataset();
  return out;
}

}  // namespace

RunResult RunCheckW7(const Options& o) {
  RunResult r;
  const CorpusSpec corpus_spec = CorpusSpecOf(o.spec);
  const size_t training = static_cast<size_t>(o.spec.GetInt("training_configs").value_or(48));
  const std::vector<MutationKind> fault_kinds = FaultKinds(o.spec);
  CheckWorld world;
  const double setup_s =
      TimedSetups(static_cast<int>(o.spec.GetInt("setup_repetitions").value_or(3)), [&](bool keep) {
        CheckWorld built = BuildWorld(corpus_spec, o.seed, training, fault_kinds);
        if (keep) {
          world = std::move(built);
        }
      });
  for (const auto& [key, value] : Provenance(o, corpus_spec, world.corpus)) {
    r.Note("provenance " + key + " = " + value);
  }
  r.Note("provenance training_configs = " + std::to_string(training));
  r.Note("provenance planted_faults = " + std::to_string(world.faults.size()));
  const double lines = static_cast<double>(world.corpus.TotalLines());
  const Lexer lexer;

  std::optional<PassOutput> reference;
  auto verify = [&](const PassOutput& out) {
    ++r.attempted;
    if (!reference) {
      reference = out;
    } else if (out.report_hash != reference->report_hash ||
               out.report_bytes != reference->report_bytes) {
      r.Fail("check-w7: report bytes differ between repetitions");
    }
  };

  Tracer off(false);
  verify(CheckPass(off, 0, lexer, world));  // Warm-up and reference; untimed.
  std::vector<double> pass_s;
  std::vector<double> calibration_s;
  const int64_t start = NowNs();
  const double untraced_budget = o.trace ? o.seconds / 2 : o.seconds;
  while (pass_s.size() < (o.trace ? 2u : 3u) ||
         Seconds(NowNs() - start) < untraced_budget) {
    if (!o.trace) {
      calibration_s.push_back(CalibrationSeconds());
    }
    int64_t begin = NowNs();
    PassOutput out = CheckPass(off, 0, lexer, world);
    pass_s.push_back(Seconds(NowNs() - begin));
    verify(out);
  }
  const double median_pass_s = Median(pass_s);
  r.NoteSamples("pass_s", pass_s);
  r.Note("planted faults in a flagged config: " +
         std::to_string(reference->flagged_configs.size()) + " of " +
         std::to_string(world.faults.size()));

  if (!o.trace) {
    EmitEndToEnd(r, setup_s, lines / median_pass_s, calibration_s, PeakRssMb(getpid()));
    r.Print("check_lines_per_s", lines / median_pass_s, "lines/s",
            "n=" + std::to_string(pass_s.size()) + " passes; " +
                std::to_string(reference->violations) + " violations, report " +
                std::to_string(reference->report_bytes) + " bytes");
    r.Print("peak_rss_mb", PeakRssMb(getpid()), "MB", "perfbench process");
    r.Print("error_rate", static_cast<double>(r.failed) / static_cast<double>(r.attempted),
            "ratio");
    return r;
  }

  Tracer tracer(true);
  std::vector<LayerTotals> passes;
  std::vector<double> traced_s;
  EnableAllocationCounting(true);
  const int64_t traced_start = NowNs();
  while (passes.size() < 2 || Seconds(NowNs() - traced_start) < o.seconds / 2) {
    const size_t first = tracer.spans().size();
    int64_t begin = NowNs();
    PassOutput out = CheckPass(tracer, static_cast<uint32_t>(passes.size()), lexer, world);
    traced_s.push_back(Seconds(NowNs() - begin));
    passes.push_back(tracer.Totals(first));
    verify(out);
  }
  EnableAllocationCounting(false);
  std::string mismatch;
  if (!AllocsRepeat(passes, &mismatch)) {
    r.Fail("check-w7: allocation count of layer " + mismatch + " differs between passes");
  }
  tracer.WriteJson(o.work_dir + "/trace-check-w7.json");

  PrintLayerRows(r, passes);
  const double parse_s = MedianSeconds(passes, "pattern.parse");
  const double scan_s = MedianSeconds(passes, "check.scan");
  EmitPerLayer(r,
               {
                   {"pattern.parse_s", parse_s},
                   {"pattern.parse_lines_per_s", lines / parse_s},
                   {"pattern.parse_allocs_per_line", MedianAllocs(passes, "pattern.parse") / lines},
                   {"learn.index_s", MedianSeconds(passes, "learn.index")},
                   {"check.plan_s", MedianSeconds(passes, "check.plan")},
                   {"check.scan_s", scan_s},
                   {"check.scan_lines_per_s", lines / scan_s},
                   {"check.scan_allocs", MedianAllocs(passes, "check.scan")},
                   {"report.json_s", MedianSeconds(passes, "report.json")},
                   {"report.json_bytes", static_cast<double>(reference->report_bytes)},
                   {"unattributed_s", MedianSeconds(passes, "check.pass")},
                   {"trace_overhead", Median(traced_s) / median_pass_s},
               },
               "median of " + std::to_string(passes.size()) + " traced passes");
  return r;
}

}  // namespace perfbench
