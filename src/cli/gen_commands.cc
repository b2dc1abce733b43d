#include "src/cli/gen_commands.h"

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "src/cli/cli.h"
#include "src/datagen/generator.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/harness.h"
#include "src/util/argparse.h"
#include "src/util/io.h"

namespace concord {

namespace {

namespace fs = std::filesystem;

// The shared generator flag surface: --seed/--family/--knob/--out-dir. Both
// `datagen` and `fuzz` call this.
void AddGeneratorFlags(ArgParser* args) {
  args->AddFlag("seed", "generation seed (uint64)", "1");
  args->AddFlag("family", "generator family (repeatable; see --list-families)");
  args->AddFlag("knob", "family/fuzzer knob assignment key=value (repeatable)");
  args->AddFlag("out-dir", "output directory");
}

// Folds --knob assignments into `knobs`.
bool KnobsFromArgs(const ArgParser& args, Knobs* knobs, std::ostream& err) {
  for (const std::string& assignment : args.GetAll("knob")) {
    std::string error;
    if (!knobs->Assign(assignment, &error)) {
      err << "error: " << error << "\n";
      return false;
    }
  }
  return true;
}

std::optional<uint64_t> SeedFromArgs(const ArgParser& args, std::ostream& err) {
  std::string text = args.Get("seed");
  try {
    size_t used = 0;
    uint64_t seed = std::stoull(text, &used);
    if (used == text.size()) {
      return seed;
    }
  } catch (...) {
  }
  err << "error: --seed must be a uint64, got '" << text << "'\n";
  return std::nullopt;
}

std::string Hex16(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void ListFamilies(const GeneratorRegistry& registry, std::ostream& out) {
  for (const Generator* generator : registry.All()) {
    out << generator->Describe() << "\n";
  }
}

}  // namespace

int RunDatagen(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err) {
  ArgParser args;
  AddGeneratorFlags(&args);
  args.AddBoolFlag("list-families", "print every registered family and its knobs");
  args.AddBoolFlag("quiet", "suppress the summary line");
  if (!args.Parse(argc, argv, 2)) {
    err << "error: " << args.error() << "\n" << args.Usage();
    return 2;
  }
  const GeneratorRegistry& registry = GeneratorRegistry::Global();
  if (args.GetBool("list-families")) {
    ListFamilies(registry, out);
    return 0;
  }
  if (!args.Has("family")) {
    err << "error: --family is required (try --list-families)\n";
    return 2;
  }
  std::string family = args.Get("family");
  const Generator* generator = registry.Find(family);
  if (generator == nullptr) {
    err << "error: unknown family '" << family << "' (try --list-families)\n";
    return 2;
  }
  if (!args.Has("out-dir")) {
    err << "error: --out-dir is required\n";
    return 2;
  }
  Knobs knobs;
  if (!KnobsFromArgs(args, &knobs, err)) {
    return 2;
  }
  std::vector<std::string> unknown = knobs.UnknownKeys(generator->knobs());
  if (!unknown.empty()) {
    err << "error: family '" << family << "' does not understand knob";
    for (const std::string& key : unknown) {
      err << " '" << key << "'";
    }
    err << "\n" << generator->Describe();
    return 2;
  }
  std::optional<uint64_t> seed = SeedFromArgs(args, err);
  if (!seed) {
    return 2;
  }

  GeneratedCorpus corpus = GenerateFamily(registry, family, *seed, knobs);
  fs::path base = args.Get("out-dir");
  fs::create_directories(base / "configs");
  for (const GeneratedConfig& config : corpus.configs) {
    WriteFile((base / "configs" / config.name).string(), config.text);
  }
  if (!corpus.metadata.empty()) {
    fs::create_directories(base / "metadata");
    for (const GeneratedConfig& doc : corpus.metadata) {
      WriteFile((base / "metadata" / doc.name).string(), doc.text);
    }
  }
  if (!args.GetBool("quiet")) {
    out << "wrote " << corpus.configs.size() << " config(s), "
        << corpus.TotalLines() << " line(s), " << corpus.metadata.size()
        << " metadata file(s) for family '" << family << "' (seed " << *seed
        << ") under " << base.string() << "\n";
  }
  return 0;
}

int RunFuzz(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  ArgParser args;
  AddGeneratorFlags(&args);
  args.AddFlag("runs", "fresh fuzz cases to run (rotating over families)", "50");
  args.AddFlag("corpus-dir", "directory of committed repro JSONs to replay first");
  args.AddFlag("deadline-ms", "per-case wall-clock budget (never-hang oracle)",
               "30000");
  args.AddFlag("support", "learn support floor used by every oracle", "2");
  args.AddFlag("work-dir",
               "scratch directory for the serve-vs-CLI oracle "
               "(default: under the system temp dir)");
  args.AddBoolFlag("list-families", "print families and fuzzer knobs, then exit");
  args.AddBoolFlag("no-minimize", "persist failing specs without shrinking them");
  args.AddBoolFlag("no-serve-oracle", "skip the serve-vs-CLI differential oracle");
  args.AddBoolFlag("no-socket", "skip the epoll-frontend round-trip");
  args.AddBoolFlag("verbose", "log every case, not just failures");
  if (!args.Parse(argc, argv, 2)) {
    err << "error: " << args.error() << "\n" << args.Usage();
    return 2;
  }
  const GeneratorRegistry& registry = GeneratorRegistry::Global();
  if (args.GetBool("list-families")) {
    ListFamilies(registry, out);
    out << "fuzzer knobs (apply on top of any family):\n";
    for (const KnobSpec& spec : FuzzKnobSpecs()) {
      out << "  " << spec.name << " (default: " << spec.default_value << ")  "
          << spec.help << "\n";
    }
    return 0;
  }

  CampaignOptions options;
  options.families = args.GetAll("family");
  for (const std::string& family : options.families) {
    if (registry.Find(family) == nullptr) {
      err << "error: unknown family '" << family << "' (try --list-families)\n";
      return 2;
    }
  }
  std::optional<uint64_t> seed = SeedFromArgs(args, err);
  if (!seed) {
    return 2;
  }
  options.seed = *seed;
  options.runs = static_cast<int>(args.GetInt("runs").value_or(50));
  if (!KnobsFromArgs(args, &options.knobs, err)) {
    return 2;
  }
  options.corpus_dir = args.Get("corpus-dir");
  options.out_dir = args.Get("out-dir");
  options.minimize = !args.GetBool("no-minimize");
  options.verbose = args.GetBool("verbose");
  options.oracle.deadline_ms = args.GetInt("deadline-ms").value_or(30000);
  options.oracle.support = static_cast<int>(args.GetInt("support").value_or(2));
  options.oracle.socket = !args.GetBool("no-socket");

  // Scratch for the serve-vs-CLI oracle. The pid only names the directory —
  // nothing about the campaign's corpora or verdicts depends on it.
  fs::path work_dir;
  bool scratch_is_ours = false;
  if (args.GetBool("no-serve-oracle")) {
    options.oracle.run_cli = nullptr;
  } else {
    options.oracle.run_cli = &RunConcord;
    if (args.Has("work-dir")) {
      work_dir = args.Get("work-dir");
    } else {
      work_dir = fs::temp_directory_path() /
                 ("concord-fuzz-" + std::to_string(::getpid()));
      scratch_is_ours = true;
    }
    options.oracle.work_dir = work_dir.string();
  }

  CampaignResult result = RunFuzzCampaign(registry, options, out);

  if (scratch_is_ours) {
    std::error_code ec;
    fs::remove_all(work_dir, ec);  // best effort; scratch only
  }

  out << "fuzz: " << result.cases << " case(s)";
  if (result.replayed > 0) {
    out << " (" << result.replayed << " replayed)";
  }
  out << ": " << result.clean << " clean, " << result.crashes << " crash, "
      << result.mismatches << " mismatch, " << result.timeouts << " timeout\n";
  out << "verdict fingerprint: " << Hex16(result.verdict_fingerprint) << "\n";
  return result.ok() ? 0 : 1;
}

}  // namespace concord
