#include "src/cli/cli.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "src/format/json.h"
#include "src/util/fault.h"
#include "src/util/io.h"

namespace concord {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process path: concurrent runs (e.g. plain and sanitized ctest in
    // side-by-side build trees) must not race on remove_all below.
    dir_ = std::filesystem::temp_directory_path() /
           ("concord_cli_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "configs");
    for (int i = 1; i <= 6; ++i) {
      WriteFile((dir_ / "configs" / ("dev" + std::to_string(i) + ".cfg")).string(),
                Config(i));
    }
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  static std::string Config(int i) {
    std::string s = std::to_string(i);
    return "hostname DEV" + s +
           "\n"
           "interface Loopback0\n"
           "   ip address 10.14." +
           s +
           ".34\n"
           "ip prefix-list loopback\n"
           "   seq 10 permit 10.14." +
           s +
           ".34/32\n"
           "router bgp 65015\n"
           "   vlan 25" +
           s +
           "\n"
           "      rd 10.99.0." +
           s + ":1025" + s + "\n";
  }

  int Run(const std::vector<std::string>& args, std::string* stdout_text = nullptr,
          std::string* stderr_text = nullptr) {
    std::vector<const char*> argv;
    argv.push_back("concord");
    for (const std::string& a : args) {
      argv.push_back(a.c_str());
    }
    std::ostringstream out, err;
    int code = RunConcord(static_cast<int>(argv.size()), argv.data(), out, err);
    if (stdout_text != nullptr) {
      *stdout_text = out.str();
    }
    if (stderr_text != nullptr) {
      *stderr_text = err.str();
    }
    return code;
  }

  std::string ConfigsGlob() const { return (dir_ / "configs" / "*.cfg").string(); }
  std::string ContractsPath() const { return (dir_ / "contracts.json").string(); }

  std::filesystem::path dir_;
};

TEST_F(CliTest, LearnWritesContractFile) {
  std::string out;
  int code = Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                  ContractsPath()},
                 &out);
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(std::filesystem::exists(ContractsPath()));
  EXPECT_NE(out.find("contracts:"), std::string::npos);
  EXPECT_NE(out.find("patterns:"), std::string::npos);
}

TEST_F(CliTest, CheckCleanConfigsExitsZero) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  std::string out;
  int code =
      Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath()}, &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("violations: 0"), std::string::npos);
  EXPECT_NE(out.find("coverage:"), std::string::npos);
}

TEST_F(CliTest, CheckBuggyConfigExitsOneAndWritesReports) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3",
                 "--score-threshold", "3", "--out", ContractsPath()}),
            0);
  // Break the loopback/prefix-list dependency in one config.
  std::string bad = Config(3);
  bad = bad.replace(bad.find("seq 10 permit 10.14.3.34/32"),
                    std::string("seq 10 permit 10.14.3.34/32").size(),
                    "seq 10 permit 10.14.77.34/32");
  WriteFile((dir_ / "configs" / "dev3.cfg").string(), bad);

  std::string json_path = (dir_ / "report.json").string();
  std::string html_path = (dir_ / "report.html").string();
  std::string out;
  int code = Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                  "--json-out", json_path, "--html-out", html_path},
                 &out);
  EXPECT_EQ(code, 1);
  std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("violations"), std::string::npos);
  EXPECT_NE(json.find("dev3.cfg"), std::string::npos);
  std::string html = ReadFile(html_path);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("dev3.cfg"), std::string::npos);
}

TEST_F(CliTest, UsageErrors) {
  std::string err;
  EXPECT_EQ(Run({}, nullptr, &err), 2);
  EXPECT_NE(err.find("usage"), std::string::npos);
  EXPECT_EQ(Run({"frobnicate"}, nullptr, &err), 2);
  EXPECT_EQ(Run({"learn"}, nullptr, &err), 2);  // Missing --configs.
  EXPECT_EQ(Run({"learn", "--bogus", "1"}, nullptr, &err), 2);
  EXPECT_EQ(Run({"learn", "--configs", (dir_ / "nothing" / "*.cfg").string()}, nullptr, &err),
            2);
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts",
                 (dir_ / "missing.json").string()},
                nullptr, &err),
            2);
}

TEST_F(CliTest, DisableCategory) {
  std::string out;
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--disable",
                 "ordering", "--disable", "relational", "--out", ContractsPath()},
                &out),
            0);
  EXPECT_NE(out.find("ordering: 0"), std::string::npos);
  EXPECT_NE(out.find("relational: 0"), std::string::npos);
  EXPECT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--disable", "nonsense"}), 2);
}

TEST_F(CliTest, ConstantsModeRoundTrips) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--constants",
                 "--out", ContractsPath()}),
            0);
  std::string json = ReadFile(ContractsPath());
  EXPECT_NE(json.find("\"constantsMode\": true"), std::string::npos);
  // Check mode picks constants up from the contract file automatically.
  std::string out;
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath()}, &out),
            0);
}

TEST_F(CliTest, CoverageOutWritesPerLineListing) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  std::string coverage_path = (dir_ / "coverage.txt").string();
  ASSERT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                 "--coverage-out", coverage_path}),
            0);
  std::string coverage = ReadFile(coverage_path);
  EXPECT_NE(coverage.find("dev1.cfg:1 "), std::string::npos);
  EXPECT_NE(coverage.find("present"), std::string::npos);
}

TEST_F(CliTest, SuppressDropsContracts) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3",
                 "--score-threshold", "3", "--out", ContractsPath()}),
            0);
  // Break a relational dependency, find the violating contract's key, suppress it.
  std::string bad = Config(3);
  bad = bad.replace(bad.find("seq 10 permit 10.14.3.34/32"),
                    std::string("seq 10 permit 10.14.3.34/32").size(),
                    "seq 10 permit 10.14.77.34/32");
  WriteFile((dir_ / "configs" / "dev3.cfg").string(), bad);

  std::string json_path = (dir_ / "report.json").string();
  ASSERT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                 "--json-out", json_path}),
            1);
  // Collect every violated contract key into a suppression file.
  std::string report = ReadFile(json_path);
  std::string suppressions;
  size_t pos = 0;
  while ((pos = report.find("\"key\": \"", pos)) != std::string::npos) {
    pos += 8;
    size_t end = report.find('"', pos);
    suppressions += report.substr(pos, end - pos) + "\n";
  }
  ASSERT_FALSE(suppressions.empty());
  std::string suppress_path = (dir_ / "suppress.txt").string();
  WriteFile(suppress_path, suppressions);

  // With every offender suppressed, the check passes.
  std::string out;
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                 "--suppress", suppress_path},
                &out),
            0);
  EXPECT_NE(out.find("suppressed"), std::string::npos);
}

TEST_F(CliTest, CheckSkipsUnreadableFileAndExitsPartial) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  // ReadFile hit 1 is the contract file; hit 2 is the first config (dev1.cfg).
  ASSERT_TRUE(FaultInjector::Global().Configure("read_file:fail_nth=2"));
  std::string json_path = (dir_ / "report.json").string();
  std::string out;
  int code = Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                  "--json-out", json_path},
                 &out);
  FaultInjector::Global().Reset();
  EXPECT_EQ(code, 3);  // Partial: distinct from clean (0), violations (1), error (2).
  EXPECT_NE(out.find("degraded: 1 input file(s) skipped (5 checked)"), std::string::npos);
  EXPECT_NE(out.find("dev1.cfg: injected fault: read_file"), std::string::npos);
  std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("dev1.cfg"), std::string::npos);
}

TEST_F(CliTest, LearnSkipsUnreadableFileAndExitsPartial) {
  // Learn has no contract file to read, so hit 2 is the second config.
  ASSERT_TRUE(FaultInjector::Global().Configure("read_file:fail_nth=2"));
  std::string out;
  int code = Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                  ContractsPath()},
                 &out);
  FaultInjector::Global().Reset();
  EXPECT_EQ(code, 3);
  EXPECT_TRUE(std::filesystem::exists(ContractsPath()));  // Learned from survivors.
  EXPECT_NE(out.find("configs: 5"), std::string::npos);
  EXPECT_NE(out.find("degraded: 1 input file(s) skipped"), std::string::npos);
  EXPECT_NE(out.find("dev2.cfg: injected fault: read_file"), std::string::npos);
}

TEST_F(CliTest, AllInputsFailingIsAnErrorNotPartial) {
  ASSERT_TRUE(FaultInjector::Global().Configure("read_file:fail_all"));
  std::string err;
  int code = Run({"learn", "--configs", ConfigsGlob()}, nullptr, &err);
  FaultInjector::Global().Reset();
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("all 6 configuration file(s) failed"), std::string::npos);
}

TEST_F(CliTest, DeadlineExceededIsAStructuredError) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  // The injected delay guarantees the 1 ms budget is spent before checking starts.
  ASSERT_TRUE(FaultInjector::Global().Configure("check:delay_ms=50"));
  std::string err;
  int code = Run({"check", "--configs", ConfigsGlob(), "--contracts", ContractsPath(),
                  "--deadline-ms", "1"},
                 nullptr, &err);
  FaultInjector::Global().Reset();
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("error: deadline_exceeded"), std::string::npos);
}

TEST_F(CliTest, CustomLexerFile) {
  std::string lexer_path = (dir_ / "lexer.txt").string();
  WriteFile(lexer_path, "iface ([eE]t|[pP]o)-?[0-9]+\n");
  std::string out;
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--lexer",
                 lexer_path, "--out", ContractsPath()},
                &out),
            0);
  EXPECT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--lexer", "/nonexistent"}), 2);
}

TEST_F(CliTest, IncrementalLearnReusesBaselineAndReportsDelta) {
  std::string baseline = (dir_ / "state.json").string();
  std::string out;

  // First run: no baseline yet, full learn, state written.
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--incremental", "--baseline", baseline},
                &out),
            0);
  EXPECT_NE(out.find("no usable baseline"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(baseline));
  std::string first = ReadFile(ContractsPath());

  // Second run, unchanged inputs: the learn is skipped, output is bit-identical.
  std::string second_path = (dir_ / "contracts2.json").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 second_path, "--incremental", "--baseline", baseline},
                &out),
            0);
  EXPECT_NE(out.find("unchanged since baseline"), std::string::npos);
  EXPECT_EQ(ReadFile(second_path), first);

  // Changing one config forces a relearn and reports the delta.
  WriteFile((dir_ / "configs" / "dev3.cfg").string(), Config(3) + "ntp server 10.0.0.9\n");
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--incremental", "--baseline", baseline},
                &out),
            0);
  EXPECT_NE(out.find("0 added, 0 removed, 1 modified"), std::string::npos);

  // Incremental output equals a from-scratch learn of the same inputs.
  std::string scratch_path = (dir_ / "contracts3.json").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 scratch_path}),
            0);
  EXPECT_EQ(ReadFile(ContractsPath()), ReadFile(scratch_path));
}

TEST_F(CliTest, IncrementalLearnInvalidatesOnOptionChange) {
  std::string baseline = (dir_ / "state.json").string();
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--incremental", "--baseline", baseline}),
            0);
  std::string out;
  // Same inputs but a different threshold: the baseline must not be reused.
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "4", "--out",
                 ContractsPath(), "--incremental", "--baseline", baseline},
                &out),
            0);
  EXPECT_EQ(out.find("unchanged since baseline"), std::string::npos);
  EXPECT_NE(out.find("options changed"), std::string::npos);
}

TEST_F(CliTest, ProfilePrintsBreakdownAndWritesChromeTrace) {
  std::string trace_path = (dir_ / "trace.json").string();
  std::string out;
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath(), "--profile", "--trace-out", trace_path},
                &out),
            0);
  // The per-stage breakdown lists the learn pipeline stages.
  EXPECT_NE(out.find("profile: per-stage breakdown"), std::string::npos);
  for (const char* stage : {"learn/parse", "learn/index", "learn/mine",
                            "learn/aggregate", "learn/minimize", "learn/total"}) {
    EXPECT_NE(out.find(stage), std::string::npos) << stage;
  }
  EXPECT_NE(out.find("wrote trace"), std::string::npos);

  // The trace file is loadable Chrome trace_event JSON with complete events.
  auto trace = JsonValue::Parse(ReadFile(trace_path));
  ASSERT_TRUE(trace.has_value());
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items().empty());
  bool saw_total = false;
  for (const JsonValue& event : events->items()) {
    EXPECT_EQ(event.GetString("ph"), "X");
    if (event.GetString("cat") == "learn" && event.GetString("name") == "total") {
      saw_total = true;
    }
  }
  EXPECT_TRUE(saw_total);
}

TEST_F(CliTest, CheckProfileCoversTheCheckStages) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  std::string out;
  ASSERT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts",
                 ContractsPath(), "--profile"},
                &out),
            0);
  EXPECT_NE(out.find("profile: per-stage breakdown"), std::string::npos);
  EXPECT_NE(out.find("check/total"), std::string::npos);
}

TEST_F(CliTest, JsonReportCarriesErrorEnvelope) {
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3", "--out",
                 ContractsPath()}),
            0);
  std::string json_path = (dir_ / "report.json").string();

  // v1 report: degraded entries carry the structured {code, message} envelope.
  ASSERT_TRUE(FaultInjector::Global().Configure("read_file:fail_nth=2"));
  ASSERT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts",
                 ContractsPath(), "--json-out", json_path}),
            3);
  FaultInjector::Global().Reset();
  auto report = JsonValue::Parse(ReadFile(json_path));
  ASSERT_TRUE(report.has_value());
  const JsonValue* degraded = report->Find("degraded");
  ASSERT_NE(degraded, nullptr);
  ASSERT_EQ(degraded->items().size(), 1u);
  const JsonValue* entry_error = degraded->items()[0].Find("error");
  ASSERT_NE(entry_error, nullptr);
  EXPECT_EQ(entry_error->GetString("code"), "io_error");
  EXPECT_NE(entry_error->GetString("message")->find("injected fault"),
            std::string::npos);
}

TEST_F(CliTest, FlagsAreKebabCaseOnly) {
  // A generous --deadline-ms budget means the run still succeeds end to end.
  ASSERT_EQ(Run({"learn", "--configs", ConfigsGlob(), "--support", "3",
                 "--score-threshold", "3.0", "--out", ContractsPath()}),
            0);
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts",
                 ContractsPath(), "--deadline-ms", "60000"}),
            0);
  std::string err;
  EXPECT_EQ(Run({"check", "--configs", ConfigsGlob(), "--contracts",
                 ContractsPath(), "--deadline_ms", "60000"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("unknown flag: --deadline_ms"), std::string::npos) << err;
}

TEST_F(CliTest, RemovedServeAndCheckFlagsAreUnknown) {
  struct Case {
    std::vector<std::string> args;
    std::string flag;
  };
  const std::vector<Case> cases = {
      {{"serve", "--shards", "2"}, "--shards"},
      {{"serve", "--compat-v0"}, "--compat-v0"},
      {{"check", "--configs", ConfigsGlob(), "--compat-v0"}, "--compat-v0"},
  };
  for (const Case& c : cases) {
    std::string err;
    EXPECT_EQ(Run(c.args, nullptr, &err), 2) << c.args[0] << " " << c.flag;
    EXPECT_NE(err.find("unknown flag: " + c.flag), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace concord
