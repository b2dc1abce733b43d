// serve-e2: `concord serve --workers 2 --parallelism 1` on an edge ToR corpus,
// driven over a Unix socket by one open-loop generator thread on two
// connections.
//
// Requests arrive as a Poisson process at each rate of a fixed ladder (spec
// "ladder"). The mix: single-config checks (half exact repeats, which hit the
// parsed-config cache, half with a unique benign drift, which miss it),
// 16-config fleet-CI batches, the three §5.5 incident replays, and update
// pairs (upsert a drifted config, then revert it) on a second resident dataset
// learned in set-up. Every check request carries its site's metadata.
//
// Latency is timed from each request's due time. Failed, shed and refused
// requests count as failures and as missing the latency limit.
//
// The traced run replays a fixed request sequence three ways: over the socket
// one request at a time, through an in-process Service untraced, and through a
// second in-process Service with spans and allocation counting, each request
// followed by the same work composed from the public calls (request decode,
// parse of cache misses, index, Checker::Check, report, and for updates the
// incremental relearn and checker rebuild). It then runs the ladder at half
// length for the generator lag and shed counts.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "perfbench/compose.h"
#include "perfbench/harness.h"
#include "src/check/checker.h"
#include "src/contracts/contract_io.h"
#include "src/datagen/mutation.h"
#include "src/learn/artifact_store.h"
#include "src/learn/index.h"
#include "src/learn/learner.h"
#include "src/report/report.h"
#include "src/service/service.h"
#include "src/util/hash.h"
#include "src/util/io.h"
#include "src/util/rng.h"
#include "src/util/trace.h"

namespace perfbench {

using namespace concord;

namespace {

constexpr const char* kCheckSet = "edge";
constexpr const char* kUpdateDataset = "upd";
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Request construction --------------------------------------------------

enum class Kind { kRepeat, kDrift, kBatch, kIncident, kUpdate };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kRepeat:
      return "repeat";
    case Kind::kDrift:
      return "drift";
    case Kind::kBatch:
      return "batch";
    case Kind::kIncident:
      return "incident";
    case Kind::kUpdate:
      return "update";
  }
  return "?";
}

struct NamedText {
  std::string name;
  std::string text;
};

struct Request {
  Kind kind = Kind::kRepeat;
  std::string line;
  std::vector<NamedText> configs;  // What a check request checks (for the shadow).
  std::vector<NamedText> metadata;
  size_t config_lines = 0;
  int incident = -1;
};

JsonValue NamedTextArray(const std::vector<NamedText>& items) {
  JsonValue array = JsonValue::Array();
  for (const NamedText& item : items) {
    JsonValue object = JsonValue::Object();
    object.Set("name", JsonValue::String(item.name));
    object.Set("text", JsonValue::String(item.text));
    array.Append(std::move(object));
  }
  return array;
}

size_t LineCount(const std::string& text) {
  size_t lines = 0;
  for (char c : text) {
    lines += c == '\n' ? 1 : 0;
  }
  return lines + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

Request CheckRequest(Kind kind, std::vector<NamedText> configs, std::vector<NamedText> metadata) {
  Request request;
  request.kind = kind;
  JsonValue object = JsonValue::Object();
  object.Set("v", JsonValue::Number(int64_t{1}));
  object.Set("verb", JsonValue::String("check"));
  object.Set("contracts", JsonValue::String(kCheckSet));
  object.Set("configs", NamedTextArray(configs));
  object.Set("metadata", NamedTextArray(metadata));
  request.line = object.Serialize();
  for (const NamedText& config : configs) {
    request.config_lines += LineCount(config.text);
  }
  request.configs = std::move(configs);
  request.metadata = std::move(metadata);
  return request;
}

Request UpdateRequest(const NamedText& config) {
  Request request;
  request.kind = Kind::kUpdate;
  JsonValue object = JsonValue::Object();
  object.Set("v", JsonValue::Number(int64_t{1}));
  object.Set("verb", JsonValue::String("update"));
  object.Set("dataset", JsonValue::String(kUpdateDataset));
  object.Set("configs", NamedTextArray({config}));
  request.line = object.Serialize();
  request.configs = {config};
  return request;
}

// The edge corpus split by site, plus the incident replays and the contracts.
struct ServeWorld {
  GeneratedCorpus corpus;
  std::vector<std::vector<size_t>> site_configs;  // Config indexes per site.
  std::vector<NamedText> site_metadata;           // One metadata file per site.
  std::vector<size_t> config_site;
  std::vector<NamedText> incidents;  // Mutated configs (one per replay).
  std::vector<size_t> incident_site;
  std::vector<size_t> incident_clean_violations;  // Of the unmutated config.
  std::string contracts_json;
  std::string contracts_path;
  std::string learn_line;                // Defines the update dataset.
  std::vector<std::string> warm_lines;   // Fill the parsed-config cache.
};

// "E2-site12-dev3.cfg" and "site12.meta.json" both name site 12.
int SiteOf(const std::string& name) {
  size_t at = name.find("site");
  return at == std::string::npos ? -1 : std::atoi(name.c_str() + at + 4);
}

NamedText Named(const GeneratedConfig& config) { return NamedText{config.name, config.text}; }

size_t ViolationsOf(const std::string& contracts_json, const std::vector<NamedText>& configs,
                    const std::vector<NamedText>& metadata, std::string* report_out = nullptr) {
  Dataset dataset;
  std::string error;
  std::optional<ContractSet> set = ParseContracts(contracts_json, &dataset.patterns, &error);
  if (!set) {
    throw std::runtime_error("cannot parse learned contracts: " + error);
  }
  Lexer lexer;
  ConfigParser parser(&lexer, &dataset.patterns, ParseOptions{});
  for (const NamedText& config : configs) {
    dataset.configs.push_back(parser.Parse(config.name, config.text));
  }
  for (const NamedText& meta : metadata) {
    for (ParsedLine& line : parser.ParseMetadata(meta.text)) {
      dataset.metadata.push_back(std::move(line));
    }
  }
  Checker checker(&*set, &dataset.patterns);
  CheckResult result = checker.Check(dataset, /*measure_coverage=*/true);
  if (report_out != nullptr) {
    *report_out = ReportJson(result, *set, dataset.patterns);
  }
  return result.violations.size();
}

ServeWorld BuildWorld(const CorpusSpec& spec, uint64_t seed, const std::string& work_dir) {
  ServeWorld world;
  world.corpus = Generate(spec, seed);
  std::map<int, size_t> site_index;
  for (const GeneratedConfig& meta : world.corpus.metadata) {
    site_index[SiteOf(meta.name)] = world.site_metadata.size();
    world.site_metadata.push_back(Named(meta));
  }
  world.site_configs.resize(world.site_metadata.size());
  for (size_t i = 0; i < world.corpus.configs.size(); ++i) {
    auto it = site_index.find(SiteOf(world.corpus.configs[i].name));
    if (it == site_index.end()) {
      throw std::runtime_error("config without site metadata: " + world.corpus.configs[i].name);
    }
    world.site_configs[it->second].push_back(i);
    world.config_site.push_back(it->second);
  }

  Dataset dataset = ParseCorpus(world.corpus);
  world.contracts_json =
      SerializeContracts(Learner(LearnOptions{}).Learn(dataset).set, dataset.patterns);
  world.contracts_path = work_dir + "/serve-e2-contracts.json";
  WriteFile(world.contracts_path, world.contracts_json);

  using Replay = std::optional<Mutation> (*)(GeneratedCorpus*);
  for (Replay replay : {Replay{ReplayMissingAggregate}, Replay{ReplaySpuriousVlan},
                        Replay{ReplayVrfReorder}}) {
    GeneratedCorpus copy = world.corpus;
    std::optional<Mutation> mutation = replay(&copy);
    if (!mutation) {
      throw std::runtime_error("could not stage an incident replay");
    }
    for (size_t i = 0; i < copy.configs.size(); ++i) {
      if (copy.configs[i].name == mutation->config_name) {
        world.incidents.push_back(Named(copy.configs[i]));
        world.incident_site.push_back(world.config_site[i]);
        world.incident_clean_violations.push_back(
            ViolationsOf(world.contracts_json, {Named(world.corpus.configs[i])},
                         {world.site_metadata[world.config_site[i]]}));
      }
    }
  }

  JsonValue learn = JsonValue::Object();
  learn.Set("v", JsonValue::Number(int64_t{1}));
  learn.Set("verb", JsonValue::String("learn"));
  learn.Set("dataset", JsonValue::String(kUpdateDataset));
  std::vector<NamedText> all_configs;
  for (const GeneratedConfig& config : world.corpus.configs) {
    all_configs.push_back(Named(config));
  }
  learn.Set("configs", NamedTextArray(all_configs));
  learn.Set("metadata", NamedTextArray(world.site_metadata));
  world.learn_line = learn.Serialize();
  for (size_t site = 0; site < world.site_configs.size(); ++site) {
    std::vector<NamedText> configs;
    for (size_t i : world.site_configs[site]) {
      configs.push_back(Named(world.corpus.configs[i]));
    }
    world.warm_lines.push_back(
        CheckRequest(Kind::kBatch, std::move(configs), {world.site_metadata[site]}).line);
  }
  return world;
}

// Draws requests in the spec's mix. The mix is a deck of request kinds with
// the spec's counts per 100, shuffled anew each time it runs out, so every
// seed sends the same proportions; with independent draws the seed-to-seed
// spread in the number of updates (each ~50-80 ms of server CPU) alone moved
// CPU per checked line by ~20 %. Updates alternate: upsert a drifted config,
// then revert the same config.
class MixGenerator {
 public:
  MixGenerator(const ServeWorld& world, const JsonValue& mix, uint64_t seed)
      : world_(world), rng_(seed) {
    for (Kind kind : {Kind::kRepeat, Kind::kDrift, Kind::kBatch, Kind::kIncident,
                      Kind::kUpdate}) {
      deck_.insert(deck_.end(), static_cast<size_t>(mix.GetInt(KindName(kind)).value_or(0)),
                   kind);
    }
    if (deck_.empty()) {
      throw std::runtime_error("serve-e2 mix has no requests");
    }
    batch_size_ = static_cast<size_t>(mix.GetInt("batch_size").value_or(16));
    dealt_ = deck_.size();
  }

  Request Next() {
    if (dealt_ == deck_.size()) {
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.Below(i + 1)]);
      }
      dealt_ = 0;
    }
    const Kind kind = deck_[dealt_++];
    if (kind == Kind::kRepeat || kind == Kind::kDrift) {
      size_t i = rng_.Below(world_.corpus.configs.size());
      NamedText config = Named(world_.corpus.configs[i]);
      if (kind == Kind::kDrift) {
        config.text = Drift(config.text);
      }
      return CheckRequest(kind, {config}, {world_.site_metadata[world_.config_site[i]]});
    }
    if (kind == Kind::kBatch) {
      // Consecutive sites' configs, with each of those sites' metadata.
      size_t site = rng_.Below(world_.site_configs.size());
      std::vector<NamedText> configs;
      std::vector<NamedText> metadata;
      while (configs.size() < batch_size_) {
        metadata.push_back(world_.site_metadata[site]);
        for (size_t i : world_.site_configs[site]) {
          if (configs.size() < batch_size_) {
            configs.push_back(Named(world_.corpus.configs[i]));
          }
        }
        site = (site + 1) % world_.site_configs.size();
      }
      return CheckRequest(Kind::kBatch, std::move(configs), std::move(metadata));
    }
    if (kind == Kind::kIncident) {
      size_t which = rng_.Below(world_.incidents.size());
      Request request = CheckRequest(Kind::kIncident, {world_.incidents[which]},
                                     {world_.site_metadata[world_.incident_site[which]]});
      request.incident = static_cast<int>(which);
      return request;
    }
    if (reverting_ < 0) {
      reverting_ = static_cast<int64_t>(rng_.Below(world_.corpus.configs.size()));
      NamedText config = Named(world_.corpus.configs[static_cast<size_t>(reverting_)]);
      config.text = Drift(config.text);
      return UpdateRequest(config);
    }
    Request revert = UpdateRequest(Named(world_.corpus.configs[static_cast<size_t>(reverting_)]));
    reverting_ = -1;
    return revert;
  }

 private:
  // A comment line no contract mentions, unique per draw.
  std::string Drift(std::string text) {
    if (!text.empty() && text.back() != '\n') {
      text += '\n';
    }
    return text + "! perfbench drift " + std::to_string(++drift_) + "\n";
  }

  const ServeWorld& world_;
  SplitMix64 rng_;
  std::vector<Kind> deck_;
  size_t dealt_ = 0;
  size_t batch_size_ = 16;
  int64_t reverting_ = -1;
  uint64_t drift_ = 0;
};

// ---- The server process and its connections --------------------------------

class ServerProcess {
 public:
  ServerProcess(const std::string& concord, const std::string& contracts_path,
                const std::string& socket_path, const std::string& log_path,
                const JsonValue& server_spec)
      : socket_path_(socket_path) {
    ::unlink(socket_path.c_str());
    std::vector<std::string> args = {concord,
                                     "serve",
                                     "--contracts",
                                     std::string(kCheckSet) + "=" + contracts_path,
                                     "--socket",
                                     socket_path,
                                     "--quiet"};
    for (const auto& [flag, value] : server_spec.members()) {
      args.push_back("--" + flag);
      args.push_back(value.is_string() ? value.AsString() : value.NumberSpelling());
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // Never outlive the benchmark.
      int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      int null = ::open("/dev/null", O_RDWR);
      ::dup2(null, 0);
      ::dup2(null, 1);
      ::dup2(log >= 0 ? log : null, 2);
      std::vector<char*> argv;
      for (std::string& arg : args) {
        argv.push_back(arg.data());
      }
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  // Connects, retrying while the server starts; -1 after `timeout_ms`.
  int Connect(int timeout_ms) const {
    const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
    while (NowNs() < deadline) {
      int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_path_.c_str(), sizeof(addr.sun_path) - 1);
      if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
        return fd;
      }
      if (fd >= 0) {
        ::close(fd);
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        return -1;  // The server exited during start-up.
      }
      ::usleep(5000);
    }
    return -1;
  }

  // Waits for exit after a shutdown request; kills the server after the grace.
  void Stop() {
    if (pid_ <= 0) {
      return;
    }
    const int64_t deadline = NowNs() + 5'000'000'000;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
    ::unlink(socket_path_.c_str());
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

// One connection carrying pipelined NDJSON; replies come back in request order.
struct Connection {
  int fd = -1;
  std::string out;
  size_t out_sent = 0;
  std::deque<std::pair<size_t, size_t>> unsent;  // (end offset in out, slot)
  std::string in;
  size_t in_start = 0;
  std::deque<size_t> awaiting;  // Slots sent and not yet answered.

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Blocking request/response on a connection; empty on a transport error.
std::string RoundTrip(Connection& conn, const std::string& line) {
  if (!SendAll(conn.fd, line + "\n")) {
    return "";
  }
  while (true) {
    size_t newline = conn.in.find('\n', conn.in_start);
    if (newline != std::string::npos) {
      std::string reply = conn.in.substr(conn.in_start, newline - conn.in_start);
      conn.in_start = newline + 1;
      if (conn.in_start == conn.in.size()) {
        conn.in.clear();
        conn.in_start = 0;
      }
      return reply;
    }
    char buffer[1 << 16];
    ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return "";
    }
    conn.in.append(buffer, static_cast<size_t>(n));
  }
}

bool ReplyOk(std::string_view reply) {
  return reply.substr(0, 32).find("\"ok\":true") != std::string_view::npos;
}

// The error code of an error envelope ("" when the reply is ok or malformed).
std::string ErrorCodeOf(std::string_view reply) {
  size_t at = reply.find("\"code\":\"");
  if (at == std::string_view::npos) {
    return "";
  }
  size_t end = reply.find('"', at + 8);
  return std::string(reply.substr(at + 8, end == std::string_view::npos ? 0 : end - at - 8));
}

// The body's violation count: the first "violations" member is the count, set
// before the report object.
int64_t ViolationCountOf(std::string_view reply) {
  size_t at = reply.find("\"violations\":");
  if (at == std::string_view::npos) {
    return -1;
  }
  const char* digits = reply.data() + at + 13;
  return std::isdigit(static_cast<unsigned char>(*digits)) ? std::atoll(digits) : -1;
}

// ---- The open-loop ladder ---------------------------------------------------

struct Step {
  std::string name;
  double rate = 0;
  double seconds = 0;
  bool operating = true;  // low/mid/high; probe steps past saturation are not.
  std::vector<int64_t> due_ns;       // Offsets from the step start.
  std::vector<Request> requests;
};

struct Outcome {
  int64_t due = 0;
  int64_t sent = 0;
  int64_t done = -1;
  bool ok = false;
  std::string error;
  int64_t violations = -1;
};

struct StepStats {
  size_t sent = 0;
  size_t succeeded = 0;
  size_t failed = 0;
  std::map<std::string, size_t> errors;  // By error code ("timeout" when unanswered).
  std::vector<double> check_ms;          // Failures read +inf.
  std::vector<double> update_ms;
  std::vector<double> lag_ms;
  size_t backlog = 0;  // Due by the step's end but unanswered then.
  size_t checked_lines = 0;
  size_t incidents_answered = 0;
  size_t incidents_flagged = 0;
  double check_p50 = 0;
  double check_p99 = 0;
};

// Each step lasts its "share" of `seconds`.
std::vector<Step> BuildLadder(const JsonValue& ladder, MixGenerator& mix, SplitMix64& arrivals,
                              double seconds) {
  std::vector<Step> steps;
  for (const JsonValue& entry : ladder.items()) {
    Step step;
    step.name = entry.GetString("name").value_or("step");
    step.rate = entry.GetDouble("rate").value_or(10);
    step.seconds = entry.GetDouble("share").value_or(0.2) * seconds;
    step.operating = !entry.GetBool("probe").value_or(false);
    double t = 0;
    while (true) {
      t += -std::log(1.0 - arrivals.NextDouble()) / step.rate;
      if (t >= step.seconds) {
        break;
      }
      step.due_ns.push_back(static_cast<int64_t>(t * 1e9));
      step.requests.push_back(mix.Next());
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

StepStats RunStep(Connection* conns, size_t num_conns, const Step& step, const ServeWorld& world,
                  double drain_seconds) {
  const size_t n = step.requests.size();
  std::vector<Outcome> outcomes(n);
  const int64_t base = NowNs() + 1'000'000;
  const int64_t end = base + static_cast<int64_t>(step.seconds * 1e9);
  const int64_t give_up = end + static_cast<int64_t>(drain_seconds * 1e9);
  size_t next = 0;
  size_t answered = 0;
  size_t round_robin = 0;
  bool transport_error = false;
  std::vector<char> buffer(1 << 16);
  while (answered < n && !transport_error) {
    int64_t now = NowNs();
    if (now > give_up) {
      break;
    }
    while (next < n && base + step.due_ns[next] <= now) {
      const Request& request = step.requests[next];
      Connection& conn =
          request.kind == Kind::kUpdate ? conns[0] : conns[round_robin++ % num_conns];
      outcomes[next].due = base + step.due_ns[next];
      conn.out.append(request.line).push_back('\n');
      conn.unsent.emplace_back(conn.out.size(), next);
      ++next;
    }
    for (size_t c = 0; c < num_conns; ++c) {
      Connection& conn = conns[c];
      while (conn.out_sent < conn.out.size()) {
        ssize_t sent = ::send(conn.fd, conn.out.data() + conn.out_sent,
                              conn.out.size() - conn.out_sent, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (sent < 0 && errno == EINTR) {
          continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        }
        if (sent <= 0) {
          transport_error = true;
          break;
        }
        conn.out_sent += static_cast<size_t>(sent);
      }
      const int64_t sent_at = NowNs();
      while (!conn.unsent.empty() && conn.unsent.front().first <= conn.out_sent) {
        outcomes[conn.unsent.front().second].sent = sent_at;
        conn.awaiting.push_back(conn.unsent.front().second);
        conn.unsent.pop_front();
      }
      if (conn.out_sent == conn.out.size()) {
        conn.out.clear();  // Everything queued was sent, so `unsent` is empty.
        conn.out_sent = 0;
      }
    }
    pollfd fds[2];
    for (size_t c = 0; c < num_conns; ++c) {
      fds[c].fd = conns[c].fd;
      fds[c].events = static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    int64_t wait_ns = next < n ? base + step.due_ns[next] - NowNs() : give_up - NowNs();
    wait_ns = std::max<int64_t>(0, wait_ns);
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds, num_conns, &timeout, nullptr) < 0 && errno != EINTR) {
      transport_error = true;
    }
    for (size_t c = 0; c < num_conns; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      Connection& conn = conns[c];
      const size_t scanned = conn.in.size();
      while (true) {
        ssize_t got = ::recv(conn.fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
        if (got > 0) {
          conn.in.append(buffer.data(), static_cast<size_t>(got));
          continue;
        }
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          transport_error = true;
        }
        break;
      }
      if (transport_error || conn.in.size() == scanned) {
        continue;
      }
      const int64_t done_at = NowNs();
      size_t newline;
      while ((newline = conn.in.find('\n', conn.in_start)) != std::string::npos) {
        std::string_view reply(conn.in.data() + conn.in_start, newline - conn.in_start);
        conn.in_start = newline + 1;
        if (conn.awaiting.empty()) {
          transport_error = true;  // A reply nobody asked for.
          break;
        }
        Outcome& outcome = outcomes[conn.awaiting.front()];
        const Request& request = step.requests[conn.awaiting.front()];
        conn.awaiting.pop_front();
        outcome.done = done_at;
        outcome.ok = ReplyOk(reply);
        if (!outcome.ok) {
          outcome.error = ErrorCodeOf(reply);
        } else if (request.kind == Kind::kIncident) {
          outcome.violations = ViolationCountOf(reply);
        }
        ++answered;
      }
      if (conn.in_start == conn.in.size()) {
        conn.in.clear();
        conn.in_start = 0;
      }
    }
  }
  if (transport_error || answered < n) {
    throw std::runtime_error("serve-e2: step " + step.name + " lost its connection or replies (" +
                             std::to_string(answered) + " of " + std::to_string(n) + " answered)");
  }

  StepStats stats;
  stats.sent = n;
  for (size_t i = 0; i < n; ++i) {
    const Outcome& outcome = outcomes[i];
    const Request& request = step.requests[i];
    stats.lag_ms.push_back(static_cast<double>(outcome.sent - outcome.due) * 1e-6);
    if (outcome.done > end || outcome.done < 0) {
      stats.backlog += outcome.due <= end ? 1 : 0;
    }
    const double latency_ms =
        outcome.ok ? static_cast<double>(outcome.done - outcome.due) * 1e-6 : kInf;
    if (outcome.ok) {
      ++stats.succeeded;
    } else {
      ++stats.failed;
      ++stats.errors[outcome.error.empty() ? "malformed" : outcome.error];
    }
    if (request.kind == Kind::kUpdate) {
      stats.update_ms.push_back(latency_ms);
      continue;
    }
    stats.check_ms.push_back(latency_ms);
    if (outcome.ok) {
      stats.checked_lines += request.config_lines;
    }
    if (request.kind == Kind::kIncident && outcome.ok) {
      ++stats.incidents_answered;
      size_t clean = world.incident_clean_violations[static_cast<size_t>(request.incident)];
      stats.incidents_flagged += outcome.violations > static_cast<int64_t>(clean) ? 1 : 0;
    }
  }
  stats.check_p50 = Quantile(stats.check_ms, 0.50);
  stats.check_p99 = Quantile(stats.check_ms, 0.99);
  return stats;
}

std::string FormatMs(double ms) {
  if (!std::isfinite(ms)) {
    return "inf";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", ms);
  return buffer;
}

struct LadderResult {
  std::vector<StepStats> stats;
  double goodput_rps = 0;
  // Requests at the operating steps (low, mid, high). Failures at the probe
  // steps past saturation are expected and only show in their step's line.
  uint64_t operating_sent = 0;
  uint64_t operating_failed = 0;
  // Over the whole ladder: config lines in answered checks, server CPU time.
  size_t checked_lines = 0;
  double server_cpu_s = 0;
};

LadderResult RunLadder(Connection* conns, const std::vector<Step>& steps, const ServeWorld& world,
                       pid_t server, double limit_ms, double drain_seconds, RunResult& r) {
  LadderResult ladder;
  for (const Step& step : steps) {
    const double cpu_before = CpuSeconds(server);
    StepStats stats = RunStep(conns, 2, step, world, drain_seconds);
    const double cpu_s = CpuSeconds(server) - cpu_before;
    const bool backlog = stats.backlog > std::max<size_t>(4, stats.sent / 100);
    const bool meets = stats.failed == 0 && stats.check_p99 <= limit_ms && !backlog;
    if (meets) {
      ladder.goodput_rps = std::max(ladder.goodput_rps, step.rate);
    }
    if (step.operating) {
      ladder.operating_sent += stats.sent;
      ladder.operating_failed += stats.failed;
    }
    ladder.checked_lines += stats.checked_lines;
    ladder.server_cpu_s += cpu_s;
    std::string errors;
    for (const auto& [code, count] : stats.errors) {
      errors += " " + code + "=" + std::to_string(count);
    }
    char line[512];
    std::snprintf(line, sizeof line,
                  "step %-6s rate %7.1f/s  sent %5zu  succeeded %5zu  failed %4zu%s  "
                  "check p50 %s ms  p99 %s ms (n=%zu)  update p90 %s ms (n=%zu)  "
                  "lag p99 %s ms  backlog %zu%s%s",
                  step.name.c_str(), step.rate, stats.sent, stats.succeeded, stats.failed,
                  errors.c_str(), FormatMs(stats.check_p50).c_str(),
                  FormatMs(stats.check_p99).c_str(), stats.check_ms.size(),
                  FormatMs(Quantile(stats.update_ms, 0.90)).c_str(), stats.update_ms.size(),
                  FormatMs(Quantile(stats.lag_ms, 0.99)).c_str(), stats.backlog,
                  meets ? "  meets limit" : "", step.operating ? "" : "  (probe step)");
    r.Note(line);
    ladder.stats.push_back(std::move(stats));
  }
  return ladder;
}

// ---- Probes: socket replies against the facade -------------------------------

std::vector<Request> ProbeSet(const ServeWorld& world) {
  std::vector<Request> probes;
  const size_t site = 0;
  const GeneratedConfig& first = world.corpus.configs[world.site_configs[site][0]];
  probes.push_back(CheckRequest(Kind::kRepeat, {Named(first)}, {world.site_metadata[site]}));
  NamedText drifted = Named(first);
  drifted.text += "! perfbench probe drift\n";
  probes.push_back(CheckRequest(Kind::kDrift, {drifted}, {world.site_metadata[site]}));
  for (size_t i = 0; i < world.incidents.size(); ++i) {
    probes.push_back(CheckRequest(Kind::kIncident, {world.incidents[i]},
                                  {world.site_metadata[world.incident_site[i]]}));
  }
  std::vector<NamedText> batch;
  std::vector<NamedText> metadata;
  for (size_t s = 0; batch.size() < 16 && s < world.site_configs.size(); ++s) {
    metadata.push_back(world.site_metadata[s]);
    for (size_t i : world.site_configs[s]) {
      if (batch.size() < 16) {
        batch.push_back(Named(world.corpus.configs[i]));
      }
    }
  }
  probes.push_back(CheckRequest(Kind::kBatch, std::move(batch), std::move(metadata)));
  return probes;
}

void CheckProbes(Connection& conn, const ServeWorld& world, RunResult& r) {
  std::vector<Request> probes = ProbeSet(world);
  size_t equal = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    ++r.attempted;
    std::string facade;
    ViolationsOf(world.contracts_json, probes[i].configs, probes[i].metadata, &facade);
    std::string reply = RoundTrip(conn, probes[i].line);
    std::optional<JsonValue> parsed_reply = JsonValue::Parse(reply);
    std::optional<JsonValue> parsed_facade = JsonValue::Parse(facade);
    const JsonValue* report = parsed_reply ? parsed_reply->Find("report") : nullptr;
    if (report == nullptr || !parsed_facade || report->Serialize() != parsed_facade->Serialize()) {
      r.Fail("serve-e2: probe " + std::to_string(i) + " (" + KindName(probes[i].kind) +
             ") socket report differs from Checker::Check + ReportJson");
    } else {
      ++equal;
    }
  }
  r.Note("probes byte-equal to the facade: " + std::to_string(equal) + " of " +
         std::to_string(probes.size()));
}

// ---- Set-up -------------------------------------------------------------------

struct Session {
  ServeWorld world;
  std::unique_ptr<ServerProcess> server;
  Connection conns[2];
};

void StartSession(const Options& o, const CorpusSpec& spec, Session* session) {
  session->world = BuildWorld(spec, o.seed, o.work_dir);
  const JsonValue* server_spec = o.spec.Find("server");
  session->server = std::make_unique<ServerProcess>(
      o.concord_path, session->world.contracts_path, o.work_dir + "/serve-e2.sock",
      o.work_dir + "/serve-e2-server.log", server_spec ? *server_spec : JsonValue::Object());
  for (Connection& conn : session->conns) {
    conn.fd = session->server->Connect(10000);
    if (conn.fd < 0) {
      throw std::runtime_error("serve-e2: the server did not accept connections (see " +
                               o.work_dir + "/serve-e2-server.log)");
    }
  }
  std::string reply = RoundTrip(session->conns[0], session->world.learn_line);
  if (!ReplyOk(reply)) {
    throw std::runtime_error("serve-e2: learning the update dataset failed: " +
                             reply.substr(0, 200));
  }
  for (const std::string& line : session->world.warm_lines) {
    if (!ReplyOk(RoundTrip(session->conns[1], line))) {
      throw std::runtime_error("serve-e2: a warm-up check failed");
    }
  }
}

void StopSession(Session* session) {
  if (session->server == nullptr) {
    return;
  }
  RoundTrip(session->conns[0], R"({"v":1,"verb":"shutdown"})");
  for (Connection& conn : session->conns) {
    if (conn.fd >= 0) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  session->server->Stop();
  session->server.reset();
}

// ---- The traced replay --------------------------------------------------------

// The work of one check or update request, composed from the public calls
// the service makes, with a span on each. Mirrors the service's caches: a
// config parses and indexes only the first time its content is seen.
class Shadow {
 public:
  Shadow(const ServeWorld& world, Tracer& tracer) : world_(world), tracer_(tracer) {
    std::string error;
    std::optional<ContractSet> set = ParseContracts(world.contracts_json, &table_, &error);
    if (!set) {
      throw std::runtime_error("shadow: " + error);
    }
    set_ = std::move(*set);
    checker_ = std::make_unique<Checker>(&set_, &table_);
    store_ = std::make_unique<ArtifactStore>(&lexer_, ParseOptions{});
    for (const GeneratedConfig& config : world.corpus.configs) {
      store_->Upsert(config.name, config.text);
    }
    std::vector<std::string> metadata;
    for (const NamedText& meta : world.site_metadata) {
      metadata.push_back(meta.text);
    }
    store_->SetMetadata(metadata);
    Relearn();
  }

  size_t parsed_lines() const { return parsed_lines_; }
  size_t scanned_lines() const { return scanned_lines_; }
  size_t report_bytes() const { return report_bytes_; }
  const std::vector<double>& batch_decode_us() const { return batch_decode_us_; }

  void Run(const Request& request) {
    {
      int64_t begin = NowNs();
      Tracer::Scope span(tracer_, "format.request_decode");
      std::optional<JsonValue> decoded = JsonValue::Parse(request.line);
      if (!decoded) {
        throw std::runtime_error("shadow: undecodable request");
      }
      if (request.kind == Kind::kBatch) {
        batch_decode_us_.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
      }
    }
    if (request.kind == Kind::kUpdate) {
      Update(request.configs[0]);
      return;
    }
    ConfigParser parser(&lexer_, &table_, ParseOptions{});
    auto metadata = std::make_shared<std::vector<ParsedLine>>();
    uint64_t metadata_key = kFnv1a64OffsetBasis;
    {
      Tracer::Scope span(tracer_, "pattern.parse");
      for (const NamedText& meta : request.metadata) {
        metadata_key = Fnv1a64(meta.text, metadata_key);
        for (ParsedLine& line : parser.ParseMetadata(meta.text)) {
          metadata->push_back(std::move(line));
        }
      }
    }
    std::vector<const ConfigIndex*> indexes;
    for (const NamedText& config : request.configs) {
      const uint64_t key = ContentKey(config.name, config.text);
      auto parsed = parsed_.find(key);
      if (parsed == parsed_.end()) {
        Tracer::Scope span(tracer_, "pattern.parse");
        parsed = parsed_.emplace(key, std::make_unique<ParsedConfig>(
                                          parser.Parse(config.name, config.text))).first;
        parsed_lines_ += LineCount(config.text);
      }
      const uint64_t index_key = key * 31 + metadata_key;
      auto index = indexes_.find(index_key);
      if (index == indexes_.end()) {
        Tracer::Scope span(tracer_, "learn.index");
        index = indexes_.emplace(index_key, std::make_unique<IndexEntry>()).first;
        index->second->metadata = metadata;
        index->second->index = BuildConfigIndex(parsed->second.get(), *metadata);
      }
      indexes.push_back(&index->second->index);
      scanned_lines_ += LineCount(config.text);
    }
    CheckResult result;
    {
      Tracer::Scope span(tracer_, "check.scan");
      result = checker_->Check(indexes, CheckOptions{});
    }
    Tracer::Scope span(tracer_, "report.json");
    report_bytes_ += ReportJsonValue(result, set_, table_).Serialize().size();
  }

 private:
  struct IndexEntry {
    std::shared_ptr<std::vector<ParsedLine>> metadata;
    ConfigIndex index;
  };

  void Update(const NamedText& config) {
    {
      Tracer::Scope span(tracer_, "learn.upsert");
      store_->Upsert(config.name, config.text);
    }
    Relearn();
  }

  // ArtifactStore refresh, the aggregates, Finalize, then the install the
  // service does: serialize, parse back, build the checker.
  void Relearn() {
    const LearnOptions options{};
    {
      Tracer::Scope span(tracer_, "learn.refresh");
      store_->Refresh(options);
    }
    std::vector<const ConfigSummary*> views = store_->summaries();
    std::vector<uint32_t> counts;
    {
      Tracer::Scope span(tracer_, "learn.aggregate");
      counts = CountConfigsFromSummaries(store_->patterns().size(), views);
    }
    ContractSet learned =
        Finalize(tracer_, AggregateAll(tracer_, views, counts, &store_->metadata_types(), options),
                 store_->patterns(), options);
    std::string serialized;
    {
      Tracer::Scope span(tracer_, "contracts.serialize");
      serialized = SerializeContracts(learned, store_->patterns());
    }
    auto table = std::make_unique<PatternTable>();
    std::optional<ContractSet> installed;
    {
      Tracer::Scope span(tracer_, "contracts.load");
      installed = ParseContracts(serialized, table.get());
    }
    if (!installed) {
      throw std::runtime_error("shadow: relearned contracts do not parse");
    }
    auto set = std::make_unique<ContractSet>(std::move(*installed));
    Tracer::Scope span(tracer_, "check.plan");
    update_checker_ = std::make_unique<Checker>(set.get(), table.get());
    update_set_ = std::move(set);
    update_table_ = std::move(table);
  }

  const ServeWorld& world_;
  Tracer& tracer_;
  Lexer lexer_;
  PatternTable table_;
  ContractSet set_;
  std::unique_ptr<Checker> checker_;
  std::unordered_map<uint64_t, std::unique_ptr<ParsedConfig>> parsed_;
  std::unordered_map<uint64_t, std::unique_ptr<IndexEntry>> indexes_;
  std::unique_ptr<ArtifactStore> store_;
  std::unique_ptr<PatternTable> update_table_;
  std::unique_ptr<ContractSet> update_set_;
  std::unique_ptr<Checker> update_checker_;
  size_t parsed_lines_ = 0;
  size_t scanned_lines_ = 0;
  size_t report_bytes_ = 0;
  std::vector<double> batch_decode_us_;
};

std::unique_ptr<Service> InProcessService(const ServeWorld& world) {
  ServiceOptions options;
  options.parallelism = 1;
  auto service = std::make_unique<Service>(options);
  std::string error;
  if (!service->LoadContracts(kCheckSet, world.contracts_path, &error)) {
    throw std::runtime_error("in-process service: " + error);
  }
  if (!ReplyOk(service->HandleLine(world.learn_line))) {
    throw std::runtime_error("in-process service: learning the update dataset failed");
  }
  for (const std::string& line : world.warm_lines) {
    service->HandleLine(line);
  }
  return service;
}

// Sum of "cache_hits" and "cache_misses" over check replies.
void CountCache(const std::string& reply, double* hits, double* probes) {
  std::optional<JsonValue> parsed = JsonValue::Parse(reply);
  if (!parsed) {
    return;
  }
  double h = static_cast<double>(parsed->GetInt("cache_hits").value_or(0));
  *hits += h;
  *probes += h + static_cast<double>(parsed->GetInt("cache_misses").value_or(0));
}

void RunTraced(const Options& o, Session& session, const std::vector<Request>& replay,
               const std::vector<Step>& ladder_steps, double limit_ms, double drain_seconds,
               RunResult& r) {
  const ServeWorld& world = session.world;
  // 1. Over the socket, one request at a time.
  std::vector<double> socket_us;
  for (const Request& request : replay) {
    int64_t begin = NowNs();
    std::string reply = RoundTrip(session.conns[0], request.line);
    socket_us.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
    ++r.attempted;
    if (!ReplyOk(reply)) {
      r.Fail("serve-e2: replayed request failed over the socket: " + reply.substr(0, 120));
    }
  }
  // 2. In process, untraced.
  std::vector<double> plain_us;
  {
    std::unique_ptr<Service> service = InProcessService(world);
    for (const Request& request : replay) {
      int64_t begin = NowNs();
      std::string reply = service->HandleLine(request.line);
      plain_us.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
    }
  }
  // 3. In process, traced, each request followed by its composed shadow.
  Tracer tracer(true);
  Shadow shadow(world, tracer);
  std::unique_ptr<Service> service = InProcessService(world);
  const size_t first = tracer.spans().size();
  std::vector<double> traced_us;
  std::vector<double> check_us;
  std::vector<double> update_us;
  double check_allocs = 0;
  double hits = 0;
  double cache_probes = 0;
  EnableAllocationCounting(true);
  for (size_t i = 0; i < replay.size(); ++i) {
    const Request& request = replay[i];
    Tracer::Scope root(tracer, "serve.request", static_cast<uint32_t>(i));
    std::string reply;
    const uint64_t allocs_before = AllocationCount();
    int64_t begin = NowNs();
    {
      Tracer::Scope span(tracer, "service.handle_line", static_cast<uint32_t>(i));
      reply = service->HandleLine(request.line);
    }
    const double us = static_cast<double>(NowNs() - begin) * 1e-3;
    traced_us.push_back(us);
    if (request.kind == Kind::kUpdate) {
      update_us.push_back(us);
    } else {
      check_us.push_back(us);
      check_allocs += static_cast<double>(AllocationCount() - allocs_before);
      CountCache(reply, &hits, &cache_probes);
    }
    shadow.Run(request);
  }
  EnableAllocationCounting(false);
  LayerTotals totals = tracer.Totals(first);
  tracer.WriteJson(o.work_dir + "/trace-serve-e2.json");
  PrintLayerRows(r, {totals});

  // 4. The ladder at reduced length, for generator lag and shedding.
  LadderResult ladder =
      RunLadder(session.conns, ladder_steps, world, session.server->pid(), limit_ms,
                drain_seconds, r);
  std::vector<double> lag;
  double overloaded = 0;
  double rate_limited = 0;
  for (const StepStats& stats : ladder.stats) {
    lag.insert(lag.end(), stats.lag_ms.begin(), stats.lag_ms.end());
    auto count = [&stats](const char* code) {
      auto it = stats.errors.find(code);
      return it == stats.errors.end() ? 0.0 : static_cast<double>(it->second);
    };
    overloaded += count("overloaded");
    rate_limited += count("rate_limited");
  }
  r.attempted += ladder.operating_sent;
  r.failed += ladder.operating_failed;

  std::vector<double> overhead_us;
  double plain_total = 0;
  double traced_total = 0;
  for (size_t i = 0; i < replay.size(); ++i) {
    plain_total += plain_us[i];
    traced_total += traced_us[i];
    if (replay[i].kind != Kind::kUpdate) {
      overhead_us.push_back(socket_us[i] - plain_us[i]);
    }
  }
  auto self_s = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : Seconds(it->second.self_ns);
  };
  auto self_allocs = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_allocs);
  };
  double shadow_s = 0;
  for (const auto& [name, total] : totals) {
    if (name != "serve.request" && name != "service.handle_line") {
      shadow_s += Seconds(total.self_ns);
    }
  }
  const double parse_s = self_s("pattern.parse");
  const double scan_s = self_s("check.scan");
  const double parsed_lines = static_cast<double>(shadow.parsed_lines());
  EmitPerLayer(
      r,
      {
          {"pattern.parse_s", parse_s},
          {"pattern.parse_lines_per_s", parsed_lines / parse_s},
          {"pattern.parse_allocs_per_line", self_allocs("pattern.parse") / parsed_lines},
          {"learn.index_s", self_s("learn.index")},
          {"learn.aggregate_s", self_s("learn.aggregate")},
          {"learn.aggregate_allocs", self_allocs("learn.aggregate")},
          {"minimize.minimize_s", self_s("minimize.minimize")},
          {"contracts.serialize_s", self_s("contracts.serialize")},
          {"check.plan_s", self_s("check.plan")},
          {"check.scan_s", scan_s},
          {"check.scan_lines_per_s", static_cast<double>(shadow.scanned_lines()) / scan_s},
          {"check.scan_allocs", self_allocs("check.scan")},
          {"report.json_s", self_s("report.json")},
          {"report.json_bytes", static_cast<double>(shadow.report_bytes())},
          {"format.request_decode_us", Median(shadow.batch_decode_us())},
          {"service.check_us.p50", Quantile(check_us, 0.50)},
          {"service.check_us.p99", Quantile(check_us, 0.99)},
          {"service.update_us", Median(update_us)},
          {"service.cache_hit_ratio", cache_probes > 0 ? hits / cache_probes : 0},
          {"service.allocs_per_check", check_allocs / static_cast<double>(check_us.size())},
          {"frontend.overhead_us", Median(overhead_us)},
          {"frontend.shed.overloaded", overloaded},
          {"frontend.shed.rate_limited", rate_limited},
          {"loadgen.lag_ms", Quantile(lag, 0.99)},
          {"unattributed_s", self_s("service.handle_line") - shadow_s},
          {"trace_overhead", traced_total / plain_total},
      },
      "replay of " + std::to_string(replay.size()) + " requests (" +
          std::to_string(check_us.size()) + " checks, " + std::to_string(update_us.size()) +
          " updates)");
}

}  // namespace

RunResult RunServeE2(const Options& o) {
  RunResult r;
  const CorpusSpec corpus_spec = CorpusSpecOf(o.spec);
  const double limit_ms = o.spec.GetDouble("latency_limit_ms").value_or(50);
  const double drain_seconds = 10;  // Replies owed after a step ends must arrive by then.
  const JsonValue* ladder_spec = o.spec.Find("ladder");
  const JsonValue* mix_spec = o.spec.Find("mix");
  if (ladder_spec == nullptr || mix_spec == nullptr) {
    throw std::runtime_error("serve-e2 spec needs a ladder and a mix");
  }

  Session session;
  std::vector<Step> steps;
  std::vector<Request> replay;
  const double setup_s = TimedSetups(
      static_cast<int>(o.spec.GetInt("setup_repetitions").value_or(3)), [&](bool keep) {
        StopSession(&session);
        StartSession(o, corpus_spec, &session);
        MixGenerator mix(session.world, *mix_spec, o.seed * 0x9e3779b97f4a7c15ULL + 1);
        SplitMix64 arrivals(o.seed ^ 0x5eed5eed5eed5eedULL);
        steps = BuildLadder(*ladder_spec, mix, arrivals, o.trace ? o.seconds / 2 : o.seconds);
        replay.clear();
        for (int64_t i = 0; i < o.spec.GetInt("replay_requests").value_or(400); ++i) {
          replay.push_back(mix.Next());
        }
        if (!keep) {
          StopSession(&session);
        }
      });
  for (const auto& [key, value] : Provenance(o, corpus_spec, session.world.corpus)) {
    r.Note("provenance " + key + " = " + value);
  }
  r.Note("provenance latency_limit_ms = " + FormatMs(limit_ms));

  if (o.trace) {
    RunTraced(o, session, replay, steps, limit_ms, drain_seconds, r);
    CheckProbes(session.conns[0], session.world, r);
    StopSession(&session);
    return r;
  }

  std::vector<double> calibration_s;
  for (int i = 0; i < 3; ++i) {
    calibration_s.push_back(CalibrationSeconds());
  }
  LadderResult ladder = RunLadder(session.conns, steps, session.world, session.server->pid(),
                                  limit_ms, drain_seconds, r);
  for (int i = 0; i < 3; ++i) {
    calibration_s.push_back(CalibrationSeconds());
  }
  const double peak_rss_mb = PeakRssMb(session.server->pid());
  CheckProbes(session.conns[0], session.world, r);
  StopSession(&session);

  r.attempted += ladder.operating_sent;
  r.failed += ladder.operating_failed;
  size_t incidents_answered = 0;
  size_t incidents_flagged = 0;
  std::map<std::string, const StepStats*> by_name;
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepStats& stats = ladder.stats[i];
    by_name[steps[i].name] = &stats;
    incidents_answered += stats.incidents_answered;
    incidents_flagged += stats.incidents_flagged;
  }
  if (incidents_flagged != incidents_answered) {
    r.Fail("serve-e2: " + std::to_string(incidents_answered - incidents_flagged) + " of " +
           std::to_string(incidents_answered) + " incident replays were not flagged");
  }
  auto step = [&](const char* name) -> const StepStats& {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw std::runtime_error(std::string("serve-e2 ladder has no step named ") + name);
    }
    return *it->second;
  };
  const StepStats& high = step("high");
  const double lines_per_cpu_s =
      static_cast<double>(ladder.checked_lines) / ladder.server_cpu_s;
  EmitEndToEnd(r, setup_s, lines_per_cpu_s, calibration_s, peak_rss_mb);

  for (const char* name : {"low", "high"}) {
    const StepStats& stats = step(name);
    const std::string n = "n=" + std::to_string(stats.check_ms.size());
    r.Print(std::string("check_p50_ms.") + name, stats.check_p50, "ms", n);
    r.Print(std::string("check_p99_ms.") + name, stats.check_p99, "ms", n);
  }
  r.Print("update_p90_ms.high", Quantile(high.update_ms, 0.90), "ms",
          "n=" + std::to_string(high.update_ms.size()));
  r.Print("goodput_rps", ladder.goodput_rps, "1/s",
          "highest ladder rate with check p99 <= " + FormatMs(limit_ms) +
              " ms, no failures, no backlog");
  r.Print("incident_recall",
          incidents_answered == 0 ? 0.0
                                  : static_cast<double>(incidents_flagged) /
                                        static_cast<double>(incidents_answered),
          "ratio", std::to_string(incidents_flagged) + " of " + std::to_string(incidents_answered));
  r.Print("peak_rss_mb", peak_rss_mb, "MB", "server process");
  r.Print("lines_per_cpu_s", lines_per_cpu_s, "lines/s",
          std::to_string(ladder.checked_lines) + " config lines checked in " +
              std::to_string(ladder.server_cpu_s) + " server CPU seconds");
  r.Print("error_rate",
          ladder.operating_sent == 0 ? 0.0
                                     : static_cast<double>(ladder.operating_failed) /
                                           static_cast<double>(ladder.operating_sent),
          "ratio", "low/mid/high steps; probe steps are listed per step");
  return r;
}

}  // namespace perfbench
