// `concord serve` (§4, §6): a persistent, batched contract-checking service.
//
// The one-shot CLI re-parses the contract file and re-embeds every config on each
// invocation; inside a CI/CD pipeline the checker runs continuously, so the service
// keeps learned contract sets resident (ContractStore), caches parsed configs by
// content hash (ConfigCache), and answers newline-delimited JSON requests. The
// protocol is versioned (DESIGN.md §7): every request carries "v":1 and every
// response opens with "v":1,"ok":...:
//
//   {"v":1,"verb":"check","contracts":"edge","configs":[{"name":...,"text":...}]}
//   {"v":1,"verb":"coverage", ...}  per-line coverage listing for a batch
//   {"v":1,"verb":"reload","name":"edge"}     hot-swap a contract set from disk
//   {"v":1,"verb":"learn","dataset":"edge","configs":[...]}   learn contracts
//                                             from a batch, keeping it resident
//   {"v":1,"verb":"update","dataset":"edge","upsert":[...],"remove":[...]}
//                                             apply a config delta, relearn
//                                             incrementally, report the diff
//   {"v":1,"verb":"stats"}                    metrics snapshot (JSON)
//   {"v":1,"verb":"metrics"}                  Prometheus text exposition
//   {"v":1,"verb":"shutdown"}                 final stats + loop exit
//
// learn/update drive the content-addressed artifact pipeline (ArtifactStore): a
// resident dataset caches per-config Parse/Index/Mine artifacts, so an update
// that touches one config re-mines only that config before re-aggregating. The
// learned contract set is installed into the contract store under the dataset
// name, immediately usable by check/coverage.
//
// A request's "id" member, when present, is echoed back. Failures produce
// {"v":1,"ok":false,"error":{"code","message","detail?"}} — code is drawn from
// the closed ErrorCode enum (src/util/error_code.h) — and never terminate the
// loop. Missing "v" or "v">1 and unknown verbs/fields are themselves structured
// errors (missing_field / unsupported_version / unknown_verb / unknown_field).
// Tests drive the loop in-process through RunService(istream&, ostream&),
// mirroring RunConcord.
//
// Robustness: check/coverage requests accept "deadline_ms" (wall-clock budget;
// expiry yields the deadline_exceeded error code while the server keeps
// serving), and a batch with some unparseable configs is checked on the
// survivors with a "degraded":[{file,error:{code,message}},...] member naming
// the casualties (the same schema the report JSON's degraded section uses).
#ifndef SRC_SERVICE_SERVICE_H_
#define SRC_SERVICE_SERVICE_H_

#include <atomic>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/format/json.h"
#include "src/learn/artifact_store.h"
#include "src/learn/learner.h"
#include "src/pattern/lexer.h"
#include "src/service/contract_store.h"
#include "src/service/metrics.h"
#include "src/store/store.h"
#include "src/util/error_code.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"

namespace concord {

struct ServiceOptions {
  int parallelism = 0;          // Worker threads for batched checking (0 = all cores).
  size_t cache_capacity = 256;  // Parsed-config LRU entries per contract set.
  // Directory of the durable artifact store (DESIGN.md §10). Empty disables
  // persistence; non-empty warm-restarts every persisted contract set at
  // construction and persists learn/update results.
  std::string store_dir;
  // Skip subsumption-dominated contracts in coverage-off checks (DESIGN.md
  // §14). Response bytes are unchanged on clean inputs; dirty configs are
  // still flagged (detection equivalence), via the dominating contract.
  bool prune_subsumed = false;
};

class Service {
 public:
  explicit Service(ServiceOptions options);

  // Loads (or replaces) a contract set before/while serving. On failure the store
  // is unchanged and *error describes the problem.
  bool LoadContracts(const std::string& name, const std::string& path,
                     std::string* error);

  // Installs custom lexer definitions (`name regex` lines) used when parsing
  // request configs. Call before serving.
  bool LoadLexerDefinitions(const std::string& text, std::string* error);

  // Handles one request line, returning exactly one line of JSON (no newline).
  // Never throws: every failure becomes an {"ok":false,...} response.
  std::string HandleLine(const std::string& line);

  // True once a shutdown request has been answered. Atomic because the socket
  // frontend serves connections from a pool while its accept loop polls this.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  // Requests shutdown from outside the request stream (signal-driven drain).
  void RequestShutdown() { shutdown_.store(true, std::memory_order_release); }

  // Human-readable metrics summary for the end of a session.
  std::string SummaryText() const { return metrics_.SummaryText(); }

  // Prometheus text exposition: request/cache/work families, per-stage trace
  // counters, and per-contract-set gauges. Body of the `metrics` verb.
  std::string PrometheusText() const;

  const Metrics& metrics() const { return metrics_; }
  // Non-const access for the socket frontend, which records its
  // connection/admission families into the embedded registry().
  Metrics& metrics() { return metrics_; }

  // The durable store backing this service; nullptr without --store-dir.
  DurableStore* durable_store() { return durable_.get(); }

 private:
  // A dataset kept resident between learn/update requests: its artifact store
  // (per-config Parse/Index/Mine caches) plus the last learned contracts.
  // `mu` serializes mutations and relearns per dataset. Lock hierarchy
  // (DESIGN.md §9): datasets_mu_ comes strictly before any ResidentDataset::mu
  // (map probe first, then dataset work; HandleLearn publishes into the map
  // only after releasing the dataset lock), and mu may be held across the
  // relearn, so the pool's and artifact caches' leaf locks nest inside it.
  struct ResidentDataset {
    ResidentDataset(const Lexer* lexer, ParseOptions parse_options)
        : store(lexer, parse_options) {}

    Mutex mu;
    ArtifactStore store CONCORD_GUARDED_BY(mu);
    // Options the dataset was learned with.
    LearnOptions options CONCORD_GUARDED_BY(mu);
    // Last learned set (patterns in store.patterns()).
    ContractSet contracts CONCORD_GUARDED_BY(mu);
    bool learned CONCORD_GUARDED_BY(mu) = false;
  };

  JsonValue Dispatch(const std::string& verb, const JsonValue& request);
  // Dispatches `verb` and wraps the outcome in the complete v1 response
  // envelope (v, ok, id, error, body) — the post-parse tail of HandleLine.
  // check_batch builds each per-sub-request result through this, which is what
  // makes a batch slot byte-identical to the standalone check response.
  JsonValue ResponseFor(const std::string& verb, const JsonValue& request,
                        bool* ok_out = nullptr);
  // Builds the v1 response envelope (v, ok, id?, error?, body members). Shared
  // by HandleLine's error tail and ResponseFor so batched and standalone
  // responses serialize identically.
  JsonValue AssembleResponse(bool ok, bool has_id, JsonValue id,
                             ErrorCode error_code, const std::string& error_message,
                             const std::string& error_detail, JsonValue body);
  JsonValue HandleCheck(const JsonValue& request, bool coverage_listing);
  // `check_batch`: N logically independent check sub-requests sharing one
  // request envelope, contract-set resolution, and metadata block (DESIGN.md
  // §12). Faults are isolated per slot: one sub-request's parse failure or
  // deadline expiry yields an error envelope in its slot, never a failed batch.
  JsonValue HandleCheckBatch(const JsonValue& request);
  // `analyze`: static analysis of a loaded contract set or a resident
  // dataset's last-learned contracts (DESIGN.md §14). The dataset form feeds
  // the dead-pattern sub-pass the dataset's indexed configs; the contract-set
  // form runs set-only.
  JsonValue HandleAnalyze(const JsonValue& request);
  JsonValue HandleReload(const JsonValue& request);
  JsonValue HandleLearn(const JsonValue& request);
  JsonValue HandleUpdate(const JsonValue& request);

  // Installs every persisted contract set from the durable store at startup,
  // skipping relearning entirely; corrupt objects degrade to "relearn on next
  // use" and are counted, never fatal.
  void WarmRestart();

  // Rebuilds a ResidentDataset from persisted blobs (lazy, on the first update
  // after a warm restart). Returns nullptr when the store has no such dataset;
  // fills `degraded` with configs whose blobs were missing or corrupt.
  std::shared_ptr<ResidentDataset> HydrateDataset(
      const std::string& name, std::vector<SkippedFile>* degraded);

  // Persists the dataset's inputs (config/metadata blobs) and learned contracts
  // after a successful relearn; returns the response's "store" member. Write
  // failures degrade to {"persisted":false,...} — the in-memory result stands.
  JsonValue PersistDataset(const std::string& name, ResidentDataset& dataset,
                           const std::string& serialized_contracts)
      CONCORD_REQUIRES(dataset.mu);

  // Shared tail of learn/update: relearn from the dataset's artifact store,
  // install the result under `name`, and fill the response body (contract
  // delta vs `previous`, artifact counters, degraded files).
  JsonValue RelearnAndInstall(const std::string& name, ResidentDataset& dataset,
                              const std::vector<Contract>& previous,
                              bool had_previous,
                              std::vector<SkippedFile> degraded)
      CONCORD_REQUIRES(dataset.mu);

  JsonValue StatsJson() const;

  ServiceOptions options_;
  Lexer lexer_;
  ContractStore store_;
  std::unique_ptr<DurableStore> durable_;  // Null without a store_dir.
  ThreadPool pool_;
  Metrics metrics_;
  // Guards the map, not the datasets (see ResidentDataset); mutable so the
  // const metrics exposition can read the resident-dataset count.
  mutable Mutex datasets_mu_;
  std::map<std::string, std::shared_ptr<ResidentDataset>> datasets_
      CONCORD_GUARDED_BY(datasets_mu_);
  std::atomic<bool> shutdown_{false};
};

// Runs the request loop: one JSON request per input line, one JSON response per
// output line (flushed), until shutdown or EOF. Writes the metrics summary to
// `summary` (when non-null) before returning. Returns 0.
int RunService(Service& service, std::istream& in, std::ostream& out,
               std::ostream* summary);

}  // namespace concord

#endif  // SRC_SERVICE_SERVICE_H_
