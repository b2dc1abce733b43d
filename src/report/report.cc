#include "src/report/report.h"

#include <map>
#include <sstream>

#include "src/format/json.h"
#include "src/util/strings.h"

namespace concord {

namespace {

std::string HtmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

JsonValue CoverageJsonValue(const CheckResult& result) {
  JsonValue coverage = JsonValue::Object();
  coverage.Set("totalLines", JsonValue::Number(static_cast<int64_t>(result.total_lines)));
  coverage.Set("coveredLines", JsonValue::Number(static_cast<int64_t>(result.covered_lines)));
  coverage.Set("percent", JsonValue::Number(result.CoveragePercent()));
  JsonValue by_kind = JsonValue::Object();
  for (size_t k = 0; k < kNumCoverageKinds; ++k) {
    by_kind.Set(std::string(CoverageKindName(static_cast<CoverageKind>(k))),
                JsonValue::Number(result.CoveragePercent(static_cast<CoverageKind>(k))));
  }
  coverage.Set("percentByKind", std::move(by_kind));
  return coverage;
}

JsonValue DegradedJsonValue(const std::vector<SkippedFile>& skipped) {
  JsonValue degraded = JsonValue::Array();
  for (const SkippedFile& s : skipped) {
    JsonValue error = JsonValue::Object();
    error.Set("code", JsonValue::String(std::string(ErrorCodeName(s.code))));
    error.Set("message", JsonValue::String(s.reason));
    JsonValue item = JsonValue::Object();
    item.Set("file", JsonValue::String(s.file));
    item.Set("error", std::move(error));
    degraded.Append(std::move(item));
  }
  return degraded;
}

JsonValue ReportJsonValue(const CheckResult& result, const ContractSet& set,
                          const PatternTable& table) {
  JsonValue root = JsonValue::Object();
  JsonValue violations = JsonValue::Array();
  for (const Violation& v : result.violations) {
    const Contract& c = set.contracts[v.contract_index];
    JsonValue item = JsonValue::Object();
    item.Set("category", JsonValue::String(std::string(ContractKindName(c.kind))));
    item.Set("contract", JsonValue::String(c.ToString(table)));
    // Stable identity for suppression files (src/contracts/suppression.h).
    item.Set("key", JsonValue::String(c.Key(table)));
    item.Set("config", JsonValue::String(v.config));
    item.Set("line", JsonValue::Number(int64_t{v.line_number}));
    item.Set("message", JsonValue::String(v.message));
    violations.Append(std::move(item));
  }
  root.Set("violations", std::move(violations));
  root.Set("coverage", CoverageJsonValue(result));
  // Per-file fault isolation: inputs that failed to load. Omitted entirely for
  // clean runs so clean reports stay byte-identical across versions.
  if (!result.skipped.empty()) {
    root.Set("degraded", DegradedJsonValue(result.skipped));
  }
  return root;
}

std::string ReportJson(const CheckResult& result, const ContractSet& set,
                       const PatternTable& table) {
  return ReportJsonValue(result, set, table).Serialize(2);
}

std::string ReportText(const CheckResult& result, const ContractSet& set,
                       const PatternTable& table) {
  (void)table;
  std::map<ContractKind, size_t> per_kind;
  for (const Violation& v : result.violations) {
    ++per_kind[set.contracts[v.contract_index].kind];
  }
  std::ostringstream out;
  out << "violations: " << result.violations.size() << "\n";
  for (const auto& [kind, count] : per_kind) {
    out << "  " << ContractKindName(kind) << ": " << count << "\n";
  }
  out << "coverage: " << result.covered_lines << "/" << result.total_lines << " lines (";
  out.precision(1);
  out << std::fixed << result.CoveragePercent() << "%)\n";
  for (size_t k = 0; k < kNumCoverageKinds; ++k) {
    auto kind = static_cast<CoverageKind>(k);
    out << "  " << CoverageKindName(kind) << ": " << result.CoveragePercent(kind) << "%\n";
  }
  if (!result.skipped.empty()) {
    out << "degraded: " << result.skipped.size() << " input file(s) skipped ("
        << result.configs_checked << " checked)\n";
    for (const SkippedFile& s : result.skipped) {
      out << "  " << s.file << ": " << s.reason << "\n";
    }
  }
  return out.str();
}

std::string CoverageReportText(const CheckResult& result) {
  std::ostringstream out;
  out << "# line coverage: <config>:<line> <categories or untested>\n";
  for (const ConfigCoverage& per : result.per_config) {
    size_t covered = 0;
    for (uint8_t bits : per.kind_bits) {
      if (bits != 0) {
        ++covered;
      }
    }
    out << "## " << per.config << " (" << covered << "/" << per.kind_bits.size()
        << " lines covered)\n";
    for (size_t i = 0; i < per.kind_bits.size(); ++i) {
      out << per.config << ":" << per.line_numbers[i] << " ";
      uint8_t bits = per.kind_bits[i];
      if (bits == 0) {
        out << "untested";
      } else {
        bool first = true;
        for (size_t kind = 0; kind < kNumCoverageKinds; ++kind) {
          if (bits & (1u << kind)) {
            if (!first) {
              out << ",";
            }
            first = false;
            out << CoverageKindName(static_cast<CoverageKind>(kind));
          }
        }
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string ReportHtml(const CheckResult& result, const ContractSet& set,
                       const PatternTable& table) {
  std::ostringstream out;
  out << R"html(<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Concord violations</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
h1 { font-size: 1.4rem; }
.summary { color: #555; margin-bottom: 1rem; }
#search { padding: 0.4rem; width: 24rem; margin-bottom: 0.75rem; }
.filters button { margin-right: 0.5rem; padding: 0.3rem 0.7rem; cursor: pointer; }
.filters button.off { opacity: 0.4; }
table { border-collapse: collapse; width: 100%; }
th, td { border: 1px solid #ddd; padding: 0.4rem 0.6rem; text-align: left;
         font-size: 0.9rem; vertical-align: top; }
th { background: #f5f5f5; }
td.contract { font-family: monospace; white-space: pre-wrap; }
tr.hidden { display: none; }
.cat { display: inline-block; padding: 0.1rem 0.4rem; border-radius: 0.3rem;
       background: #eef; font-size: 0.8rem; }
</style></head><body>
<h1>Concord contract violations</h1>
)html";
  out << "<div class=\"summary\">" << result.violations.size() << " violations &middot; coverage ";
  out.precision(1);
  out << std::fixed << result.CoveragePercent() << "% (" << result.covered_lines << "/"
      << result.total_lines << " lines)</div>\n";
  if (!result.skipped.empty()) {
    out << "<div class=\"degraded\" style=\"background:#fff3cd;border:1px solid #ffe08a;"
           "padding:0.6rem 0.8rem;border-radius:0.3rem;margin-bottom:1rem;\">"
        << "<strong>degraded run:</strong> " << result.skipped.size()
        << " input file(s) could not be loaded and were skipped<ul>";
    for (const SkippedFile& s : result.skipped) {
      out << "<li><code>" << HtmlEscape(s.file) << "</code> &mdash; "
          << HtmlEscape(s.reason) << "</li>";
    }
    out << "</ul></div>\n";
  }
  out << R"html(<input id="search" placeholder="Search violations..." oninput="refresh()">
<div class="filters" id="filters"></div>
<table><thead><tr><th>Category</th><th>Config</th><th>Line</th><th>Message</th>
<th>Contract</th></tr></thead><tbody id="rows">
)html";
  for (const Violation& v : result.violations) {
    const Contract& c = set.contracts[v.contract_index];
    out << "<tr data-cat=\"" << ContractKindName(c.kind) << "\">"
        << "<td><span class=\"cat\">" << ContractKindName(c.kind) << "</span></td>"
        << "<td>" << HtmlEscape(v.config) << "</td>"
        << "<td>" << v.line_number << "</td>"
        << "<td>" << HtmlEscape(v.message) << "</td>"
        << "<td class=\"contract\">" << HtmlEscape(c.ToString(table)) << "</td></tr>\n";
  }
  out << R"html(</tbody></table>
<script>
const cats = [...new Set([...document.querySelectorAll('#rows tr')].map(r => r.dataset.cat))];
const enabled = new Set(cats);
const filters = document.getElementById('filters');
for (const cat of cats) {
  const b = document.createElement('button');
  b.textContent = cat;
  b.onclick = () => {
    if (enabled.has(cat)) { enabled.delete(cat); b.classList.add('off'); }
    else { enabled.add(cat); b.classList.remove('off'); }
    refresh();
  };
  filters.appendChild(b);
}
function refresh() {
  const q = document.getElementById('search').value.toLowerCase();
  for (const row of document.querySelectorAll('#rows tr')) {
    const show = enabled.has(row.dataset.cat) &&
                 (q === '' || row.textContent.toLowerCase().includes(q));
    row.classList.toggle('hidden', !show);
  }
}
</script></body></html>
)html";
  return out.str();
}

JsonValue AnalyzeReportJsonValue(const AnalysisResult& result) {
  JsonValue body = JsonValue::Object();
  body.Set("contracts", JsonValue::Number(static_cast<int64_t>(result.contracts_analyzed)));
  JsonValue findings = JsonValue::Array();
  for (const Finding& f : result.findings) {
    JsonValue item = JsonValue::Object();
    item.Set("rule", JsonValue::String(f.rule));
    item.Set("severity", JsonValue::String(std::string(FindingSeverityName(f.severity))));
    item.Set("message", JsonValue::String(f.message));
    JsonValue contracts = JsonValue::Array();
    for (size_t i : f.contracts) {
      contracts.Append(JsonValue::Number(static_cast<int64_t>(i)));
    }
    item.Set("contracts", std::move(contracts));
    JsonValue keys = JsonValue::Array();
    for (const std::string& key : f.keys) {
      keys.Append(JsonValue::String(key));
    }
    item.Set("keys", std::move(keys));
    findings.Append(std::move(item));
  }
  body.Set("findings", std::move(findings));
  JsonValue counts = JsonValue::Object();
  size_t errors = 0, warnings = 0, infos = 0;
  for (const Finding& f : result.findings) {
    switch (f.severity) {
      case FindingSeverity::kError:
        ++errors;
        break;
      case FindingSeverity::kWarning:
        ++warnings;
        break;
      case FindingSeverity::kInfo:
        ++infos;
        break;
    }
  }
  counts.Set("error", JsonValue::Number(static_cast<int64_t>(errors)));
  counts.Set("warning", JsonValue::Number(static_cast<int64_t>(warnings)));
  counts.Set("info", JsonValue::Number(static_cast<int64_t>(infos)));
  counts.Set("conflict", JsonValue::Number(static_cast<int64_t>(result.conflict_findings)));
  counts.Set("subsumption",
             JsonValue::Number(static_cast<int64_t>(result.subsumption_findings)));
  counts.Set("deadRule",
             JsonValue::Number(static_cast<int64_t>(result.dead_rule_findings)));
  body.Set("counts", std::move(counts));
  body.Set("prunable", JsonValue::Number(static_cast<int64_t>(result.PrunableCount())));
  return body;
}

std::string AnalyzeReportJson(const AnalysisResult& result) {
  return AnalyzeReportJsonValue(result).Serialize(2);
}

std::string AnalyzeReportText(const AnalysisResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.findings) {
    out << FindingSeverityName(f.severity) << " " << f.rule << ": " << f.message
        << "\n";
    for (const std::string& key : f.keys) {
      out << "    " << key << "\n";
    }
  }
  out << "analyzed " << result.contracts_analyzed << " contract(s): "
      << result.conflict_findings << " conflict, " << result.subsumption_findings
      << " subsumption, " << result.dead_rule_findings << " dead-rule finding(s); "
      << result.PrunableCount() << " prunable\n";
  return out.str();
}

}  // namespace concord
