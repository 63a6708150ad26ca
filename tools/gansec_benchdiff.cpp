// gansec_benchdiff — the perf-regression gate over BENCH_*.json artifacts
// and run reports.
//
// Usage:
//   gansec_benchdiff [--threshold R] <baseline.json> <candidate.json>
//   gansec_benchdiff --check <artifact.json>
//
// Compares the named metrics of two artifacts produced by the same bench
// binary (schema "gansec.bench.v1"), two lint artifacts ("gansec.lint.v1",
// same metric shape as bench — file/violation/suppression counts), two
// lint call-graph databases ("gansec.lintdb.v1", emitted by gansec_lint
// --lintdb — function/edge/reachability counts), two
// checkpoint-verification artifacts ("gansec.ckpt.v1", emitted by
// gansec_ckpt verify, same metric shape), two run reports
// ("gansec.run_report.v1", whose scalar "results" entries are compared
// two-sided), or two incident bundles ("gansec.incident.v1", compared by
// event/drop counts; --check additionally validates trigger/provenance
// members and trace-clock event ordering). Each bench metric carries its
// own regression direction:
//
//   lower_is_better  — regression when candidate > baseline * (1 + R)
//   higher_is_better — regression when candidate < baseline * (1 - R)
//   two_sided        — regression when |candidate - baseline| exceeds
//                      R * max(|baseline|, epsilon)
//
// The default relative threshold R is 0.10; --threshold overrides it for
// every metric. Exit codes: 0 = no regression, 1 = at least one
// regression, 2 = usage/IO/schema error. Metrics present on only one side
// are reported as warnings, never regressions (bench sets legitimately
// evolve across commits).
//
// Two bench artifacts must be at the same scale: a smoke run (tiny sizes,
// "smoke": true) measures plumbing, so comparing it with a full-scale run
// is refused with exit 2. A different host.hardware_concurrency is a
// WARN line: the comparison runs, but throughput and latency figures of
// hosts with different core counts are not like for like.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/obs/json.hpp"

namespace {

using gansec::obs::JsonValue;

constexpr const char* kBenchSchema = "gansec.bench.v1";
constexpr const char* kLintSchema = "gansec.lint.v1";
constexpr const char* kLintDbSchema = "gansec.lintdb.v1";
constexpr const char* kCkptSchema = "gansec.ckpt.v1";
constexpr const char* kRunReportSchema = "gansec.run_report.v1";
constexpr const char* kIncidentSchema = "gansec.incident.v1";

struct Metric {
  std::string key;
  double value = 0.0;
  std::string direction;  // lower_is_better | higher_is_better | two_sided
};

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr,
               "gansec_benchdiff: %s\n"
               "usage: gansec_benchdiff [--threshold R] "
               "<baseline.json> <candidate.json>\n"
               "       gansec_benchdiff --check <artifact.json>\n",
               message);
  std::exit(2);
}

std::string schema_of(const JsonValue& root, const std::string& path) {
  if (!root.is_object()) {
    throw gansec::ParseError(path + ": artifact root is not a JSON object");
  }
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    throw gansec::ParseError(path + ": missing string member \"schema\"");
  }
  return schema->as_string();
}

/// Extracts the comparable metrics of a validated artifact. Bench
/// artifacts contribute their "metrics" map; run reports contribute each
/// scalar "results" entry (two-sided) and per-phase wall clock
/// (informational only, so not extracted).
std::vector<Metric> extract_metrics(const JsonValue& root,
                                    const std::string& schema,
                                    const std::string& path) {
  std::vector<Metric> metrics;
  // Lint, lint-database and checkpoint-verification artifacts
  // deliberately share the bench metric shape so the same extraction
  // (and diffing) applies.
  if (schema == kBenchSchema || schema == kLintSchema ||
      schema == kLintDbSchema || schema == kCkptSchema) {
    const JsonValue* map = root.find("metrics");
    if (map == nullptr || !map->is_object()) {
      throw gansec::ParseError(path + ": missing object member \"metrics\"");
    }
    for (const auto& [key, entry] : map->as_object()) {
      if (!entry.is_object()) {
        throw gansec::ParseError(path + ": metric \"" + key +
                                 "\" is not an object");
      }
      const JsonValue* value = entry.find("value");
      const JsonValue* direction = entry.find("direction");
      if (value == nullptr || !value->is_number() || direction == nullptr ||
          !direction->is_string()) {
        throw gansec::ParseError(path + ": metric \"" + key +
                                 "\" needs a numeric \"value\" and a string "
                                 "\"direction\"");
      }
      const std::string dir = direction->as_string();
      if (dir != "lower_is_better" && dir != "higher_is_better" &&
          dir != "two_sided") {
        throw gansec::ParseError(path + ": metric \"" + key +
                                 "\" has unknown direction \"" + dir + '"');
      }
      metrics.push_back({key, value->as_number(), dir});
    }
    return metrics;
  }
  if (schema == kRunReportSchema) {
    const JsonValue* results = root.find("results");
    if (results == nullptr || !results->is_object()) {
      throw gansec::ParseError(path + ": missing object member \"results\"");
    }
    for (const auto& [key, entry] : results->as_object()) {
      if (entry.is_number()) {
        metrics.push_back({key, entry.as_number(), "two_sided"});
      }
    }
    return metrics;
  }
  if (schema == kIncidentSchema) {
    // Incident bundles are forensic, not perf artifacts: the comparable
    // facts are how much the black box captured and lost.
    const JsonValue* events = root.find("events");
    if (events == nullptr || !events->is_array()) {
      throw gansec::ParseError(path + ": missing array member \"events\"");
    }
    metrics.push_back({"events",
                       static_cast<double>(events->as_array().size()),
                       "two_sided"});
    const JsonValue* dropped = root.find("events_dropped");
    if (dropped != nullptr && dropped->is_number()) {
      metrics.push_back({"events_dropped", dropped->as_number(),
                         "two_sided"});
    }
    return metrics;
  }
  throw gansec::ParseError(path + ": unsupported schema \"" + schema +
                           "\" (expected " + kBenchSchema + ", " +
                           kLintSchema + ", " + kLintDbSchema + ", " +
                           kCkptSchema + ", " +
                           kRunReportSchema + " or " + kIncidentSchema +
                           ')');
}

/// Structural validation beyond extract_metrics: the provenance members
/// every artifact must carry so a diff can be traced back to a build.
void check_artifact(const JsonValue& root, const std::string& schema,
                    const std::string& path) {
  if (schema == kBenchSchema || schema == kLintSchema ||
      schema == kLintDbSchema || schema == kCkptSchema) {
    for (const char* member : {"name", "build", "host", "wall_ms"}) {
      if (root.find(member) == nullptr) {
        throw gansec::ParseError(path + ": missing member \"" +
                                 std::string(member) + '"');
      }
    }
    const JsonValue* sha = root.find_path({"build", "git_sha"});
    if (sha == nullptr || !sha->is_string()) {
      throw gansec::ParseError(path + ": missing build.git_sha");
    }
  } else if (schema == kRunReportSchema) {
    for (const char* member :
         {"command", "build", "host", "seeds", "phases", "config"}) {
      if (root.find(member) == nullptr) {
        throw gansec::ParseError(path + ": missing member \"" +
                                 std::string(member) + '"');
      }
    }
  } else if (schema == kIncidentSchema) {
    for (const char* member : {"trigger", "build", "events"}) {
      if (root.find(member) == nullptr) {
        throw gansec::ParseError(path + ": missing member \"" +
                                 std::string(member) + '"');
      }
    }
    const JsonValue* kind = root.find_path({"trigger", "kind"});
    if (kind == nullptr || !kind->is_string()) {
      throw gansec::ParseError(path + ": missing trigger.kind");
    }
    const JsonValue* sha = root.find_path({"build", "git_sha"});
    if (sha == nullptr || !sha->is_string()) {
      throw gansec::ParseError(path + ": missing build.git_sha");
    }
    // The timeline contract: events must be trace-clock ordered.
    const JsonValue* events = root.find("events");
    if (!events->is_array()) {
      throw gansec::ParseError(path + ": \"events\" is not an array");
    }
    double prev = -1.0;
    for (const JsonValue& ev : events->as_array()) {
      const JsonValue* ts = ev.find("ts_us");
      if (ts == nullptr || !ts->is_number()) {
        throw gansec::ParseError(path + ": event missing numeric ts_us");
      }
      if (ts->as_number() < prev) {
        throw gansec::ParseError(
            path + ": events are not trace-clock ordered");
      }
      prev = ts->as_number();
    }
  }
}

bool is_smoke(const JsonValue& root) {
  const JsonValue* smoke = root.find("smoke");
  return smoke != nullptr && smoke->is_bool() && smoke->as_bool();
}

const Metric* find_metric(const std::vector<Metric>& metrics,
                          std::string_view key) {
  for (const Metric& m : metrics) {
    if (m.key == key) return &m;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.10;
  std::string check_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--threshold") {
      if (i + 1 >= argc) usage_error("--threshold needs a value");
      char* end = nullptr;
      threshold = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(threshold >= 0.0)) {
        usage_error("--threshold must be a non-negative number");
      }
    } else if (arg == "--check") {
      if (i + 1 >= argc) usage_error("--check needs a file");
      check_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage_error("help");
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown flag");
    } else {
      positional.emplace_back(arg);
    }
  }

  try {
    if (!check_path.empty()) {
      if (!positional.empty()) usage_error("--check takes no other files");
      const JsonValue root = gansec::obs::parse_json_file(check_path);
      const std::string schema = schema_of(root, check_path);
      check_artifact(root, schema, check_path);
      const auto metrics = extract_metrics(root, schema, check_path);
      std::printf("%s: valid %s artifact, %zu metric(s)\n",
                  check_path.c_str(), schema.c_str(), metrics.size());
      return 0;
    }

    if (positional.size() != 2) {
      usage_error("expected exactly two artifact files");
    }
    const std::string& base_path = positional[0];
    const std::string& cand_path = positional[1];
    const JsonValue base_root = gansec::obs::parse_json_file(base_path);
    const JsonValue cand_root = gansec::obs::parse_json_file(cand_path);
    const std::string base_schema = schema_of(base_root, base_path);
    const std::string cand_schema = schema_of(cand_root, cand_path);
    if (base_schema != cand_schema) {
      std::fprintf(stderr,
                   "gansec_benchdiff: schema mismatch: %s is %s but %s is "
                   "%s\n",
                   base_path.c_str(), base_schema.c_str(), cand_path.c_str(),
                   cand_schema.c_str());
      return 2;
    }
    if (base_schema == kBenchSchema &&
        is_smoke(base_root) != is_smoke(cand_root)) {
      std::fprintf(stderr,
                   "gansec_benchdiff: scale mismatch: %s is a %s artifact "
                   "but %s is a %s artifact; compare smoke with smoke and "
                   "full scale with full scale\n",
                   base_path.c_str(),
                   is_smoke(base_root) ? "smoke" : "full-scale",
                   cand_path.c_str(),
                   is_smoke(cand_root) ? "smoke" : "full-scale");
      return 2;
    }
    const auto base = extract_metrics(base_root, base_schema, base_path);
    const auto cand = extract_metrics(cand_root, cand_schema, cand_path);

    std::printf("comparing %zu baseline metric(s) against %zu candidate "
                "metric(s), threshold %.1f%%\n",
                base.size(), cand.size(), threshold * 100.0);
    const JsonValue* base_cores =
        base_root.find_path({"host", "hardware_concurrency"});
    const JsonValue* cand_cores =
        cand_root.find_path({"host", "hardware_concurrency"});
    if (base_cores != nullptr && cand_cores != nullptr &&
        base_cores->is_number() && cand_cores->is_number() &&
        base_cores->as_number() != cand_cores->as_number()) {
      std::printf("  WARN  host.hardware_concurrency differs: %.0f -> %.0f "
                  "(timings are not comparable core for core)\n",
                  base_cores->as_number(), cand_cores->as_number());
    }
    int regressions = 0;
    int compared = 0;
    for (const Metric& b : base) {
      const Metric* c = find_metric(cand, b.key);
      if (c == nullptr) {
        std::printf("  WARN  %s: missing from candidate\n", b.key.c_str());
        continue;
      }
      ++compared;
      // Relative change versus the baseline magnitude; an epsilon floor
      // keeps near-zero baselines (e.g. a 0.0 allocs/iter counter) from
      // turning measurement noise into infinite relative change.
      const double scale = std::max(std::abs(b.value), 1e-12);
      const double rel = (c->value - b.value) / scale;
      bool regressed = false;
      if (b.direction == "lower_is_better") {
        regressed = rel > threshold;
      } else if (b.direction == "higher_is_better") {
        regressed = rel < -threshold;
      } else {
        regressed = std::abs(rel) > threshold;
      }
      if (!std::isfinite(b.value) || !std::isfinite(c->value)) {
        regressed = b.value != c->value &&
                    !(std::isnan(b.value) && std::isnan(c->value));
      }
      std::printf("  %s %s: %.6g -> %.6g (%+.2f%%, %s)\n",
                  regressed ? "FAIL " : "ok   ", b.key.c_str(), b.value,
                  c->value, rel * 100.0, b.direction.c_str());
      if (regressed) ++regressions;
    }
    for (const Metric& c : cand) {
      if (find_metric(base, c.key) == nullptr) {
        std::printf("  WARN  %s: new in candidate (%.6g)\n", c.key.c_str(),
                    c.value);
      }
    }
    if (compared == 0) {
      std::fprintf(stderr,
                   "gansec_benchdiff: no overlapping metrics to compare\n");
      return 2;
    }
    if (regressions > 0) {
      std::printf("RESULT: %d regression(s) past the %.1f%% threshold\n",
                  regressions, threshold * 100.0);
      return 1;
    }
    std::printf("RESULT: no regressions\n");
    return 0;
  } catch (const gansec::Error& e) {
    std::fprintf(stderr, "gansec_benchdiff: %s\n", e.what());
    return 2;
  }
}
