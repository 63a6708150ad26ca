// End-to-end coverage of the perf-regression gate: the bench binaries
// produce schema-valid BENCH_*.json artifacts, gansec_benchdiff accepts a
// self-compare, and a regressed fixture trips a nonzero exit.
//
// The suite name is lowercase on purpose: `ctest -R benchdiff` is the
// documented way to run the gate, and ctest matches the discovered
// `benchdiff.*` test names.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gansec/obs/json.hpp"

namespace {

namespace fs = std::filesystem;

// Paths injected by tests/CMakeLists.txt.
const char* benchdiff_path() { return GANSEC_BENCHDIFF_PATH; }
const char* bench_perf_core_path() { return GANSEC_BENCH_PERF_CORE_PATH; }
const char* bench_table1_path() { return GANSEC_BENCH_TABLE1_PATH; }

/// Scratch directory shared by the suite (benchdiff tests run in one
/// binary; ctest-level parallelism is isolated by the PID suffix).
const fs::path& scratch_dir() {
  static const fs::path dir = [] {
    fs::path d = fs::temp_directory_path() /
                 ("gansec-benchdiff-" + std::to_string(::getpid()));
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

int run(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs one bench binary in smoke mode with an isolated cache and the
/// shared artifact directory; returns its exit code.
int run_bench_smoke(const std::string& binary, const std::string& tag) {
  const fs::path cache = scratch_dir() / ("cache-" + tag);
  std::ostringstream cmd;
  cmd << "GANSEC_BENCH_SMOKE=1 GANSEC_BENCH_CACHE_DIR=" << cache
      << " GANSEC_BENCH_OUT=" << scratch_dir() << ' ' << binary
      << " > " << (scratch_dir() / (tag + ".log")) << " 2>&1";
  return run(cmd.str());
}

/// Generates both artifacts once; tests below assert on the cached result
/// so the (comparatively slow) bench runs happen a single time.
struct Artifacts {
  int perf_exit;
  int table1_exit;
  fs::path perf_json;
  fs::path table1_json;
};

const Artifacts& artifacts() {
  static const Artifacts a = [] {
    Artifacts r;
    r.perf_exit = run_bench_smoke(bench_perf_core_path(), "perf_core");
    r.table1_exit = run_bench_smoke(bench_table1_path(), "table1");
    r.perf_json = scratch_dir() / "BENCH_perf_core.json";
    r.table1_json = scratch_dir() / "BENCH_table1_likelihoods.json";
    return r;
  }();
  return a;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream os(path);
  os << content;
}

TEST(benchdiff, bench_binaries_emit_schema_valid_artifacts) {
  ASSERT_EQ(artifacts().perf_exit, 0);
  ASSERT_EQ(artifacts().table1_exit, 0);
  for (const fs::path& artifact :
       {artifacts().perf_json, artifacts().table1_json}) {
    ASSERT_TRUE(fs::exists(artifact)) << artifact;
    const std::string text = read_file(artifact);
    std::string error;
    EXPECT_TRUE(gansec::obs::json_valid(text, &error)) << error;
    const auto root = gansec::obs::parse_json(text);
    ASSERT_TRUE(root.is_object());
    EXPECT_EQ(root.find("schema")->as_string(), "gansec.bench.v1");
    EXPECT_TRUE(root.find_path({"build", "git_sha"})->is_string());
    EXPECT_FALSE(root.find("metrics")->as_object().empty());
    // --check agrees.
    EXPECT_EQ(run(std::string(benchdiff_path()) + " --check " +
                  artifact.string() + " > /dev/null"),
              0);
  }
}

TEST(benchdiff, perf_core_reports_ns_per_iter_and_allocs) {
  ASSERT_EQ(artifacts().perf_exit, 0);
  const auto root = gansec::obs::parse_json(read_file(artifacts().perf_json));
  const auto& metrics = root.find("metrics")->as_object();
  bool has_ns = false;
  bool has_allocs = false;
  for (const auto& [key, entry] : metrics) {
    if (key.find(".ns_per_iter") != std::string::npos) has_ns = true;
    if (key.find(".allocs_per_iter") != std::string::npos) has_allocs = true;
    EXPECT_TRUE(entry.find("value")->is_number()) << key;
    EXPECT_TRUE(entry.find("direction")->is_string()) << key;
  }
  EXPECT_TRUE(has_ns);
  EXPECT_TRUE(has_allocs);
}

TEST(benchdiff, self_compare_exits_zero) {
  ASSERT_EQ(artifacts().perf_exit, 0);
  for (const fs::path& artifact :
       {artifacts().perf_json, artifacts().table1_json}) {
    EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + artifact.string() +
                  ' ' + artifact.string() + " > /dev/null"),
              0)
        << artifact;
  }
}

TEST(benchdiff, twenty_percent_ns_per_iter_regression_fails) {
  // A synthetic fixture pair: the candidate's ns/iter is +20%, past the
  // default 10% threshold.
  const char* base_json =
      R"({"schema":"gansec.bench.v1","name":"fixture","smoke":false,)"
      R"("build":{"git_sha":"aaaa"},"host":{},"wall_ms":1.0,)"
      R"("metrics":{"BM_Fixture.ns_per_iter":)"
      R"({"value":100.0,"direction":"lower_is_better"}},"checks":{}})";
  const char* cand_json =
      R"({"schema":"gansec.bench.v1","name":"fixture","smoke":false,)"
      R"("build":{"git_sha":"bbbb"},"host":{},"wall_ms":1.0,)"
      R"("metrics":{"BM_Fixture.ns_per_iter":)"
      R"({"value":120.0,"direction":"lower_is_better"}},"checks":{}})";
  const fs::path base = scratch_dir() / "fixture_base.json";
  const fs::path cand = scratch_dir() / "fixture_cand.json";
  write_file(base, base_json);
  write_file(cand, cand_json);
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + base.string() + ' ' +
                cand.string() + " > /dev/null"),
            1);
  // The reverse direction is an improvement, not a regression.
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + cand.string() + ' ' +
                base.string() + " > /dev/null"),
            0);
  // A loose threshold lets the same +20% through.
  EXPECT_EQ(run(std::string(benchdiff_path()) + " --threshold 0.25 " +
                base.string() + ' ' + cand.string() + " > /dev/null"),
            0);
}

TEST(benchdiff, direction_awareness) {
  const char* base_json =
      R"({"schema":"gansec.bench.v1","name":"fixture","smoke":false,)"
      R"("build":{"git_sha":"aaaa"},"host":{},"wall_ms":1.0,"metrics":{)"
      R"("accuracy":{"value":0.9,"direction":"higher_is_better"},)"
      R"("count":{"value":10.0,"direction":"two_sided"}},"checks":{}})";
  const char* cand_drop =
      R"({"schema":"gansec.bench.v1","name":"fixture","smoke":false,)"
      R"("build":{"git_sha":"bbbb"},"host":{},"wall_ms":1.0,"metrics":{)"
      R"("accuracy":{"value":0.7,"direction":"higher_is_better"},)"
      R"("count":{"value":10.0,"direction":"two_sided"}},"checks":{}})";
  const char* cand_drift =
      R"({"schema":"gansec.bench.v1","name":"fixture","smoke":false,)"
      R"("build":{"git_sha":"cccc"},"host":{},"wall_ms":1.0,"metrics":{)"
      R"("accuracy":{"value":0.9,"direction":"higher_is_better"},)"
      R"("count":{"value":13.0,"direction":"two_sided"}},"checks":{}})";
  const fs::path base = scratch_dir() / "dir_base.json";
  const fs::path drop = scratch_dir() / "dir_drop.json";
  const fs::path drift = scratch_dir() / "dir_drift.json";
  write_file(base, base_json);
  write_file(drop, cand_drop);
  write_file(drift, cand_drift);
  // Accuracy falling 22% regresses a higher_is_better metric.
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + base.string() + ' ' +
                drop.string() + " > /dev/null"),
            1);
  // A two_sided metric regresses on drift in either direction.
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + base.string() + ' ' +
                drift.string() + " > /dev/null"),
            1);
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + drift.string() + ' ' +
                base.string() + " > /dev/null"),
            1);
}

/// A one-metric bench artifact with the given scale and core count.
std::string scaled_fixture(bool smoke, int cores) {
  return std::string(R"({"schema":"gansec.bench.v1","name":"fixture",)") +
         "\"smoke\":" + (smoke ? "true" : "false") +
         R"(,"build":{"git_sha":"aaaa"},)" +
         R"("host":{"hardware_concurrency":)" + std::to_string(cores) +
         R"(},"wall_ms":1.0,"metrics":{"BM_Fixture.ns_per_iter":)" +
         R"({"value":100.0,"direction":"lower_is_better"}},"checks":{}})";
}

TEST(benchdiff, smoke_and_full_scale_artifacts_do_not_compare) {
  const fs::path full = scratch_dir() / "scale_full.json";
  const fs::path smoke = scratch_dir() / "scale_smoke.json";
  const fs::path log = scratch_dir() / "scale.err";
  write_file(full, scaled_fixture(false, 4));
  write_file(smoke, scaled_fixture(true, 4));
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + full.string() + ' ' +
                smoke.string() + " > /dev/null 2> " + log.string()),
            2);
  EXPECT_NE(read_file(log).find("scale mismatch"), std::string::npos);
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + smoke.string() + ' ' +
                full.string() + " > /dev/null 2> /dev/null"),
            2);
  // Same scale on both sides still compares.
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + smoke.string() + ' ' +
                smoke.string() + " > /dev/null"),
            0);
}

TEST(benchdiff, core_count_change_warns_but_compares) {
  const fs::path one = scratch_dir() / "cores_1.json";
  const fs::path four = scratch_dir() / "cores_4.json";
  const fs::path out = scratch_dir() / "cores.out";
  write_file(one, scaled_fixture(false, 1));
  write_file(four, scaled_fixture(false, 4));
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + one.string() + ' ' +
                four.string() + " > " + out.string()),
            0);
  EXPECT_NE(read_file(out).find("WARN  host.hardware_concurrency differs"),
            std::string::npos);
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + four.string() + ' ' +
                four.string() + " > " + out.string()),
            0);
  EXPECT_EQ(read_file(out).find("hardware_concurrency"), std::string::npos);
}

TEST(benchdiff, rejects_malformed_artifacts) {
  const fs::path bad = scratch_dir() / "bad.json";
  write_file(bad, "{\"schema\":\"gansec.bench.v1\"");  // truncated
  EXPECT_EQ(run(std::string(benchdiff_path()) + " --check " + bad.string() +
                " 2> /dev/null"),
            2);
  const fs::path wrong = scratch_dir() / "wrong_schema.json";
  write_file(wrong, "{\"schema\":\"something.else\",\"metrics\":{}}");
  EXPECT_EQ(run(std::string(benchdiff_path()) + " --check " +
                wrong.string() + " 2> /dev/null"),
            2);
  // Comparing artifacts with different schemas is an error, not a pass.
  const fs::path report = scratch_dir() / "mini_report.json";
  write_file(report,
             R"({"schema":"gansec.run_report.v1","command":"x",)"
             R"("build":{},"host":{},"seeds":{},"phases":[],"config":{},)"
             R"("results":{"m":1.0}})");
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' +
                artifacts().perf_json.string() + ' ' + report.string() +
                " 2> /dev/null > /dev/null"),
            2);
}

TEST(benchdiff, compares_run_report_results) {
  const char* base_json =
      R"({"schema":"gansec.run_report.v1","command":"train","build":{},)"
      R"("host":{},"seeds":{},"phases":[],"config":{},)"
      R"("results":{"likelihood.margin":0.5}})";
  const char* cand_json =
      R"({"schema":"gansec.run_report.v1","command":"train","build":{},)"
      R"("host":{},"seeds":{},"phases":[],"config":{},)"
      R"("results":{"likelihood.margin":0.2}})";
  const fs::path base = scratch_dir() / "report_base.json";
  const fs::path cand = scratch_dir() / "report_cand.json";
  write_file(base, base_json);
  write_file(cand, cand_json);
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + base.string() + ' ' +
                base.string() + " > /dev/null"),
            0);
  EXPECT_EQ(run(std::string(benchdiff_path()) + ' ' + base.string() + ' ' +
                cand.string() + " > /dev/null"),
            1);
}

}  // namespace
