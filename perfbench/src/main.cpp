// gansec_perfbench — the repo benchmark's executable.
//
//   gansec_perfbench --workload serve-paced|serve-saturate|train
//                    --seed N --seconds S --trace 0|1
//                    --fixture DIR --work-dir DIR [--scale paper|tiny]
//                    [--shards K]
//   gansec_perfbench --make-fixture --fixture DIR [--scale paper|tiny]
//
// Prints provenance and digests as `# key value` lines, then, as the last
// line, one JSON object {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are every end-to-end metric; with --trace 1 every
// per-layer metric (and a span file in the work dir).
// Exits non-zero, without a result line, when the build is not Release or
// the run is invalid.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "gansec/obs/json.hpp"
#include "gansec/obs/report.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "gansec_perfbench: " << why << "\n"
            << "usage: gansec_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --fixture DIR --work-dir DIR [--scale S] "
               "[--shards K]\n"
               "       gansec_perfbench --make-fixture --fixture DIR "
               "[--scale S]\n";
  std::exit(2);
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const RunResult& r) {
  for (const auto& [key, value] : r.notes) {
    std::cout << "# " << key << " " << value << "\n";
  }
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\""
              << gansec::obs::json_escape(m.name)
              << "\": {\"value\": " << format_number(m.value)
              << ", \"unit\": \"" << gansec::obs::json_escape(m.unit)
              << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool make_fixture = false;
  std::string scale = "paper";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
        have_trace = true;
      } else if (a == "--scale") {
        scale = value();
      } else if (a == "--shards") {
        o.shards = std::stoul(value());
      } else if (a == "--fixture") {
        o.fixture_dir = value();
      } else if (a == "--work-dir") {
        o.work_dir = value();
      } else if (a == "--make-fixture") {
        make_fixture = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }

  try {
    o.scale = perfbench::scale_by_name(scale);
    const gansec::obs::BuildInfo& build = gansec::obs::build_info();
    if (build.build_type != "Release") {
      std::cerr << "gansec_perfbench: build type is '" << build.build_type
                << "', not Release; refusing to measure it\n";
      return 1;
    }
    if (o.fixture_dir.empty()) usage("--fixture is required");
    if (make_fixture) {
      perfbench::make_fixture(o);
      return 0;
    }
    if (!have_seed || !have_trace || o.work_dir.empty()) {
      usage("--seed, --trace and --work-dir are required");
    }
    if (o.seconds <= 0.0 || o.shards == 0) {
      usage("--seconds and --shards must be positive");
    }
    std::filesystem::create_directories(o.work_dir);
    if (o.workload != "serve-paced" && o.workload != "serve-saturate" &&
        o.workload != "train") {
      usage("unknown --workload " + o.workload);
    }
    RunResult r = perfbench::run_workload(o);
    r.note("seed", std::to_string(o.seed));
    r.note("scale", o.scale.name);
    r.note("build_type", build.build_type);
    r.note("git_sha", build.git_sha);
    r.note("trace", o.trace ? "1" : "0");
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "gansec_perfbench: " << e.what() << "\n";
    return 1;
  }
}
