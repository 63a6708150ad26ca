// Shared pieces of the repo benchmark: run options, the two scales, the
// result record a run fills, and the benchmark's own span recorder (kept
// in memory, written once when the run ends).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gansec/am/dataset.hpp"
#include "gansec/cpps/flow.hpp"
#include "gansec/gan/cgan.hpp"
#include "gansec/gan/trainer.hpp"
#include "gansec/math/stats.hpp"

namespace perfbench {

namespace am = gansec::am;
namespace cpps = gansec::cpps;
namespace gan = gansec::gan;
namespace math = gansec::math;

/// Busy threads a run may use: `nproc` of the reference host. The serve
/// phases run 3 shards + 1 producer; the train path runs 4 pool lanes.
constexpr std::size_t kThreads = 4;

/// Seed of everything that is scored for quality: the serve fixture, the
/// train path and the labeled corpus of the paced phase (the paper's
/// year). Fixed, so the quality metrics repeat exactly in every run of a
/// commit; --seed varies only the serve traffic's order, phases and pool.
constexpr std::uint64_t kFixedSeed = 2019;

/// Sizes of one benchmark scale. `paper` is the configuration every
/// quoted number uses; `tiny` only checks the plumbing in seconds.
///
/// Every run executes every phase. The workload's own phase gets the run's
/// --seconds (serve-paced, serve-saturate) or the full train sizes
/// (train); the other phases run at their probe size.
struct Scale {
  std::string name;
  std::size_t bins = 100;
  double window_s = 0.25;
  std::size_t samples_per_condition = 150;
  std::size_t iterations = 1500;
  std::size_t batch = 48;
  std::size_t hidden = 128;
  std::size_t calibrate_per_condition = 25;  ///< `gansec serve` default
  std::size_t saturate_pool = 16;            ///< pool windows per stream
  std::size_t replay_windows = 24;           ///< single-thread replay size
  double probe_paced_s = 4.0;                ///< paced phase, other workloads
  double probe_saturate_s = 3.0;             ///< saturate phase, ditto
  std::size_t probe_samples_per_condition = 32;  ///< train path, ditto
  std::size_t probe_iterations = 150;
};

/// `scale` with the train path cut to its probe size.
Scale probe_train_scale(const Scale& scale);

Scale scale_by_name(const std::string& name);  ///< throws on unknown names

am::DatasetConfig dataset_config(const Scale& scale, std::uint64_t seed);
gan::CganTopology topology(const Scale& scale);
gan::TrainConfig train_config(const Scale& scale);

/// The flow pair every benchmark model is registered under.
cpps::FlowPair bench_pair();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  std::size_t shards = 3;
  std::string fixture_dir;  ///< serve fixture (built by --make-fixture)
  std::string work_dir;     ///< scratch + span files, inside the checkout
};

/// Microseconds on the program's trace clock (obs::trace_now_us).
std::uint64_t now_us();
/// The same clock at nanosecond resolution, for spans around short calls.
double span_now_us();

/// One span recorded by the benchmark around a call into a layer.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;  ///< trace clock
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::string tag;           ///< window id ("s3/w17") or phase name
};

/// In-memory span store. Spans are opened and closed from the thread that
/// drives the benchmark only, so no locking.
class SpanLog {
 public:
  /// Opens a span and returns its id.
  std::int64_t open(std::string name, std::int64_t parent = -1,
                    std::string tag = {});
  /// Closes span `id`; returns its duration in microseconds.
  double close(std::int64_t id);
  /// Records an already measured interval.
  std::int64_t add(std::string name, double start_us, double end_us,
                   std::int64_t parent = -1,
                   std::string tag = {});
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Durations (ms) of every closed span with this name.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Writes the spans as one JSON document.
  void write_json(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
};

/// Everything a workload reports back to main().
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Free-form provenance and digests, printed as `# key value` lines.
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one output check; a false `ok` is a failure (and is logged).
  void check(bool ok, const std::string& what);
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
};

inline double median(std::vector<double> xs) {
  return math::percentile(std::move(xs), 50.0);
}

/// FNV-1a accumulator for traffic and verdict digests.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  template <typename T>
  void add(const T& value) {
    add_bytes(&value, sizeof(value));
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Replays one window through the batch CWT (MorletCwt::band_energies,
/// span "dsp.cwt_batch") and the FFT of the zero-padded window
/// (fft_in_place, span "dsp.fft"); returns the band energies.
std::vector<double> replay_batch_stages(const am::DatasetBuilder& builder,
                                        const std::vector<double>& samples,
                                        SpanLog& spans, std::int64_t parent,
                                        const std::string& tag);

/// Where a traced run writes its spans:
/// <work_dir>/spans-<workload>-seed<N>.json
std::string span_file(const Options& options);

/// Peak resident memory of this process, MB.
double peak_rss_mb();

/// Runs every phase, sized for `options.workload`, and reports the
/// end-to-end metrics (or, traced, the per-layer metrics).
RunResult run_workload(const Options& options);
/// Trains the serve fixture at the scale with the fixed fixture seed and
/// writes it under `options.fixture_dir`.
void make_fixture(const Options& options);

}  // namespace perfbench
