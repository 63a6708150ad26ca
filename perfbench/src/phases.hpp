// The phases of one run, in the order run_workload executes them: a serve
// set-up on its own, a paced serve phase, a saturated serve phase (each
// after its own set-up), and the train path. A traced run adds the
// single-threaded stage replay between the two serve phases.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gansec/security/stream_detector.hpp"
#include "gansec/serve/loadgen.hpp"
#include "gansec/serve/service.hpp"

namespace perfbench {

/// Streams 0-2 carry integrity attacks, 3-5 availability, 6-8 none.
constexpr std::size_t kStreams = 9;

struct Traffic {
  std::vector<std::vector<gansec::serve::StreamSource::Window>>
      windows;         ///< [stream][offer order]
  std::string digest;  ///< over every window, in offer order
};

/// Synthesizes `per_stream` windows per stream from StreamSource with
/// `content_seed`, offered in an order shuffled by `order_seed`.
Traffic synthesize(const am::DatasetBuilder& builder,
                   std::uint64_t content_seed, std::uint64_t order_seed,
                   std::size_t per_stream);

/// Windows per second per stream: real time, one window per period.
double stream_rate(const Scale& scale);

/// What `gansec serve` holds once set up.
struct Served {
  std::unique_ptr<am::DatasetBuilder> builder;
  std::shared_ptr<const gansec::security::ScoringModel> model;
  gansec::security::StreamDetectorConfig detector;
  std::unique_ptr<gansec::serve::DetectorService> service;
};

/// Ring slots per stream: room for a second of paced backlog before
/// drop-oldest starts.
constexpr std::size_t kPacedRing = 64;

/// One set-up as `gansec serve` pays it (registry load, ScoringModel,
/// threshold calibration, service start), timed into `setup_s`, with a
/// span per step under a `perfbench.setup` root. Returns the running
/// service.
Served set_up(const Options& o, std::size_t ring_capacity,
              std::size_t expected_windows, SpanLog& spans, double& setup_s);

/// Open loop: every window of `traffic` pushed at its due time, 4 per
/// second per stream with the stream phases spread over one period.
struct PacedPass {
  double setup_s = 0.0;
  std::vector<double> latency_ms;  ///< due -> verdict, scored windows
  std::vector<double> e2v_ms;      ///< WindowResult::latency_us / 1000
  std::vector<double> lag_ms;      ///< push stamp - due, every window
  std::vector<double> push_us;     ///< DetectorService::push duration
  std::uint64_t offered = 0;
  std::uint64_t deadline_ok = 0;
  std::uint64_t dropped = 0;
  std::uint64_t alloc_bytes = 0;  ///< workspace bytes during the phase
  std::uint64_t integrity = 0, integrity_hit = 0;
  std::uint64_t availability = 0, availability_hit = 0;
  std::uint64_t benign = 0, false_alarms = 0;
  std::string verdict_digest;
  Served served;
};

PacedPass paced_pass(const Options& o, const Traffic& traffic,
                     RunResult& out, SpanLog& spans, bool record);

/// Closed loop: push_blocking as fast as the rings accept, for `seconds`.
struct SaturatePass {
  double setup_s = 0.0;
  double push_phase_s = 0.0;            ///< first push -> producer stops
  std::uint64_t push_phase_scored = 0;  ///< windows scored in that phase
  std::uint64_t offered = 0;
  std::uint64_t alloc_bytes = 0;
  Served served;
  double windows_per_s() const {
    return static_cast<double>(push_phase_scored) / push_phase_s;
  }
};

SaturatePass saturate_pass(const Options& o, double seconds,
                           const Traffic& pool, RunResult& out,
                           SpanLog& spans, bool record);

/// Per-window stage times from a single-threaded replay of the run's own
/// windows through each stage's public function.
struct Replay {
  double cwt_stream_ms = 0.0;
  double cwt_batch_ms = 0.0;
  double fft_us = 0.0;
  double scale_us = 0.0;
  double score_us = 0.0;
  double stage_sum_ms() const {
    return cwt_stream_ms + (scale_us + score_us) / 1000.0;
  }
};

Replay replay(const Served& sv, const Traffic& traffic, std::size_t count,
              SpanLog& spans, RunResult& out);

/// The train path (build_split -> CganTrainer::train -> registry save) at
/// `scale`'s sizes with kFixedSeed, then, off the clock, the leak result
/// and the registry round-trip check.
struct TrainPass {
  double train_s = 0.0;  ///< build_split + train + save
  double build_s = 0.0;
  double fit_s = 0.0;
  double save_s = 0.0;
  double start_us = 0.0;  ///< trace clock, train_s interval
  double end_us = 0.0;
  double leak_acc = 0.0;
  std::size_t windows = 0;
  std::size_t iterations = 0;
  double gflop = 0.0;             ///< nominal GEMM work of train()
  std::uint64_t dispatched = 0;   ///< exec.parallel_for_dispatched delta
  std::uint64_t alloc_bytes = 0;  ///< math.workspace.alloc_bytes delta
};

TrainPass train_pass(const Options& o, const Scale& scale, SpanLog& spans,
                     RunResult& out);

/// am.dataset.build self time minus its dsp.cwt.band_energies children,
/// per window, from the program's spans inside the pass's interval.
double synth_ms_per_window(const TrainPass& p);

/// Copies the program's spans into the span log, each under the innermost
/// benchmark phase span that contains it.
void import_program_spans(SpanLog& spans);

}  // namespace perfbench
