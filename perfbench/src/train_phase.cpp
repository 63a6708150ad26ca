// The train phase: the time to a deployable detector —
// DatasetBuilder::build_split, Algorithm 2 (CganTrainer::train) and
// ModelRegistry::save at ExecutionConfig::threads = 4 — then, off the
// clock, the paper's leak result and the checks on the trained model.
//
// The leak result is always that of the paper-scale model: the serve
// fixture, which is this train path at the full scale with kFixedSeed. At
// the full scale the phase checks that it trained exactly that model; a
// probe-size model is too small for a leak figure worth gating.

#include <unistd.h>

#include <filesystem>
#include <string>

#include "gansec/model/registry.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/obs/trace.hpp"
#include "gansec/security/confidentiality.hpp"
#include "phases.hpp"
#include "train_path.hpp"

namespace perfbench {

namespace obs = gansec::obs;
namespace fs = std::filesystem;

namespace {

std::uint64_t counter_value(const char* name) {
  return obs::counter(name).value();
}

/// Nominal GEMM flops of one Algorithm 2 iteration (k = 1): the
/// discriminator step runs D forward+backward on the real and the fake
/// batch plus one G forward (G + 6D); the generator step runs G and D
/// forward and backward (3G + 3D). A backward pass counts twice its
/// forward (input and weight gradients).
double flops_per_iteration(const gan::CganTopology& t, std::size_t batch) {
  const auto net = [batch](std::size_t in, const std::vector<std::size_t>& h,
                           std::size_t out) {
    double macs = 0.0;
    std::size_t prev = in;
    for (const std::size_t w : h) {
      macs += static_cast<double>(prev * w);
      prev = w;
    }
    macs += static_cast<double>(prev * out);
    return 2.0 * static_cast<double>(batch) * macs;
  };
  const double g = net(t.noise_dim + t.cond_dim, t.generator_hidden,
                       t.data_dim);
  const double d = net(t.data_dim + t.cond_dim, t.discriminator_hidden, 1);
  return 4.0 * g + 9.0 * d;
}

/// Phase spans the program's spans are filed under (see
/// import_program_spans): the set-up and train steps, the serve phases and
/// the replay.
bool is_phase(const SpanRecord& s) {
  return s.tag == "setup" || s.tag == "train" || s.tag == "paced" ||
         s.tag == "saturate" || s.tag == "replay";
}

}  // namespace

TrainPass train_pass(const Options& o, const Scale& scale, SpanLog& spans,
                     RunResult& out) {
  const fs::path dir =
      fs::path(o.work_dir) / ("train-registry-" + std::to_string(getpid()));
  fs::remove_all(dir);
  TrainPass p;
  p.windows = 3 * scale.samples_per_condition;
  p.iterations = scale.iterations;
  const std::uint64_t dispatched0 =
      counter_value("exec.parallel_for_dispatched");
  const std::uint64_t alloc0 = counter_value("math.workspace.alloc_bytes");
  const std::int64_t root = spans.open("perfbench.train_path", -1, "train");
  TrainPath path =
      run_train_path(scale, kFixedSeed, dir.string(), spans, root);
  p.train_s = spans.close(root) / 1e6;
  p.start_us = spans.spans()[static_cast<std::size_t>(root)].start_us;
  p.end_us = spans.spans()[static_cast<std::size_t>(root)].end_us;
  p.dispatched = counter_value("exec.parallel_for_dispatched") - dispatched0;
  p.alloc_bytes = counter_value("math.workspace.alloc_bytes") - alloc0;
  p.build_s = path.build_s;
  p.fit_s = path.train_s;
  p.save_s = path.save_s;
  p.gflop = flops_per_iteration(topology(scale), scale.batch) *
            static_cast<double>(scale.iterations) / 1e9;

  gan::Cgan paper_model = gansec::model::ModelRegistry(
                              fixture_registry(o.fixture_dir))
                              .load_latest(bench_pair());
  const std::int64_t leak = spans.open("security.confidentiality", -1, "leak");
  const gansec::security::ConfidentialityAnalyzer analyzer(
      gansec::security::ConfidentialityConfig{}, kFixedSeed ^ 0xC0);
  p.leak_acc =
      analyzer
          .analyze(paper_model,
                   load_fixture_heldout(o.fixture_dir,
                                        paper_model.topology().cond_dim))
          .attacker_accuracy;
  spans.close(leak);
  out.check(p.leak_acc > 0.0, "attacker accuracy is zero");

  // Same samples for a fixed noise seed: after a registry round trip, and
  // (full scale) against the fixture.
  math::Matrix conditions(12, 3, 0.0F);
  for (std::size_t r = 0; r < conditions.rows(); ++r) conditions(r, r % 3) = 1;
  const auto samples = [&conditions](gan::Cgan& model) {
    math::Rng rng(0x5EED);
    return model.generate(conditions, rng);
  };
  gan::Cgan reloaded =
      gansec::model::ModelRegistry(dir.string()).load_latest(bench_pair());
  out.check(samples(path.model) == samples(reloaded),
            "reloaded model generates different samples");
  if (scale.samples_per_condition == o.scale.samples_per_condition &&
      scale.iterations == o.scale.iterations) {
    out.check(samples(path.model) == samples(paper_model),
              "trained model differs from the fixture trained with the "
              "same seed");
  }
  fs::remove_all(dir);
  return p;
}

double synth_ms_per_window(const TrainPass& p) {
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  const auto inside = [&p](const obs::TraceEvent& e) {
    return static_cast<double>(e.ts_us) >= p.start_us &&
           static_cast<double>(e.ts_us + e.dur_us) <= p.end_us;
  };
  double synth_us = 0.0;
  for (const obs::TraceEvent& build : events) {
    if (std::string(build.name) != "am.dataset.build" || !inside(build)) {
      continue;
    }
    double cwt_us = 0.0;
    for (const obs::TraceEvent& e : events) {
      if (e.tid == build.tid &&
          std::string(e.name) == "dsp.cwt.band_energies" &&
          e.ts_us >= build.ts_us &&
          e.ts_us + e.dur_us <= build.ts_us + build.dur_us) {
        cwt_us += static_cast<double>(e.dur_us);
      }
    }
    synth_us += static_cast<double>(build.dur_us) - cwt_us;
  }
  return synth_us / static_cast<double>(p.windows) / 1000.0;
}

void import_program_spans(SpanLog& spans) {
  const std::vector<SpanRecord> phases = spans.spans();
  for (const obs::TraceEvent& e : obs::trace_events()) {
    std::int64_t parent = -1;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (is_phase(phases[i]) && phases[i].start_us <= e.ts_us &&
          e.ts_us + e.dur_us <= phases[i].end_us) {
        parent = static_cast<std::int64_t>(i);
      }
    }
    spans.add(e.name, e.ts_us, e.ts_us + e.dur_us, parent,
              parent >= 0 ? phases[static_cast<std::size_t>(parent)].tag
                          : "program");
  }
}

}  // namespace perfbench
