// Scales, the shared train path, and the serve fixture.
//
// The serve fixture is what `gansec train` would leave for `gansec serve`:
// a CGAN in a model registry (gansec.model.v1 through ModelRegistry::save)
// and the dataset scaler, kept as its per-bin min/max numbers. It also
// keeps the held-out split, for the leak result. It is built once per
// checkout with kFixedSeed, outside every timed phase.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "gansec/core/execution.hpp"
#include "gansec/model/registry.hpp"
#include "train_path.hpp"

namespace perfbench {

namespace fs = std::filesystem;

Scale scale_by_name(const std::string& name) {
  Scale s;
  s.name = name;
  if (name == "paper") return s;
  if (name == "tiny") {
    s.bins = 16;
    s.window_s = 0.05;
    s.samples_per_condition = 8;
    s.iterations = 30;
    s.batch = 16;
    s.hidden = 32;
    s.calibrate_per_condition = 4;
    s.saturate_pool = 4;
    s.replay_windows = 4;
    s.probe_paced_s = 0.5;
    s.probe_saturate_s = 0.5;
    s.probe_samples_per_condition = 8;
    s.probe_iterations = 30;
    return s;
  }
  throw std::invalid_argument("unknown --scale " + name);
}

Scale probe_train_scale(const Scale& scale) {
  Scale probe = scale;
  probe.samples_per_condition = scale.probe_samples_per_condition;
  probe.iterations = scale.probe_iterations;
  return probe;
}

am::DatasetConfig dataset_config(const Scale& scale, std::uint64_t seed) {
  am::DatasetConfig config;
  config.samples_per_condition = scale.samples_per_condition;
  config.window_s = scale.window_s;
  config.bins = scale.bins;
  config.f_min = 50.0;
  config.f_max = 5000.0;
  config.acoustic.sample_rate = 16000.0;
  config.seed = seed;
  return config;
}

gan::CganTopology topology(const Scale& scale) {
  gan::CganTopology topo;
  topo.data_dim = scale.bins;
  topo.cond_dim = 3;
  topo.noise_dim = 16;
  topo.generator_hidden = {scale.hidden, scale.hidden};
  topo.discriminator_hidden = topo.generator_hidden;
  return topo;
}

gan::TrainConfig train_config(const Scale& scale) {
  gan::TrainConfig config;
  config.iterations = scale.iterations;
  config.batch_size = scale.batch;
  return config;
}

cpps::FlowPair bench_pair() { return {"F1", "F16"}; }

TrainPath run_train_path(const Scale& scale, std::uint64_t seed,
                         const std::string& registry_dir, SpanLog& spans,
                         std::int64_t parent) {
  gansec::core::ExecutionConfig exec;
  exec.threads = kThreads;
  const gansec::core::ScopedExecution scoped(exec);
  TrainPath out{am::DatasetBuilder(dataset_config(scale, seed)), {}, {},
                gan::Cgan(topology(scale), seed)};

  const std::int64_t build = spans.open("am.dataset_build", parent, "train");
  auto [train, test] = out.builder.build_split(0.7);
  out.build_s = spans.close(build) / 1e6;
  out.train = std::move(train);
  out.test = std::move(test);

  const std::int64_t fit = spans.open("gan.train", parent, "train");
  gan::CganTrainer trainer(out.model, train_config(scale), seed ^ 0x7EA1);
  trainer.train(out.train.features, out.train.conditions);
  out.train_s = spans.close(fit) / 1e6;

  const std::int64_t save = spans.open("model.save", parent, "train");
  gansec::model::ModelRegistry registry(registry_dir);
  registry.save(bench_pair(), out.model);
  out.save_s = spans.close(save) / 1e6;
  return out;
}

std::string fixture_registry(const std::string& fixture_dir) {
  return (fs::path(fixture_dir) / "registry").string();
}

gansec::dsp::MinMaxScaler load_fixture_scaler(const std::string& fixture_dir,
                                              std::size_t bins) {
  std::ifstream is(fs::path(fixture_dir) / "scaler.txt");
  if (!is) throw std::runtime_error("fixture has no scaler: " + fixture_dir);
  math::Matrix rows(2, bins);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < bins; ++c) {
      if (!(is >> rows(r, c))) {
        throw std::runtime_error("fixture scaler is truncated");
      }
    }
  }
  // Fitting on the (min row, max row) pair restores exactly those bounds.
  gansec::dsp::MinMaxScaler scaler;
  scaler.fit(rows);
  return scaler;
}

am::LabeledDataset load_fixture_heldout(const std::string& fixture_dir,
                                        std::size_t cond_dim) {
  std::ifstream is(fs::path(fixture_dir) / "heldout.txt");
  std::size_t rows = 0;
  std::size_t cols = 0;
  if (!(is >> rows >> cols)) {
    throw std::runtime_error("fixture has no held-out split: " + fixture_dir);
  }
  am::LabeledDataset test{math::Matrix(rows, cols),
                          math::Matrix(rows, cond_dim, 0.0F), {}};
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t label = 0;
    if (!(is >> label) || label >= cond_dim) {
      throw std::runtime_error("fixture held-out split is malformed");
    }
    test.labels.push_back(label);
    test.conditions(r, label) = 1.0F;
    for (std::size_t c = 0; c < cols; ++c) {
      if (!(is >> test.features(r, c))) {
        throw std::runtime_error("fixture held-out split is truncated");
      }
    }
  }
  return test;
}

void make_fixture(const Options& options) {
  const fs::path final_dir(options.fixture_dir);
  const fs::path tmp = final_dir.string() + ".tmp" + std::to_string(getpid());
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  SpanLog spans;
  const TrainPath path = run_train_path(options.scale, kFixedSeed,
                                        fixture_registry(tmp.string()), spans);
  {
    std::ofstream os(tmp / "scaler.txt");
    os << std::setprecision(std::numeric_limits<float>::max_digits10);
    const auto& scaler = path.builder.scaler();
    for (const auto* row : {&scaler.mins(), &scaler.maxs()}) {
      for (const float v : *row) os << v << ' ';
      os << '\n';
    }
    if (!os) throw std::runtime_error("cannot write fixture scaler");
  }
  {
    std::ofstream os(tmp / "heldout.txt");
    os << std::setprecision(std::numeric_limits<float>::max_digits10);
    const am::LabeledDataset& test = path.test;
    os << test.size() << ' ' << test.features.cols() << '\n';
    for (std::size_t r = 0; r < test.size(); ++r) {
      os << test.labels[r];
      for (std::size_t c = 0; c < test.features.cols(); ++c) {
        os << ' ' << test.features(r, c);
      }
      os << '\n';
    }
    if (!os) throw std::runtime_error("cannot write fixture held-out split");
  }
  fs::remove_all(final_dir);
  fs::rename(tmp, final_dir);
  std::cerr << "perfbench: fixture written to " << final_dir.string() << " ("
            << path.build_s + path.train_s + path.save_s << " s)\n";
}

}  // namespace perfbench
