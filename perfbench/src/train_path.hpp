// The train path shared by the `train` workload and the serve fixture:
// dataset build -> Algorithm 2 -> registry save, at one scale and seed.
#pragma once

#include <string>

#include "bench.hpp"
#include "gansec/dsp/features.hpp"

namespace perfbench {

struct TrainPath {
  am::DatasetBuilder builder;
  am::LabeledDataset train;
  am::LabeledDataset test;
  gan::Cgan model;
  double build_s = 0.0;  ///< DatasetBuilder::build_split
  double train_s = 0.0;  ///< CganTrainer::train
  double save_s = 0.0;   ///< ModelRegistry::save
};

/// Runs the train path with ExecutionConfig::threads = kThreads and records
/// one span per phase under `parent`.
TrainPath run_train_path(const Scale& scale, std::uint64_t seed,
                         const std::string& registry_dir, SpanLog& spans,
                         std::int64_t parent = -1);

std::string fixture_registry(const std::string& fixture_dir);

/// The fixture's held-out split (features, one-hot conditions, labels).
am::LabeledDataset load_fixture_heldout(const std::string& fixture_dir,
                                        std::size_t cond_dim);

/// The fixture's scaler, restored with MinMaxScaler::fit on its two rows.
gansec::dsp::MinMaxScaler load_fixture_scaler(const std::string& fixture_dir,
                                              std::size_t bins);

}  // namespace perfbench
