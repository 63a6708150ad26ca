#include "gansec/am/dataset.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

#include "gansec/error.hpp"
#include "gansec/obs/log.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/obs/trace.hpp"

namespace gansec::am {

using math::Matrix;

void LabeledDataset::validate() const {
  if (features.rows() != conditions.rows() ||
      features.rows() != labels.size()) {
    throw DimensionError(
        "LabeledDataset: features/conditions/labels row mismatch");
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= conditions.cols()) {
      throw DimensionError("LabeledDataset: label out of condition range");
    }
    if (conditions(i, labels[i]) != 1.0F) {
      throw DimensionError(
          "LabeledDataset: condition row does not one-hot match its label");
    }
  }
}

Matrix LabeledDataset::features_for_label(std::size_t label) const {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) rows.push_back(i);
  }
  return features.gather_rows(rows);
}

void LabeledDataset::shuffle(math::Rng& rng) {
  std::vector<std::size_t> perm(size());
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  features = features.gather_rows(perm);
  conditions = conditions.gather_rows(perm);
  std::vector<std::size_t> new_labels(size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    new_labels[i] = labels[perm[i]];
  }
  labels = std::move(new_labels);
}

LabeledDataset LabeledDataset::take(std::size_t n) const {
  if (n > size()) {
    throw InvalidArgumentError("LabeledDataset::take: n exceeds size");
  }
  LabeledDataset out;
  out.features = features.slice_rows(0, n);
  out.conditions = conditions.slice_rows(0, n);
  out.labels.assign(labels.begin(),
                    labels.begin() + static_cast<std::ptrdiff_t>(n));
  return out;
}

LabeledDataset LabeledDataset::concat(const LabeledDataset& a,
                                      const LabeledDataset& b) {
  LabeledDataset out;
  out.features = Matrix::vstack(a.features, b.features);
  out.conditions = Matrix::vstack(a.conditions, b.conditions);
  out.labels = a.labels;
  out.labels.insert(out.labels.end(), b.labels.begin(), b.labels.end());
  return out;
}

DatasetBuilder::DatasetBuilder(DatasetConfig config)
    : config_(config),
      binner_(config.f_min, config.f_max, config.bins, config.spacing),
      cwt_(dsp::CwtConfig{config.acoustic.sample_rate, 6.0}),
      stft_(dsp::StftConfig{config.acoustic.sample_rate,
                            config.stft_frame_length,
                            config.stft_frame_length / 4,
                            dsp::WindowKind::kHann}),
      encoder_(config.scheme),
      rng_(config.seed) {
  if (config_.samples_per_condition == 0) {
    throw InvalidArgumentError(
        "DatasetConfig: samples_per_condition must be positive");
  }
  if (config_.window_s <= 0.0) {
    throw InvalidArgumentError("DatasetConfig: window_s must be positive");
  }
  if (config_.f_max >= config_.acoustic.sample_rate / 2.0) {
    throw InvalidArgumentError(
        "DatasetConfig: f_max must be below the simulator Nyquist rate");
  }
  if (config_.feature_method == FeatureMethod::kCwt) {
    // Same rounding as AcousticSimulator, so every synthesized observation
    // fits the table.
    const auto window_length = static_cast<std::size_t>(
        std::llround(config_.window_s * config_.acoustic.sample_rate));
    if (window_length > 0) {
      cwt_table_ = std::make_shared<const dsp::CwtTable>(
          cwt_, window_length, binner_.centers());
    }
  }
}

std::string DatasetBuilder::gcode_for_label(std::size_t label,
                                            double feed_mm_s,
                                            double distance_mm) const {
  std::ostringstream os;
  os << "G1 F" << feed_mm_s * 60.0;
  if (encoder_.scheme() == ConditionScheme::kExclusiveXyz) {
    os << ' ' << axis_name(static_cast<Axis>(label)) << distance_mm;
  } else {
    for (std::size_t i = 0; i < 3; ++i) {
      if (label & (1U << i)) {
        os << ' ' << axis_name(static_cast<Axis>(i)) << distance_mm;
      }
    }
  }
  return os.str();
}

std::vector<double> DatasetBuilder::synthesize_observation(
    std::size_t label, AcousticSimulator& acoustics) {
  // Pick the commanded feedrate from the slowest participating axis's
  // range so the move stays physical for every axis involved.
  double lo = 1e9;
  double hi = 1e9;
  const auto consider = [&](std::size_t axis) {
    lo = std::min(lo, config_.feed_mm_s[axis].first);
    hi = std::min(hi, config_.feed_mm_s[axis].second);
  };
  if (encoder_.scheme() == ConditionScheme::kExclusiveXyz) {
    consider(label);
  } else {
    for (std::size_t i = 0; i < 3; ++i) {
      if (label & (1U << i)) consider(i);
    }
    if (label == 0) {
      // Idle class: background only.
      return acoustics.synthesize_idle(config_.window_s);
    }
  }
  const double feed = rng_.uniform(lo, hi);
  // Long enough that the observation window lies inside the move.
  const double distance = feed * config_.window_s * 2.0;

  MachineSimulator machine(config_.printer);
  const GcodeCommand cmd =
      parse_gcode_line(gcode_for_label(label, feed, distance));
  const MotionSegment segment = machine.apply(cmd);
  return acoustics.synthesize_channel(segment, config_.channel,
                                      config_.window_s);
}

LabeledDataset DatasetBuilder::build() {
  GANSEC_SPAN("am.dataset.build");
  const std::size_t cond_dim = encoder_.dimension();
  // Exclusive scheme: labels 0..2. Combination scheme: all 8 subsets
  // including idle.
  std::vector<std::size_t> class_labels;
  if (config_.scheme == ConditionScheme::kExclusiveXyz) {
    class_labels = {0, 1, 2};
  } else {
    for (std::size_t l = 0; l < 8; ++l) class_labels.push_back(l);
  }

  const std::size_t total =
      class_labels.size() * config_.samples_per_condition;
  Matrix raw(total, binner_.size());
  Matrix conditions(total, cond_dim, 0.0F);
  std::vector<std::size_t> labels(total);

  AcousticSimulator acoustics(config_.acoustic, config_.seed ^ 0xA5A5A5A5ULL);
  std::size_t row = 0;
  for (const std::size_t label : class_labels) {
    for (std::size_t s = 0; s < config_.samples_per_condition; ++s) {
      const std::vector<double> wave =
          synthesize_observation(label, acoustics);
      const math::Matrix energies = raw_features(wave);
      for (std::size_t c = 0; c < energies.cols(); ++c) {
        raw(row, c) = energies(0, c);
      }
      conditions(row, label) = 1.0F;
      labels[row] = label;
      ++row;
    }
  }

  LabeledDataset out;
  out.features = scaler_.fit_transform(raw);
  out.conditions = std::move(conditions);
  out.labels = std::move(labels);
  out.validate();
  static obs::Counter& observations = obs::counter("am.dataset.observations");
  observations.add(total);
  GANSEC_LOG_DEBUG("am.dataset.build.done", {"rows", total},
                   {"bins", binner_.size()}, {"cond_dim", cond_dim},
                   {"classes", class_labels.size()});
  return out;
}

std::pair<LabeledDataset, LabeledDataset> DatasetBuilder::build_split(
    double train_fraction) {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw InvalidArgumentError(
        "DatasetBuilder::build_split: fraction must be in (0,1)");
  }
  LabeledDataset all = build();
  all.shuffle(rng_);
  const auto n_train = static_cast<std::size_t>(
      std::floor(train_fraction * static_cast<double>(all.size())));
  if (n_train == 0 || n_train == all.size()) {
    throw InvalidArgumentError(
        "DatasetBuilder::build_split: split leaves an empty side");
  }
  LabeledDataset train = all.take(n_train);
  LabeledDataset test;
  test.features = all.features.slice_rows(n_train, all.size());
  test.conditions = all.conditions.slice_rows(n_train, all.size());
  test.labels.assign(all.labels.begin() + static_cast<std::ptrdiff_t>(n_train),
                     all.labels.end());
  return {std::move(train), std::move(test)};
}

math::Matrix DatasetBuilder::raw_features(
    const std::vector<double>& waveform) const {
  std::vector<double> energies;
  if (config_.feature_method == FeatureMethod::kStft) {
    energies = stft_.band_energies(waveform, binner_.centers());
  } else if (cwt_table_ && waveform.size() == cwt_table_->window_length()) {
    energies = cwt_table_->band_energies(waveform);
  } else {
    energies = cwt_.band_energies(waveform, binner_.centers());
  }
  Matrix row(1, energies.size());
  for (std::size_t c = 0; c < energies.size(); ++c) {
    row(0, c) = static_cast<float>(energies[c]);
  }
  return row;
}

math::Matrix DatasetBuilder::features_for_waveform(
    const std::vector<double>& waveform) const {
  return scaler().transform(raw_features(waveform));
}

void DatasetBuilder::restore_scaler(dsp::MinMaxScaler scaler) {
  if (!scaler.fitted()) {
    throw InvalidArgumentError(
        "DatasetBuilder::restore_scaler: scaler is not fitted");
  }
  if (scaler.mins().size() != binner_.size()) {
    throw DimensionError(
        "DatasetBuilder::restore_scaler: scaler width does not match the "
        "feature grid");
  }
  scaler_ = std::move(scaler);
}

const dsp::MinMaxScaler& DatasetBuilder::scaler() const {
  if (!scaler_.fitted()) {
    throw InvalidArgumentError(
        "DatasetBuilder::scaler: call build() first to fit the scaler");
  }
  return scaler_;
}

}  // namespace gansec::am
