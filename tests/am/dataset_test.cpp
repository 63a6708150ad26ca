#include "gansec/am/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "gansec/error.hpp"

namespace gansec::am {
namespace {

/// Small, fast configuration for tests.
DatasetConfig test_config() {
  DatasetConfig config;
  config.samples_per_condition = 8;
  config.window_s = 0.15;
  config.bins = 24;
  config.f_max = 4000.0;
  config.acoustic.sample_rate = 12000.0;
  config.seed = 7;
  return config;
}

TEST(DatasetConfig, Validation) {
  DatasetConfig config = test_config();
  config.samples_per_condition = 0;
  EXPECT_THROW(DatasetBuilder{config}, InvalidArgumentError);
  config = test_config();
  config.window_s = 0.0;
  EXPECT_THROW(DatasetBuilder{config}, InvalidArgumentError);
  config = test_config();
  config.f_max = 7000.0;  // above Nyquist of 12 kHz
  EXPECT_THROW(DatasetBuilder{config}, InvalidArgumentError);
}

TEST(DatasetBuilder, BuildShapes) {
  DatasetBuilder builder(test_config());
  const LabeledDataset data = builder.build();
  EXPECT_EQ(data.size(), 24U);  // 3 conditions x 8
  EXPECT_EQ(data.features.cols(), 24U);
  EXPECT_EQ(data.conditions.cols(), 3U);
  EXPECT_NO_THROW(data.validate());
}

TEST(DatasetBuilder, FeaturesScaledToUnitRange) {
  DatasetBuilder builder(test_config());
  const LabeledDataset data = builder.build();
  EXPECT_GE(data.features.min(), 0.0F);
  EXPECT_LE(data.features.max(), 1.0F);
}

TEST(DatasetBuilder, AllLabelsPresent) {
  DatasetBuilder builder(test_config());
  const LabeledDataset data = builder.build();
  std::set<std::size_t> labels(data.labels.begin(), data.labels.end());
  EXPECT_EQ(labels, (std::set<std::size_t>{0, 1, 2}));
}

TEST(DatasetBuilder, DeterministicForSameSeed) {
  DatasetBuilder a(test_config());
  DatasetBuilder b(test_config());
  EXPECT_EQ(a.build().features, b.build().features);
}

TEST(DatasetBuilder, DifferentSeedsDiffer) {
  DatasetConfig config = test_config();
  DatasetBuilder a(config);
  config.seed = 8;
  DatasetBuilder b(config);
  EXPECT_NE(a.build().features, b.build().features);
}

TEST(DatasetBuilder, ScalerRequiresBuild) {
  DatasetBuilder builder(test_config());
  EXPECT_THROW(builder.scaler(), InvalidArgumentError);
  builder.build();
  EXPECT_NO_THROW(builder.scaler());
}

TEST(DatasetBuilder, SplitSizes) {
  DatasetBuilder builder(test_config());
  const auto [train, test] = builder.build_split(0.75);
  EXPECT_EQ(train.size(), 18U);
  EXPECT_EQ(test.size(), 6U);
  EXPECT_NO_THROW(train.validate());
  EXPECT_NO_THROW(test.validate());
}

TEST(DatasetBuilder, SplitValidation) {
  DatasetBuilder builder(test_config());
  EXPECT_THROW(builder.build_split(0.0), InvalidArgumentError);
  EXPECT_THROW(builder.build_split(1.0), InvalidArgumentError);
}

TEST(DatasetBuilder, GcodeForLabelExclusive) {
  DatasetBuilder builder(test_config());
  const std::string x_line = builder.gcode_for_label(0, 20.0, 10.0);
  EXPECT_NE(x_line.find("X10"), std::string::npos);
  EXPECT_EQ(x_line.find("Y"), std::string::npos);
  const std::string z_line = builder.gcode_for_label(2, 4.0, 2.0);
  EXPECT_NE(z_line.find("Z2"), std::string::npos);
}

TEST(DatasetBuilder, CombinationSchemeBuilds) {
  DatasetConfig config = test_config();
  config.scheme = ConditionScheme::kCombinationXyz;
  config.samples_per_condition = 3;
  DatasetBuilder builder(config);
  const LabeledDataset data = builder.build();
  EXPECT_EQ(data.size(), 24U);  // 8 subsets x 3
  EXPECT_EQ(data.conditions.cols(), 8U);
  std::set<std::size_t> labels(data.labels.begin(), data.labels.end());
  EXPECT_EQ(labels.size(), 8U);
}

TEST(DatasetBuilder, FeaturesForWaveform) {
  DatasetBuilder builder(test_config());
  builder.build();
  const std::vector<double> wave(1800, 0.01);
  const math::Matrix row = builder.features_for_waveform(wave);
  EXPECT_EQ(row.rows(), 1U);
  EXPECT_EQ(row.cols(), 24U);
  EXPECT_GE(row.min(), 0.0F);
  EXPECT_LE(row.max(), 1.0F);
}

TEST(DatasetBuilder, CwtTableCoversTheConfiguredWindow) {
  DatasetBuilder builder(test_config());
  ASSERT_NE(builder.cwt_table(), nullptr);
  EXPECT_EQ(builder.cwt_table()->window_length(), 1800U);  // 0.15 s x 12 kHz
  EXPECT_EQ(builder.cwt_table()->frequencies(), builder.binner().centers());

  // Windows of the configured length go through the kept table, others
  // through a one-off table; both are the batch CWT to the last bit.
  const dsp::MorletCwt cwt(dsp::CwtConfig{12000.0, 6.0});
  for (const std::size_t length : {1800U, 1500U}) {
    std::vector<double> wave(length);
    for (std::size_t i = 0; i < length; ++i) {
      wave[i] = std::sin(0.05 * static_cast<double>(i * i % 997));
    }
    const std::vector<double> expected =
        cwt.band_energies(wave, builder.binner().centers());
    const math::Matrix row = builder.raw_features(wave);
    ASSERT_EQ(row.cols(), expected.size());
    for (std::size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(row(0, c), static_cast<float>(expected[c])) << length;
    }
  }

  DatasetConfig stft = test_config();
  stft.feature_method = FeatureMethod::kStft;
  EXPECT_EQ(DatasetBuilder(stft).cwt_table(), nullptr);
}

TEST(LabeledDataset, ValidateCatchesMismatch) {
  LabeledDataset data;
  data.features = math::Matrix(2, 4);
  data.conditions = math::Matrix(2, 3, 0.0F);
  data.conditions(0, 0) = 1.0F;
  data.conditions(1, 1) = 1.0F;
  data.labels = {0, 1};
  EXPECT_NO_THROW(data.validate());
  data.labels = {0};
  EXPECT_THROW(data.validate(), DimensionError);
  data.labels = {0, 2};  // label 2 but condition row hot at 1
  EXPECT_THROW(data.validate(), DimensionError);
}

TEST(LabeledDataset, FeaturesForLabel) {
  DatasetBuilder builder(test_config());
  const LabeledDataset data = builder.build();
  const math::Matrix x_rows = data.features_for_label(0);
  EXPECT_EQ(x_rows.rows(), 8U);
}

TEST(LabeledDataset, ShuffleKeepsAlignment) {
  DatasetBuilder builder(test_config());
  LabeledDataset data = builder.build();
  math::Rng rng(3);
  data.shuffle(rng);
  EXPECT_NO_THROW(data.validate());
  EXPECT_EQ(data.size(), 24U);
}

TEST(LabeledDataset, TakeAndConcat) {
  DatasetBuilder builder(test_config());
  const LabeledDataset data = builder.build();
  const LabeledDataset head = data.take(5);
  EXPECT_EQ(head.size(), 5U);
  EXPECT_THROW(data.take(25), InvalidArgumentError);
  const LabeledDataset both = LabeledDataset::concat(head, head);
  EXPECT_EQ(both.size(), 10U);
  EXPECT_NO_THROW(both.validate());
}

TEST(DatasetBuilder, RestoreScalerMatchesOriginal) {
  DatasetBuilder original(test_config());
  original.build();
  std::stringstream ss;
  original.scaler().save(ss);

  DatasetBuilder restored(test_config());
  EXPECT_THROW(restored.scaler(), InvalidArgumentError);
  restored.restore_scaler(dsp::MinMaxScaler::load(ss));
  const std::vector<double> wave(1800, 0.01);
  EXPECT_EQ(original.features_for_waveform(wave),
            restored.features_for_waveform(wave));
}

TEST(DatasetBuilder, RestoreScalerValidation) {
  DatasetBuilder builder(test_config());
  EXPECT_THROW(builder.restore_scaler(dsp::MinMaxScaler{}),
               InvalidArgumentError);
  dsp::MinMaxScaler wrong_width;
  wrong_width.fit(math::Matrix(2, 5, 1.0F));
  EXPECT_THROW(builder.restore_scaler(wrong_width), DimensionError);
}

TEST(DatasetBuilder, StftFeatureMethodBuilds) {
  DatasetConfig config = test_config();
  config.feature_method = FeatureMethod::kStft;
  config.stft_frame_length = 512;
  DatasetBuilder builder(config);
  const LabeledDataset data = builder.build();
  EXPECT_EQ(data.features.cols(), 24U);
  EXPECT_GE(data.features.min(), 0.0F);
  EXPECT_LE(data.features.max(), 1.0F);
  // STFT features still separate the classes.
  const math::Matrix mx = data.features_for_label(0).col_sums();
  const math::Matrix mz = data.features_for_label(2).col_sums();
  float max_gap = 0.0F;
  for (std::size_t c = 0; c < mx.cols(); ++c) {
    max_gap = std::max(max_gap, std::abs(mx(0, c) - mz(0, c)) / 8.0F);
  }
  EXPECT_GT(max_gap, 0.2F);
}

TEST(DatasetBuilder, MotorChannelDiffersFromMixed) {
  DatasetConfig mixed_config = test_config();
  DatasetConfig channel_config = test_config();
  channel_config.channel = EmissionChannel::kMotorZ;
  DatasetBuilder mixed(mixed_config);
  DatasetBuilder channel(channel_config);
  EXPECT_NE(mixed.build().features, channel.build().features);
}

TEST(DatasetBuilder, ClassesAreSpectrallySeparable) {
  // The simulator must produce class-conditional structure: the mean
  // spectra of X, Y and Z observations differ clearly somewhere.
  DatasetConfig config = test_config();
  config.samples_per_condition = 12;
  DatasetBuilder builder(config);
  const LabeledDataset data = builder.build();
  const math::Matrix mx = data.features_for_label(0).col_sums();
  const math::Matrix mz = data.features_for_label(2).col_sums();
  float max_gap = 0.0F;
  for (std::size_t c = 0; c < mx.cols(); ++c) {
    max_gap = std::max(max_gap, std::abs(mx(0, c) - mz(0, c)) / 12.0F);
  }
  EXPECT_GT(max_gap, 0.3F);
}

}  // namespace
}  // namespace gansec::am
