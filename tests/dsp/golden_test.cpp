// Golden bit-identity pins for the FFT and CWT.
//
// Every expected value below was frozen from the reference implementation
// (complex<double> radix-2 FFT, per-call Morlet responses) before the
// table-driven transform replaced it. The features that train and score
// the detector must not move by a single bit when the transform is
// restructured, so these tests compare FNV-1a digests of the raw IEEE-754
// bit patterns with EXPECT_EQ, not NEAR.
//
// The digests assume this toolchain's glibc libm: the twiddles come from
// std::cos/std::sin, the Morlet responses from std::pow/std::sqrt/std::exp
// and the magnitudes from std::hypot (what std::abs of a complex<double>
// computes). A libm with different rounding in any of those legitimately
// changes the bits; re-freeze from the reference code on that toolchain.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gansec/dsp/binner.hpp"
#include "gansec/dsp/cwt.hpp"
#include "gansec/dsp/fft.hpp"
#include "gansec/dsp/stft.hpp"

namespace gansec::dsp {
namespace {

/// FNV-1a over the bit patterns of a sequence of doubles.
class BitDigest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xFFU;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(const std::vector<double>& xs) {
    for (const double v : xs) add(v);
  }
  void add(const std::vector<Complex>& xs) {
    for (const Complex& c : xs) {
      add(c.real());
      add(c.imag());
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

template <typename T>
std::uint64_t digest(const T& xs) {
  BitDigest d;
  d.add(xs);
  return d.value();
}

/// Seeded samples in [-1, 1) from splitmix64, so the inputs depend on no
/// library distribution.
std::vector<double> seeded_samples(std::size_t n, std::uint64_t seed) {
  std::vector<double> x(n);
  std::uint64_t state = seed;
  for (double& v : x) {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
    z ^= z >> 31U;
    v = static_cast<double>(z >> 11U) * 0x1.0p-52 - 1.0;
  }
  return x;
}

/// The paper's acoustic window: 0.25 s at 16 kHz.
constexpr double kSampleRate = 16000.0;
constexpr std::size_t kWindow = 4000;

TEST(GoldenBits, FftAndInverseOnSeeded4096Points) {
  const std::vector<double> re = seeded_samples(4096, 11);
  const std::vector<double> im = seeded_samples(4096, 12);
  std::vector<Complex> x(4096);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = Complex(re[i], im[i]);
  fft_in_place(x);
  EXPECT_EQ(digest(x), 0xE7FD8AC2F8EA9FFAULL);
  ifft_in_place(x);
  EXPECT_EQ(digest(x), 0x11973C3B840C5B07ULL);
}

TEST(GoldenBits, CwtBandEnergiesPaperWindow) {
  const std::vector<double> window = seeded_samples(kWindow, 2019);
  const std::vector<double> freqs = FrequencyBinner::paper_default().centers();
  const MorletCwt cwt(CwtConfig{kSampleRate, 6.0});
  const std::vector<double> batch = cwt.band_energies(window, freqs);
  ASSERT_EQ(batch.size(), 100U);
  EXPECT_EQ(digest(batch), 0x0EBCD2631C6D0ABFULL);
  // One band in hexfloat so a mismatch shows how far it moved.
  EXPECT_EQ(batch[50], 0x1.84696fa2c122ap-10);

  CwtWindowPlan plan(cwt, kWindow, freqs);
  std::vector<double> streamed(freqs.size());
  plan.band_energies_into(window.data(), window.size(), streamed.data());
  EXPECT_EQ(digest(streamed), digest(batch));
}

TEST(GoldenBits, SmallScalogram) {
  const std::vector<double> x = seeded_samples(300, 7);
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  const auto grid = cwt.scalogram(x, {120.0, 900.0, 3100.0});
  ASSERT_EQ(grid.size(), 3U);
  BitDigest d;
  for (const auto& row : grid) {
    ASSERT_EQ(row.size(), x.size());
    d.add(row);
  }
  EXPECT_EQ(d.value(), 0x944F0D28158D2937ULL);
}

TEST(GoldenBits, StftBandEnergies) {
  const std::vector<double> x = seeded_samples(kWindow, 5);
  const Stft stft(StftConfig{kSampleRate, 1024, 256, WindowKind::kHann});
  const auto energies =
      stft.band_energies(x, FrequencyBinner::paper_default().centers());
  EXPECT_EQ(digest(energies), 0xBA6368E044BA94ECULL);
}

/// One character per band: '.' finite, 'x' NaN or infinite.
std::string finite_mask(const std::vector<double>& energies) {
  std::string mask;
  for (const double e : energies) mask += std::isfinite(e) ? '.' : 'x';
  return mask;
}

/// Band masks of a poisoned paper window on the batch and the streaming
/// path. The reference transform multiplied every bin, zero responses
/// included, so one NaN or infinite sample made every band non-finite;
/// skipping zero bins must not make any band finite again.
void expect_masks(const std::vector<double>& window,
                  const std::string& expected) {
  const std::vector<double> freqs = FrequencyBinner::paper_default().centers();
  const MorletCwt cwt(CwtConfig{kSampleRate, 6.0});
  EXPECT_EQ(finite_mask(cwt.band_energies(window, freqs)), expected);
  CwtWindowPlan plan(cwt, kWindow, freqs);
  std::vector<double> streamed(freqs.size());
  plan.band_energies_into(window.data(), window.size(), streamed.data());
  EXPECT_EQ(finite_mask(streamed), expected);
}

TEST(GoldenBits, NanSampleMakesEveryBandNonFinite) {
  for (const std::size_t pos : {0U, 1U, 1234U, 3999U}) {
    std::vector<double> window = seeded_samples(kWindow, 77);
    window[pos] = std::numeric_limits<double>::quiet_NaN();
    SCOPED_TRACE(pos);
    expect_masks(window, std::string(100, 'x'));
  }
}

TEST(GoldenBits, InfiniteSampleMakesEveryBandNonFinite) {
  for (const std::size_t pos : {0U, 1U, 1234U, 3999U}) {
    for (const double inf : {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      std::vector<double> window = seeded_samples(kWindow, 77);
      window[pos] = inf;
      SCOPED_TRACE(pos);
      expect_masks(window, std::string(100, 'x'));
    }
  }
}

TEST(GoldenBits, LoudFlatWindowOverflowingItsSpectrumPoisonsEveryBand) {
  // Every sample finite, but the spectrum is not: the DC bin overflows to
  // infinity (and the Nyquist bin to NaN) while the bins in between stay
  // finite. Most bands' supports miss both bins, yet the reference made
  // every band non-finite through 0 * inf, so the transform must too.
  for (const double level : {5e304, 1e305, 1e306}) {
    SCOPED_TRACE(level);
    expect_masks(std::vector<double>(kWindow, level), std::string(100, 'x'));
  }
}

TEST(GoldenBits, OverflowingFiniteSampleKeepsReferenceMask) {
  // A finite 1e308 sample keeps the spectrum finite, but the wide
  // high-frequency bands overflow inside their inverse transforms: the
  // reference left bands [0, 51) finite and the rest non-finite.
  std::vector<double> window = seeded_samples(kWindow, 77);
  window[0] = 1e308;
  expect_masks(window, std::string(51, '.') + std::string(49, 'x'));
}

}  // namespace
}  // namespace gansec::dsp
