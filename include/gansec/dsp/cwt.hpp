// Continuous wavelet transform with the analytic Morlet wavelet.
//
// The paper converts time-domain acoustic energy flows to frequency-domain
// features using a continuous wavelet transform, "which preserves the
// high-frequency resolution in time-domain" (Section IV-B). This
// implementation evaluates the CWT at arbitrary target frequencies via
// frequency-domain multiplication: W(s, t) = ifft(X(w) * conj(psihat(s w))).
//
// There is one CWT loop, CwtTable::transform. The batch path
// (MorletCwt::scalogram / band_energies, am::DatasetBuilder) and the
// streaming path (CwtWindowPlan, serve::DetectorService) both run it, so
// batch and stream features are bit-identical by construction.
//
// Numerical policy (see also dsp/fft.hpp): the features are pinned bit for
// bit by tests/dsp/golden_test.cpp. Per band the transform multiplies each
// spectrum bin by the same Morlet response value psihat(s*w_k), runs the
// FFT's fixed butterfly sequence, scales by 1.0 / n and takes
// std::hypot(re, im), which is what std::abs of a complex<double> computes.
// hypot stays, although it is most of the remaining cost: a faster |z|
// such as sqrt(re*re + im*im) rounds differently. Two shortcuts are exact
// and taken:
//   - the response is stored only over its nonzero support [lo, hi); bins
//     outside it contribute exact zeros;
//   - leading inverse-FFT stages that see only exact zeros are skipped.
//     While n >> (s+1) >= hi, every block of stage s holds one nonzero
//     input at its start, and the stage copies that value across the
//     block, so the block is filled with it directly.
// Zeros can differ in sign only, which no magnitude sees. A window whose
// spectrum holds a NaN or infinity (a non-finite sample, or a window so
// loud that its DC bin overflows) gets NaN in every band, as the full
// transform would give (0 * inf is NaN), so skipping zero bins never makes
// a poisoned window look finite.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "gansec/dsp/fft.hpp"

namespace gansec::dsp {

struct CwtConfig {
  double sample_rate = 0.0;  ///< Hz
  /// Morlet center frequency omega0; 6.0 is the conventional choice that
  /// keeps the wavelet approximately admissible.
  double omega0 = 6.0;
};

class MorletCwt {
 public:
  explicit MorletCwt(CwtConfig config);

  const CwtConfig& config() const { return config_; }

  /// Wavelet scale corresponding to a target frequency in Hz.
  double scale_for_frequency(double frequency_hz) const;

  /// Full scalogram: result[f][t] = |W(s_f, t)| for each target frequency
  /// (rows) over the original signal length (columns).
  std::vector<std::vector<double>> scalogram(
      const std::vector<double>& signal,
      const std::vector<double>& frequencies_hz) const;

  /// Mean |W(s_f, t)| over time for each target frequency — the per-frame
  /// energy feature vector used by GAN-Sec (one value per frequency bin).
  /// Builds a CwtTable for this one call; callers that transform many
  /// windows of one length keep a table instead.
  std::vector<double> band_energies(
      const std::vector<double>& signal,
      const std::vector<double>& frequencies_hz) const;

 private:
  /// Morlet frequency response psihat(s*w) evaluated at angular frequency w.
  double wavelet_fourier(double scale, double angular_frequency) const;

  CwtConfig config_;

  friend class CwtTable;
};

/// Everything the CWT of one (window length, frequency grid) needs that
/// does not depend on the samples: the FFT table of the padded length and
/// each band's Morlet response over its nonzero support.
///
/// Immutable after construction and therefore thread-safe: any number of
/// threads may transform through one table at once, each with its own
/// Scratch. Share it through std::shared_ptr<const CwtTable>.
class CwtTable {
 public:
  /// Working memory of one transform in flight: the window's spectrum and
  /// one band's inverse transform, as split real/imaginary arrays.
  class Scratch {
   public:
    explicit Scratch(const CwtTable& table);

   private:
    friend class CwtTable;
    std::vector<double> spectrum_re_;
    std::vector<double> spectrum_im_;
    std::vector<double> band_re_;
    std::vector<double> band_im_;
  };

  /// `window_length` is the exact sample count every window must have;
  /// `frequencies_hz` is the target grid (e.g. FrequencyBinner::centers()).
  CwtTable(const MorletCwt& cwt, std::size_t window_length,
           std::vector<double> frequencies_hz);

  std::size_t window_length() const { return window_length_; }
  std::size_t padded() const { return fft_.size(); }
  const std::vector<double>& frequencies() const { return frequencies_; }

  /// The transform of one window of window_length() samples. Writes the
  /// mean |W(s_f, t)| of every band f to energies[f] and, when `rows` is
  /// not null, |W(s_f, t)| to rows[f * window_length() + t]. No allocation.
  void transform(const double* window, Scratch& scratch, double* energies,
                 double* rows) const;

  /// Allocating batch form of transform's energies (trace span
  /// "dsp.cwt.band_energies"). `signal.size()` must equal window_length().
  std::vector<double> band_energies(const std::vector<double>& signal) const;

 private:
  /// One band's Morlet response over bins [lo, hi), stored at
  /// response_[offset, offset + hi - lo). Inverse stages with half-length
  /// below first_half see only exact zeros and are skipped.
  struct Band {
    std::size_t lo = 1;
    std::size_t hi = 1;
    std::size_t offset = 0;
    std::size_t first_half = 1;
  };

  std::size_t window_length_;
  FftTable fft_;
  std::vector<double> frequencies_;
  std::vector<Band> bands_;
  std::vector<double> response_;
};

/// Per-window CWT for the streaming scoring path: a shared CwtTable plus
/// this plan's own Scratch, so `band_energies_into` performs zero
/// allocations and produces bit-identical values to
/// `MorletCwt::band_energies` on the same samples (it runs the same loop).
///
/// A plan is single-stream (its scratch is mutable state); the table it
/// transforms through is immutable, so plans on different threads share
/// one table.
class CwtWindowPlan {
 public:
  /// Builds a table of its own. `window_length` is the exact sample count
  /// every window must have; `frequencies_hz` is the target grid (e.g.
  /// FrequencyBinner::centers()).
  CwtWindowPlan(const MorletCwt& cwt, std::size_t window_length,
                std::vector<double> frequencies_hz);

  /// Transforms through a shared table (throws on null).
  explicit CwtWindowPlan(std::shared_ptr<const CwtTable> table);

  std::size_t window_length() const { return table_->window_length(); }
  const std::vector<double>& frequencies() const {
    return table_->frequencies();
  }
  const std::shared_ptr<const CwtTable>& table() const { return table_; }

  /// Mean |W(s_f, t)| per target frequency written to `out` (one value per
  /// frequency). `length` must equal window_length(); `out` must hold
  /// frequencies().size() doubles. No allocation.
  void band_energies_into(const double* window, std::size_t length,
                          double* out);

  /// Convenience allocation form for tests and one-shot callers.
  std::vector<double> band_energies(const std::vector<double>& window);

 private:
  std::shared_ptr<const CwtTable> table_;
  CwtTable::Scratch scratch_;
};

}  // namespace gansec::dsp
