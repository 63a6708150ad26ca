// Iterative radix-2 Cooley-Tukey FFT.
//
// The continuous wavelet transform in this library is computed in the
// frequency domain, so the FFT is the workhorse of the energy-flow feature
// pipeline. Transforms operate on power-of-two lengths; helpers are provided
// for padding.
//
// There is one transform: FftTable::butterflies over split real/imaginary
// arrays. fft_in_place/ifft_in_place and the CWT (dsp/cwt.hpp) all run it.
//
// Numerical policy. Features that train and score the detector are pinned
// bit for bit (tests/dsp/golden_test.cpp), so the transform fixes its
// floating-point operations and their order:
//   - twiddles of a stage of length L come from cos/sin(-+2*pi/L) and the
//     recurrence w *= wlen, restarted at w = 1 for every stage;
//   - a butterfly computes p = b * w as pr = br*wr - bi*wi,
//     pi = br*wi + bi*wr, then a' = a + p and b' = a - p, component-wise;
//   - the inverse multiplies by 1.0 / n after the last stage.
// These are exactly the operations of std::complex<double> arithmetic on
// finite values. No fused multiply-add, no radix-4 and no reassociation:
// each would change rounding, and a speed-up that moves the features is a
// model change that needs its own tolerance policy.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace gansec::dsp {

using Complex = std::complex<double>;

bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n (n == 0 maps to 1).
std::size_t next_power_of_two(std::size_t n);

/// Bit-reverse permutation and per-stage twiddles of both directions for
/// one power-of-two length. Immutable after construction, so one table can
/// serve any number of threads at once.
class FftTable {
 public:
  /// `n` must be a power of two (throws InvalidArgumentError otherwise).
  explicit FftTable(std::size_t n);

  std::size_t size() const { return n_; }

  /// Index that input `k` occupies after the bit-reverse permutation.
  std::size_t bit_reverse(std::size_t k) const { return bitrev_[k]; }

  /// Runs the butterfly stages of half-length first_half, 2*first_half, ...,
  /// size()/2 in place on bit-reverse-ordered split arrays of size()
  /// points. first_half == 1 is the full transform; a larger value skips
  /// leading stages whose blocks the caller has already filled (see
  /// CwtTable). The inverse direction does not apply the 1/n scale.
  void butterflies(double* re, double* im, std::size_t first_half,
                   bool inverse) const;

 private:
  std::size_t n_;
  std::vector<std::size_t> bitrev_;
  /// Twiddles of the stage with half-length h at [h - 1, 2h - 1).
  std::vector<double> fwd_re_;
  std::vector<double> fwd_im_;
  std::vector<double> inv_re_;
  std::vector<double> inv_im_;
};

/// In-place forward FFT. Length must be a power of two (throws
/// InvalidArgumentError otherwise).
void fft_in_place(std::vector<Complex>& x);

/// In-place inverse FFT (includes the 1/N normalization).
void ifft_in_place(std::vector<Complex>& x);

/// Forward FFT of a real signal, zero-padded to the next power of two.
std::vector<Complex> fft_real(const std::vector<double>& x);

/// Magnitude spectrum |X[k]| for k in [0, N/2] of a real signal
/// (zero-padded to a power of two before transforming).
std::vector<double> magnitude_spectrum(const std::vector<double>& x);

/// Frequency in Hz of FFT bin k for a length-n transform at sample_rate.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

}  // namespace gansec::dsp
