#include "gansec/dsp/fft.hpp"

#include <cmath>
#include <numbers>

#include "gansec/error.hpp"

namespace gansec::dsp {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1U;
  return p;
}

namespace {

/// Twiddles of every stage, w_k = wlen^k by the recurrence w *= wlen
/// (complex<double> arithmetic), stage with half-length h at [h - 1, 2h - 1).
void stage_twiddles(std::size_t n, bool inverse, std::vector<double>& re,
                    std::vector<double>& im) {
  re.resize(n > 1 ? n - 1 : 0);
  im.resize(re.size());
  for (std::size_t half = 1; half < n; half <<= 1U) {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                         static_cast<double>(2 * half);
    const Complex wlen(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < half; ++k) {
      re[half - 1 + k] = w.real();
      im[half - 1 + k] = w.imag();
      w *= wlen;
    }
  }
}

void transform(std::vector<Complex>& x, bool inverse) {
  const FftTable table(x.size());
  const std::size_t n = x.size();
  std::vector<double> re(n);
  std::vector<double> im(n);
  for (std::size_t k = 0; k < n; ++k) {
    re[table.bit_reverse(k)] = x[k].real();
    im[table.bit_reverse(k)] = x[k].imag();
  }
  table.butterflies(re.data(), im.data(), 1, inverse);
  const double scale = inverse ? 1.0 / static_cast<double>(n) : 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    x[k] = inverse ? Complex(re[k] * scale, im[k] * scale)
                   : Complex(re[k], im[k]);
  }
}

}  // namespace

FftTable::FftTable(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) {
    throw gansec::InvalidArgumentError(
        "fft: length must be a power of two, got " + std::to_string(n));
  }
  bitrev_.resize(n);
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1U;
    while (j & bit) {
      j ^= bit;
      bit >>= 1U;
    }
    j |= bit;
    bitrev_[i] = j;
  }
  stage_twiddles(n, /*inverse=*/false, fwd_re_, fwd_im_);
  stage_twiddles(n, /*inverse=*/true, inv_re_, inv_im_);
}

// gansec-lint: hot-path
namespace {

/// One butterfly per k < half between a = (ar, ai) and b = (br, bi): the
/// operations of complex<double> `p = b * w; a' = a + p; b' = a - p`.
/// The four halves never overlap; saying so lets the compiler use SIMD
/// lanes, which computes each lane with the same scalar operations.
void butterfly_block(double* __restrict ar, double* __restrict ai,
                     double* __restrict br, double* __restrict bi,
                     const double* __restrict wr,
                     const double* __restrict wi, std::size_t half) {
  for (std::size_t k = 0; k < half; ++k) {
    const double pr = br[k] * wr[k] - bi[k] * wi[k];
    const double pi = br[k] * wi[k] + bi[k] * wr[k];
    const double ur = ar[k];
    const double ui = ai[k];
    ar[k] = ur + pr;
    ai[k] = ui + pi;
    br[k] = ur - pr;
    bi[k] = ui - pi;
  }
}

}  // namespace

void FftTable::butterflies(double* re, double* im, std::size_t first_half,
                           bool inverse) const {
  const double* tw_re = inverse ? inv_re_.data() : fwd_re_.data();
  const double* tw_im = inverse ? inv_im_.data() : fwd_im_.data();
  for (std::size_t half = first_half; half < n_; half <<= 1U) {
    const double* wr = tw_re + (half - 1);
    const double* wi = tw_im + (half - 1);
    for (std::size_t i = 0; i < n_; i += 2 * half) {
      butterfly_block(re + i, im + i, re + i + half, im + i + half, wr, wi,
                      half);
    }
  }
}
// gansec-lint: end-hot-path

void fft_in_place(std::vector<Complex>& x) { transform(x, /*inverse=*/false); }

void ifft_in_place(std::vector<Complex>& x) { transform(x, /*inverse=*/true); }

std::vector<Complex> fft_real(const std::vector<double>& x) {
  if (x.empty()) {
    throw gansec::InvalidArgumentError("fft_real: empty signal");
  }
  std::vector<Complex> padded(next_power_of_two(x.size()), Complex(0.0, 0.0));
  for (std::size_t i = 0; i < x.size(); ++i) padded[i] = Complex(x[i], 0.0);
  fft_in_place(padded);
  return padded;
}

std::vector<double> magnitude_spectrum(const std::vector<double>& x) {
  const std::vector<Complex> spectrum = fft_real(x);
  std::vector<double> mags(spectrum.size() / 2 + 1);
  for (std::size_t k = 0; k < mags.size(); ++k) {
    mags[k] = std::abs(spectrum[k]);
  }
  return mags;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  if (n == 0) {
    throw gansec::InvalidArgumentError("bin_frequency: zero-length transform");
  }
  return static_cast<double>(k) * sample_rate / static_cast<double>(n);
}

}  // namespace gansec::dsp
