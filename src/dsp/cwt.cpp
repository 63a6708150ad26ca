#include "gansec/dsp/cwt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "gansec/error.hpp"
#include "gansec/obs/trace.hpp"

namespace gansec::dsp {

MorletCwt::MorletCwt(CwtConfig config) : config_(config) {
  if (config_.sample_rate <= 0.0) {
    throw InvalidArgumentError("MorletCwt: sample_rate must be positive");
  }
  if (config_.omega0 <= 0.0) {
    throw InvalidArgumentError("MorletCwt: omega0 must be positive");
  }
}

double MorletCwt::scale_for_frequency(double frequency_hz) const {
  if (frequency_hz <= 0.0) {
    throw InvalidArgumentError(
        "MorletCwt::scale_for_frequency: frequency must be positive");
  }
  if (frequency_hz >= config_.sample_rate / 2.0) {
    throw InvalidArgumentError(
        "MorletCwt::scale_for_frequency: frequency above Nyquist");
  }
  // The Morlet wavelet's frequency response peaks at s*w == omega0, so the
  // scale matching a target frequency f is omega0 / (2*pi*f).
  return config_.omega0 / (2.0 * std::numbers::pi * frequency_hz);
}

double MorletCwt::wavelet_fourier(double scale,
                                  double angular_frequency) const {
  // Analytic Morlet: psihat(w) = pi^(-1/4) * exp(-(w - omega0)^2 / 2) for
  // w > 0, zero otherwise. The scaled wavelet contributes sqrt(s).
  if (angular_frequency <= 0.0) return 0.0;
  const double arg = scale * angular_frequency - config_.omega0;
  return std::pow(std::numbers::pi, -0.25) * std::sqrt(scale) *
         std::exp(-0.5 * arg * arg);
}

std::vector<std::vector<double>> MorletCwt::scalogram(
    const std::vector<double>& signal,
    const std::vector<double>& frequencies_hz) const {
  const CwtTable table(*this, signal.size(), frequencies_hz);
  CwtTable::Scratch scratch(table);
  const std::size_t len = signal.size();
  std::vector<double> energies(frequencies_hz.size());
  std::vector<double> rows(frequencies_hz.size() * len);
  table.transform(signal.data(), scratch, energies.data(), rows.data());
  std::vector<std::vector<double>> result;
  result.reserve(frequencies_hz.size());
  for (std::size_t f = 0; f < frequencies_hz.size(); ++f) {
    const auto first = rows.begin() + static_cast<std::ptrdiff_t>(f * len);
    result.emplace_back(first, first + static_cast<std::ptrdiff_t>(len));
  }
  return result;
}

std::vector<double> MorletCwt::band_energies(
    const std::vector<double>& signal,
    const std::vector<double>& frequencies_hz) const {
  return CwtTable(*this, signal.size(), frequencies_hz).band_energies(signal);
}

CwtTable::Scratch::Scratch(const CwtTable& table)
    : spectrum_re_(table.padded()),
      spectrum_im_(table.padded()),
      band_re_(table.padded()),
      band_im_(table.padded()) {}

CwtTable::CwtTable(const MorletCwt& cwt, std::size_t window_length,
                   std::vector<double> frequencies_hz)
    : window_length_(window_length),
      fft_(next_power_of_two(window_length)),
      frequencies_(std::move(frequencies_hz)) {
  if (window_length_ == 0) {
    throw InvalidArgumentError("CwtTable: window_length must be positive");
  }
  if (frequencies_.empty()) {
    throw InvalidArgumentError("CwtTable: no target frequencies");
  }
  const std::size_t n = padded();
  const double sample_rate = cwt.config().sample_rate;
  bands_.resize(frequencies_.size());
  for (std::size_t f = 0; f < frequencies_.size(); ++f) {
    const double s = cwt.scale_for_frequency(frequencies_[f]);
    // Bin k sits at angular frequency 2*pi*k*fs/n. Bin 0 and the negative
    // frequencies (k > n/2) are zeroed by the analytic wavelet, and the
    // Gaussian underflows to exactly 0 far from its peak, so the nonzero
    // responses form one run [lo, hi) inside [1, n/2].
    Band& band = bands_[f];
    band.offset = response_.size();
    bool found = false;
    for (std::size_t k = 1; k <= n / 2; ++k) {
      const double w = 2.0 * std::numbers::pi * static_cast<double>(k) *
                       sample_rate / static_cast<double>(n);
      const double r = cwt.wavelet_fourier(s, w);
      if (r == 0.0) {
        if (found) break;
        continue;
      }
      if (!found) {
        band.lo = k;
        found = true;
      }
      response_.push_back(r);
      band.hi = k + 1;
    }
    if (!found) band.lo = band.hi = 1;
    // Inputs at or above hi are zero, so while n / (2 * first_half) >= hi
    // every block of the next stage holds a single nonzero input.
    while (2 * band.first_half <= n && n / (2 * band.first_half) >= band.hi) {
      band.first_half *= 2;
    }
  }
  response_.shrink_to_fit();
}

// gansec-lint: hot-path
void CwtTable::transform(const double* window, Scratch& scratch,
                         double* energies, double* rows) const {
  const std::size_t n = padded();
  const std::size_t len = window_length_;
  double* xr = scratch.spectrum_re_.data();
  double* xi = scratch.spectrum_im_.data();
  for (std::size_t k = 0; k < n; ++k) {
    xr[fft_.bit_reverse(k)] = k < len ? window[k] : 0.0;
    xi[fft_.bit_reverse(k)] = 0.0;
  }
  fft_.butterflies(xr, xi, 1, /*inverse=*/false);

  bool finite = true;
  for (std::size_t k = 0; k < n; ++k) {
    finite = finite && std::isfinite(xr[k]) && std::isfinite(xi[k]);
  }
  if (!finite) {
    // The full transform multiplies every bin by its response, zeros
    // included, so one non-finite bin poisons every band (0 * inf = NaN).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::fill(energies, energies + bands_.size(), nan);
    if (rows != nullptr) std::fill(rows, rows + bands_.size() * len, nan);
    return;
  }

  const double inv_n = 1.0 / static_cast<double>(n);
  double* yr = scratch.band_re_.data();
  double* yi = scratch.band_im_.data();
  for (std::size_t f = 0; f < bands_.size(); ++f) {
    const Band& band = bands_[f];
    const double* response = response_.data() + band.offset;
    const std::size_t block = band.first_half;
    // Input k lands at bit_reverse(k); for k < n / block that is the start
    // of a block, which the skipped stages would fill with its value.
    const auto put = [&](std::size_t k, double re, double im) {
      const std::size_t p = fft_.bit_reverse(k);
      std::fill(yr + p, yr + p + block, re);
      std::fill(yi + p, yi + p + block, im);
    };
    for (std::size_t k = 0; k < band.lo; ++k) put(k, 0.0, 0.0);
    for (std::size_t k = band.lo; k < band.hi; ++k) {
      const double r = response[k - band.lo];
      put(k, xr[k] * r, xi[k] * r);
    }
    for (std::size_t k = band.hi; k < n / block; ++k) put(k, 0.0, 0.0);
    fft_.butterflies(yr, yi, block, /*inverse=*/true);

    double acc = 0.0;
    double* row = rows != nullptr ? rows + f * len : nullptr;
    for (std::size_t t = 0; t < len; ++t) {
      const double m = std::hypot(yr[t] * inv_n, yi[t] * inv_n);
      if (row != nullptr) row[t] = m;
      acc += m;
    }
    energies[f] = acc / static_cast<double>(len);
  }
}
// gansec-lint: end-hot-path

std::vector<double> CwtTable::band_energies(
    const std::vector<double>& signal) const {
  GANSEC_SPAN("dsp.cwt.band_energies");
  if (signal.size() != window_length_) {
    throw InvalidArgumentError(
        "CwtTable::band_energies: signal length does not match the table");
  }
  Scratch scratch(*this);
  std::vector<double> energies(bands_.size());
  transform(signal.data(), scratch, energies.data(), nullptr);
  return energies;
}

namespace {

std::shared_ptr<const CwtTable> non_null(
    std::shared_ptr<const CwtTable> table) {
  if (!table) throw InvalidArgumentError("CwtWindowPlan: null table");
  return table;
}

}  // namespace

CwtWindowPlan::CwtWindowPlan(const MorletCwt& cwt, std::size_t window_length,
                             std::vector<double> frequencies_hz)
    : CwtWindowPlan(std::make_shared<const CwtTable>(
          cwt, window_length, std::move(frequencies_hz))) {}

CwtWindowPlan::CwtWindowPlan(std::shared_ptr<const CwtTable> table)
    : table_(non_null(std::move(table))), scratch_(*table_) {}

// gansec-lint: hot-path
void CwtWindowPlan::band_energies_into(const double* window,
                                       std::size_t length, double* out) {
  if (length != table_->window_length()) {
    throw InvalidArgumentError(
        "CwtWindowPlan::band_energies_into: window length does not match "
        "the plan");
  }
  table_->transform(window, scratch_, out, nullptr);
}
// gansec-lint: end-hot-path

std::vector<double> CwtWindowPlan::band_energies(
    const std::vector<double>& window) {
  std::vector<double> out(frequencies().size());
  band_energies_into(window.data(), window.size(), out.data());
  return out;
}

}  // namespace gansec::dsp
