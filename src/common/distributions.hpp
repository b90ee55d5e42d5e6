// Samplers for the heavy-tailed distributions that characterise web
// workloads: Zipf (object popularity), lognormal (object/body sizes) and
// bounded Pareto (per-client activity).  These are the statistical building
// blocks of the synthetic WorldCup'98 trace generator (src/trace).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/prng.hpp"

namespace agtram::common {

/// Inverted-CDF index search with a guide table (Chen & Asau, 1974).
///
/// find(u) returns exactly what std::lower_bound over the table would: the
/// first i with cdf[i] >= u.  guide_[g] is that index for u = g/n, so a
/// lookup starts at guide_[floor(u*n)], steps back while the previous entry
/// still covers u (the floating-point floor can overshoot), then steps
/// forward to the first entry >= u: O(1) expected steps for uniform u, and
/// the same answer as an O(log n) binary search, so samplers built on it
/// keep their exact draw sequences.
class GuidedCdf {
 public:
  /// `cdf` must be non-decreasing and end at exactly 1.0.
  explicit GuidedCdf(std::vector<double> cdf)
      : cdf_(std::move(cdf)), guide_(cdf_.size()) {
    assert(!cdf_.empty() && cdf_.back() == 1.0);
    const double n = static_cast<double>(cdf_.size());
    std::size_t i = 0;
    for (std::size_t g = 0; g < guide_.size(); ++g) {
      const double u = static_cast<double>(g) / n;
      while (cdf_[i] < u) ++i;
      guide_[g] = i;
    }
  }

  std::size_t size() const noexcept { return cdf_.size(); }
  double operator[](std::size_t i) const { return cdf_[i]; }

  /// First index whose cumulative mass is >= u, for u in [0, 1].
  std::size_t find(double u) const {
    const std::size_t last = cdf_.size() - 1;
    std::size_t i = guide_[std::min(
        static_cast<std::size_t>(u * static_cast<double>(cdf_.size())), last)];
    while (i > 0 && cdf_[i - 1] >= u) --i;
    while (i < last && cdf_[i] < u) ++i;
    return i;
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> guide_;
};

/// Zipf(s) sampler over ranks {0, ..., n-1}: P(rank = i) ∝ 1/(i+1)^s.
///
/// Uses an inverted-CDF table with a guide (O(n) memory, O(1) expected per
/// sample), which is exact and fast for the n ≤ a few hundred thousand used
/// here.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent)
      : cdf_(zipf_cdf(n, exponent)), exponent_(exponent) {}

  std::size_t size() const noexcept { return cdf_.size(); }
  double exponent() const noexcept { return exponent_; }

  /// Probability mass of a given rank.
  double pmf(std::size_t rank) const {
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

  std::size_t operator()(Rng& rng) const { return cdf_.find(rng.uniform()); }

 private:
  static std::vector<double> zipf_cdf(std::size_t n, double exponent) {
    assert(n > 0);
    std::vector<double> cdf(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf[i] = acc;
    }
    const double norm = 1.0 / acc;
    for (double& v : cdf) v *= norm;
    cdf.back() = 1.0;  // guard against rounding
    return cdf;
  }

  GuidedCdf cdf_;
  double exponent_;
};

/// Lognormal sampler: exp(N(mu, sigma^2)); Box–Muller on our Rng so results
/// are identical across standard libraries.
class LognormalSampler {
 public:
  LognormalSampler(double mu, double sigma) : mu_(mu), sigma_(sigma) {}

  double mu() const noexcept { return mu_; }
  double sigma() const noexcept { return sigma_; }

  double operator()(Rng& rng) const {
    // Box–Muller; discard the second variate for simplicity/determinism.
    double u1 = rng.uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = rng.uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return std::exp(mu_ + sigma_ * z);
  }

 private:
  double mu_;
  double sigma_;
};

/// Bounded Pareto sampler on [lo, hi] with shape alpha (heavy-tailed client
/// request counts; Arlitt & Jin report strongly skewed per-client activity).
class BoundedParetoSampler {
 public:
  BoundedParetoSampler(double alpha, double lo, double hi)
      : alpha_(alpha), lo_(lo), hi_(hi) {
    assert(alpha > 0.0 && lo > 0.0 && hi > lo);
  }

  double operator()(Rng& rng) const {
    const double u = rng.uniform();
    const double la = std::pow(lo_, alpha_);
    const double ha = std::pow(hi_, alpha_);
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
  }

 private:
  double alpha_;
  double lo_;
  double hi_;
};

}  // namespace agtram::common
