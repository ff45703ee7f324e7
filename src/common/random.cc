#include "common/random.h"

#include <cmath>

namespace mctdb {

ZipfSampler::ZipfSampler(uint64_t n, double theta) : n_(n), theta_(theta) {
  assert(n > 0);
  if (theta <= 0.0 || n == 1) return;
  for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(double(i), theta);
  alpha_ = 1.0 / (1.0 - theta);
  zeta2_ = 1.0 + std::pow(0.5, theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
}

uint64_t ZipfSampler::Sample(Rng* rng) const {
  if (theta_ <= 0.0 || n_ == 1) return rng->Uniform(n_);
  const double u = rng->NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < zeta2_) return 1;
  uint64_t rank = static_cast<uint64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (rank >= n_) rank = n_ - 1;
  return rank;
}

}  // namespace mctdb
