// The kernel loops (kernels.hpp).
//
// This TU compiles with -ffp-contract=off (src/drp/CMakeLists.txt): the
// loops below ARE the floating-point contract, op for op, and letting the
// compiler fuse a mul+add into an FMA would change the low bits relative to
// the historical AoS loops and the hexfloat goldens.  Each loop is a
// verbatim transcription of the cost_model.cpp / delta_evaluator.cpp AoS
// loop it replaced, with the field loads renamed onto the SoA streams;
// every add happens in the same order with the same operand grouping.
#include "drp/kernels.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace agtram::drp::kernels {

// ---------------------------------------------------------------------------
// Host queries

bool simd_compiled() noexcept { return false; }

bool simd_supported() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

bool simd_active() noexcept { return false; }

// ---------------------------------------------------------------------------
// Membership mask

void member_mask(std::span<const ServerId> servers,
                 std::span<const ServerId> reps, std::uint8_t* mask) noexcept {
  const std::size_t n = servers.size();
  std::size_t r = 0;
  const std::size_t nr = reps.size();
  for (std::size_t s = 0; s < n; ++s) {
    const ServerId id = servers[s];
    while (r < nr && reps[r] < id) ++r;
    mask[s] = (r < nr && reps[r] == id) ? 1 : 0;
  }
}

// ---------------------------------------------------------------------------
// Kernel entry points.  Each counts the items it processed under
// kernels.<name>.scalar_* (no-ops unless built with -DAGTRAM_OBS=ON).

CostAccum object_cost_accumulate(std::span<const ServerId> servers,
                                 std::span<const double> reads,
                                 std::span<const double> writes,
                                 std::span<const net::Cost> nn,
                                 std::span<const net::Cost> primary_row,
                                 const std::uint8_t* member, double o,
                                 double w_total) noexcept {
  const std::size_t n = servers.size();
  AGTRAM_OBS_COUNT("kernels.object_cost.scalar_slots",
                   static_cast<std::uint64_t>(n));
  CostAccum acc;
  for (std::size_t s = 0; s < n; ++s) {
    const double cp = static_cast<double>(primary_row[servers[s]]);
    acc.cost += writes[s] * o * cp;
    if (member[s]) {
      acc.cost += (w_total - writes[s]) * o * cp;
    } else {
      acc.cost += reads[s] * o * static_cast<double>(nn[s]);
      if (reads[s] != 0.0) {
        acc.saving += reads[s] * o * static_cast<double>(nn[s]);
      }
    }
  }
  return acc;
}

net::Cost nn_min(std::span<const net::Cost> row,
                 std::span<const ServerId> reps) noexcept {
  AGTRAM_OBS_COUNT("kernels.nn_min.scalar_reps",
                   static_cast<std::uint64_t>(reps.size()));
  net::Cost best = net::kUnreachable;
  for (const ServerId r : reps) {
    best = std::min(best, row[r]);
  }
  return best;
}

net::Cost nn_min_excluding(std::span<const net::Cost> row,
                           std::span<const ServerId> reps,
                           ServerId excluded) noexcept {
  net::Cost best = net::kUnreachable;
  for (const ServerId r : reps) {
    if (r == excluded) continue;
    best = std::min(best, row[r]);
  }
  return best;
}

void min_with_row(std::span<const net::Cost> nn,
                  std::span<const ServerId> servers,
                  std::span<const net::Cost> row, net::Cost* out) noexcept {
  const std::size_t n = nn.size();
  AGTRAM_OBS_COUNT("kernels.min_with_row.scalar_slots",
                   static_cast<std::uint64_t>(n));
  for (std::size_t s = 0; s < n; ++s) {
    out[s] = std::min(nn[s], row[servers[s]]);
  }
}

double read_savings_accumulate(std::span<const ServerId> servers,
                               std::span<const double> reads,
                               std::span<const net::Cost> nn,
                               std::span<const net::Cost> i_row,
                               const std::uint8_t* member,
                               double o) noexcept {
  const std::size_t n = servers.size();
  AGTRAM_OBS_COUNT("kernels.read_savings.scalar_slots",
                   static_cast<std::uint64_t>(n));
  double benefit = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    if (reads[s] == 0.0 || member[s]) continue;
    const net::Cost current = nn[s];
    const net::Cost with_i = std::min(current, i_row[servers[s]]);
    benefit += reads[s] * o *
               (static_cast<double>(current) - static_cast<double>(with_i));
  }
  return benefit;
}

void best_add_read_pass(double ro, net::Cost current,
                        std::span<const net::Cost> a_row, std::size_t first,
                        std::size_t last, double* benefit) noexcept {
  AGTRAM_OBS_COUNT("kernels.best_add.scalar_servers",
                   static_cast<std::uint64_t>(last > first ? last - first : 0));
  for (std::size_t i = first; i < last; ++i) {
    const net::Cost with_i = std::min(current, a_row[i]);
    benefit[i] += ro * (static_cast<double>(current) -
                        static_cast<double>(with_i));
  }
}

void broadcast_price_pass(double w_total, double o,
                          std::span<const double> w_dense,
                          std::span<const net::Cost> primary_row,
                          std::size_t first, std::size_t last,
                          double* benefit) noexcept {
  AGTRAM_OBS_COUNT("kernels.broadcast.scalar_servers",
                   static_cast<std::uint64_t>(last > first ? last - first : 0));
  for (std::size_t i = first; i < last; ++i) {
    benefit[i] -=
        (w_total - w_dense[i]) * o * static_cast<double>(primary_row[i]);
  }
}

// ---------------------------------------------------------------------------
// Scratch

Scratch& tls_scratch() noexcept {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace agtram::drp::kernels
