// Numerical health guards: opt-in NaN/Inf scans over a grid's interior,
// throwing NumericalError (core/fault.hpp) with the linear interior index
// of the first corrupt cell.
//
// The scan is written to auto-vectorize: each row is reduced with pure
// integer ops (load bits, mask the exponent, OR a "saw non-finite" flag) —
// no FP compares, so it is immune to -ffast-math-style NaN assumptions and
// compiles to a handful of SIMD ops per cache line. Only when a row's flag
// trips does a scalar rescan pinpoint the offending cell; the fault-free
// fast path never branches per element.
//
// Two scopes (Options::health_check):
//   kBoundary  the outermost interior ring — O(surface). Boundary/halo bugs
//              (the dominant corruption source in stencil codes: a bad
//              ghost fill, a wrong mirror) poison the ring on the very next
//              step, so this catches them at ~zero cost for large grids.
//   kFull      every interior cell — O(volume), catches mid-grid
//              corruption (bad coefficients, overflowing dynamics) too.

#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "tsv/common/grid.hpp"
#include "tsv/core/fault.hpp"
#include "tsv/core/options.hpp"

namespace tsv {

namespace detail {

template <typename T>
using FiniteBits =
    std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

// IEEE-754: a value is non-finite (NaN or Inf) iff its exponent field is
// all ones.
template <typename T>
constexpr FiniteBits<T> exponent_mask() {
  return sizeof(T) == 4 ? FiniteBits<T>(0x7f800000u)
                        : FiniteBits<T>(0x7ff0000000000000ull);
}

template <typename T>
inline bool is_finite_value(T v) {
  FiniteBits<T> b;
  std::memcpy(&b, &v, sizeof(T));
  return (b & exponent_mask<T>()) != exponent_mask<T>();
}

// Branch-free OR-reduction over a contiguous run; the hot loop is integer
// only and auto-vectorizes.
template <typename T>
inline bool run_all_finite(const T* p, index n) {
  constexpr FiniteBits<T> kExp = exponent_mask<T>();
  FiniteBits<T> bad = 0;
  for (index i = 0; i < n; ++i) {
    FiniteBits<T> b;
    std::memcpy(&b, p + i, sizeof(T));
    bad |= static_cast<FiniteBits<T>>((b & kExp) == kExp);
  }
  return bad == 0;
}

// Index of the first non-finite element in [p, p+n), or -1.
template <typename T>
inline index first_non_finite(const T* p, index n) {
  if (run_all_finite(p, n)) return -1;
  for (index i = 0; i < n; ++i)
    if (!is_finite_value(p[i])) return i;
  return -1;  // unreachable: the OR-reduction saw a bad exponent
}

[[noreturn]] void throw_numerical_error(index linear_index);

}  // namespace detail

/// Scans @p g's interior per @p mode; throws NumericalError carrying the
/// linear interior index (x, x + nx*y, x + nx*(y + ny*z)) of the first
/// non-finite cell — the lowest such index, since rows are visited in
/// storage order. kOff returns immediately.
template <typename T, int D>
void health_scan(const Grid<T, D>& g, HealthCheck mode) {
  if (mode == HealthCheck::kOff) return;
  const auto& n = g.extents();
  const index nx = n[0];
  index ny = 1;
  if constexpr (D >= 2) ny = n[1];
  auto scan = [&](index y, index z, index x0, index len) {
    const index i = detail::first_non_finite(g.row_at(y, z) + x0, len);
    if (i >= 0) detail::throw_numerical_error(x0 + i + nx * (y + ny * z));
  };
  for_each_row(interior_box(g), [&](index y, index z) {
    // The boundary ring: every cell of a row on an outer face (y or z at
    // its first or last slab), the two end cells of every other row. A 1D
    // grid has no outer faces, so its ring is its two edge cells.
    bool whole_row = mode == HealthCheck::kFull;
    for (int a = 1; a < D; ++a) {
      const index c = a == 1 ? y : z;
      whole_row =
          whole_row || c == 0 || c == n[static_cast<std::size_t>(a)] - 1;
    }
    if (whole_row) {
      scan(y, z, 0, nx);
    } else {
      scan(y, z, 0, 1);
      if (nx > 1) scan(y, z, nx - 1, 1);
    }
  });
}

}  // namespace tsv
