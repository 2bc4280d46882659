#pragma once
// "Multiple loads" vectorization baseline (paper §2.1, first solution).
//
// Every shifted input vector is re-loaded from memory with an unaligned
// load — no inter-register data reorganization at all. This inflates the
// CPU-memory transfer volume and incurs unaligned-access penalties, which is
// exactly the behaviour the paper measures for this method.

#include "tsv/vectorize/method_common.hpp"

namespace tsv {

namespace detail {

/// Vector-accumulates all taps of one padded row at position x.
template <typename V, int R>
TSV_ALWAYS_INLINE V multiload_row_acc(const vec_value_t<V>* p, index x,
                           const std::array<vec_value_t<V>, 2 * R + 1>& w,
                           V acc) {
  static_for<0, 2 * R + 1>([&]<int DXI>() {
    if (w[DXI] != 0)
      acc = fma(V::broadcast(w[DXI]), V::loadu(p + x + (DXI - R)), acc);
  });
  return acc;
}

/// Scalar tap application on one padded row.
template <int R, typename T>
TSV_ALWAYS_INLINE T scalar_row_acc(const T* p, index x,
                             const std::array<T, 2 * R + 1>& w, T acc) {
  for (int dx = -R; dx <= R; ++dx) acc += w[dx + R] * p[x + dx];
  return acc;
}

}  // namespace detail

template <typename V, typename G, typename S>
TSV_NOINLINE void multiload_step_region(const G& in, G& out,
                                        const TapRows<S>& taps,
                                        const Box<G::kRank>& b) {
  using T = vec_value_t<V>;
  constexpr int R = S::radius;
  constexpr int W = V::width;
  const index xlo = b.lo[0], xhi = b.hi[0];
  row_walk(in, b, taps, [&](const auto& rp, index y, index z) {
    T* op = out.row_at(y, z);
    index x = xlo;
    for (; x + W <= xhi; x += W) {
      V acc = V::zero();
      for (int r = 0; r < taps.count(); ++r)
        acc = detail::multiload_row_acc<V, R>(rp[r], x, taps.w[r], acc);
      acc.storeu(op + x);
    }
    for (; x < xhi; ++x) {
      T acc = 0;
      for (int r = 0; r < taps.count(); ++r)
        acc = detail::scalar_row_acc<R>(rp[r], x, taps.w[r], acc);
      op[x] = acc;
    }
  });
}

template <typename V, typename G, typename S>
TSV_NOINLINE void multiload_run(G& g, const S& s, index steps, Workspace& ws) {
  const TapRows<S> taps(s);
  const auto all = interior_box(g);
  jacobi_run(g, steps, ws, kWsTmpGrid, [&](const G& in, G& out) {
    multiload_step_region<V>(in, out, taps, all);
  });
}

}  // namespace tsv
