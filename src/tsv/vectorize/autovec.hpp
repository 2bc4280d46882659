#pragma once
// Compiler auto-vectorization baseline.
//
// The loops are written the way application programmers write stencils —
// plain scalar bodies over restrict pointers with an `omp simd` hint — and
// the compiler is left to vectorize them. This is the kernel the paper's
// "Tessellation" baseline uses inside its tiles (Yuan SC'17 relies on
// compiler auto-vectorization), and it stands in for "what ICC does".
//
// The region entry point takes a Box so the tiling frameworks can drive it
// tile-by-tile; the *_run driver sweeps the whole interior.

#include "tsv/vectorize/method_common.hpp"

namespace tsv {

template <typename G, typename S>
TSV_NOINLINE void autovec_step_region(const G& in, G& out,
                                      const TapRows<S>& taps,
                                      const Box<G::kRank>& b) {
  using T = typename S::value_type;
  constexpr int R = S::radius;
  const auto w = taps.w;  // local copy: lets the vectorizer keep weights in regs
  const index xlo = b.lo[0], xhi = b.hi[0];
  row_walk(in, b, taps, [&](const auto& rp, index y, index z) {
    T* __restrict op = out.row_at(y, z);
#pragma omp simd
    for (index x = xlo; x < xhi; ++x) {
      T acc = 0;
      for (int r = 0; r < taps.count(); ++r)
        for (int dx = -R; dx <= R; ++dx) acc += w[r][dx + R] * rp[r][x + dx];
      op[x] = acc;
    }
  });
}

template <typename G, typename S>
TSV_NOINLINE void autovec_run(G& g, const S& s, index steps, Workspace& ws) {
  const TapRows<S> taps(s);
  const auto all = interior_box(g);
  jacobi_run(g, steps, ws, kWsTmpGrid, [&](const G& in, G& out) {
    autovec_step_region(in, out, taps, all);
  });
}

}  // namespace tsv
