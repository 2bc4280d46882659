#pragma once
// Register-blocked generic interpreter (Method::kGeneric).
//
// Executes any row-based stencil descriptor — the lowered runtime shapes
// from core/generic_stencil.hpp as well as the compiled Table-1 descriptors
// — without a shape-specialized kernel. The structure mirrors the multiload
// baseline (one unaligned load per shifted vector), with two twists that
// keep the interpreter within reach of the precompiled kernels:
//
//  * The tap loop is unrolled at compile time over the padded span 2R+1
//    (static_for) with a runtime zero-skip, so a star row costs its live
//    taps only; the *row* loop is runtime — that is the interpreted part.
//  * Register blocking: the main loop produces NB=4 output vectors per
//    iteration, so each broadcast weight register is reused across 4 FMAs
//    and the per-(row, tap) overhead amortizes. A W-granular loop and a
//    scalar loop mop up the tail.
//
// The lowered descriptors may carry a per-cell coefficient field
// ("scale"): out[c] = scale[c] * sum of taps, applied as one extra vector
// multiply before the store. Descriptors without the accessor (the
// compiled kinds) compile to the plain sum — the `requires` gate keeps the
// field access out of their instantiation entirely.

#include "tsv/core/generic_stencil.hpp"
#include "tsv/tiling/tess.hpp"
#include "tsv/vectorize/method_common.hpp"
#include "tsv/vectorize/multiload.hpp"

namespace tsv {

namespace detail {

/// Vector tap accumulate over NB consecutive output vectors: one broadcast
/// per live tap, NB fused multiply-adds per broadcast.
template <typename V, int R, int NB>
TSV_ALWAYS_INLINE void generic_row_acc(const vec_value_t<V>* p, index x,
                                       const std::array<vec_value_t<V>,
                                                        2 * R + 1>& w,
                                       std::array<V, NB>& acc) {
  static_for<0, 2 * R + 1>([&]<int DXI>() TSV_ALWAYS_INLINE_LAMBDA {
    if (w[DXI] != 0) {
      const V wv = V::broadcast(w[DXI]);
      static_for<0, NB>([&]<int B>() TSV_ALWAYS_INLINE_LAMBDA {
        acc[B] = fma(wv, V::loadu(p + x + B * V::width + (DXI - R)), acc[B]);
      });
    }
  });
}

}  // namespace detail

/// One Jacobi step over box @p b. @p taps is @p s's tap-row table; @p s
/// itself only supplies the optional per-cell scale rows.
template <typename V, typename G, typename S>
TSV_NOINLINE void generic_step_region(const G& in, G& out, const S& s,
                                      const TapRows<S>& taps,
                                      const Box<G::kRank>& b) {
  using T = vec_value_t<V>;
  constexpr int R = S::radius;
  constexpr int W = V::width;
  constexpr int NB = 4;
  const index xlo = b.lo[0], xhi = b.hi[0];
  row_walk(in, b, taps, [&](const auto& rp, index y, index z) {
    T* op = out.row_at(y, z);
    const T* sp = nullptr;
    if constexpr (requires { s.scale_row(y, z); }) sp = s.scale_row(y, z);
    index x = xlo;
    for (; x + NB * W <= xhi; x += NB * W) {
      std::array<V, NB> acc;
      static_for<0, NB>([&]<int B>() { acc[B] = V::zero(); });
      for (int r = 0; r < taps.count(); ++r)
        detail::generic_row_acc<V, R, NB>(rp[r], x, taps.w[r], acc);
      static_for<0, NB>([&]<int B>() {
        V v = acc[B];
        if (sp != nullptr) v = v * V::loadu(sp + x + B * W);
        v.storeu(op + x + B * W);
      });
    }
    for (; x + W <= xhi; x += W) {
      std::array<V, 1> acc{V::zero()};
      for (int r = 0; r < taps.count(); ++r)
        detail::generic_row_acc<V, R, 1>(rp[r], x, taps.w[r], acc);
      V v = acc[0];
      if (sp != nullptr) v = v * V::loadu(sp + x);
      v.storeu(op + x);
    }
    for (; x < xhi; ++x) {
      T acc = 0;
      for (int r = 0; r < taps.count(); ++r)
        acc = detail::scalar_row_acc<R>(rp[r], x, taps.w[r], acc);
      op[x] = sp != nullptr ? sp[x] * acc : acc;
    }
  });
}

template <typename V, typename G, typename S>
TSV_NOINLINE void generic_run(G& g, const S& s, index steps, Workspace& ws) {
  const TapRows<S> taps(s);
  const auto all = interior_box(g);
  jacobi_run(g, steps, ws, kWsTmpGrid, [&](const G& in, G& out) {
    generic_step_region<V>(in, out, s, taps, all);
  });
}

template <typename V, typename G, typename S>
TSV_NOINLINE void tess_generic_run(G& g, const S& s, index steps,
                                   const Blocks& blk, index bt,
                                   Workspace& ws) {
  const TapRows<S> taps(s);
  tess_run(g, steps, blk, bt, S::radius, ws,
           [&](const G& in, G& out, const Box<G::kRank>& b) {
             generic_step_region<V>(in, out, s, taps, b);
           });
}

}  // namespace tsv
