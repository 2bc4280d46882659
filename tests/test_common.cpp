// Unit tests for the common substrate: aligned buffers, grids, cpu info.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "tsv/common/aligned.hpp"
#include "tsv/common/check.hpp"
#include "tsv/common/cpu.hpp"
#include "tsv/common/grid.hpp"

namespace tsv {
namespace {

TEST(AlignedBuffer, StartsAligned) {
  AlignedBuffer<double> b(13);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kAlignment, 0u);
  EXPECT_EQ(b.size(), 13);
}

TEST(AlignedBuffer, ZeroInitialized) {
  AlignedBuffer<double> b(100);
  for (double v : b) EXPECT_EQ(v, 0.0);
}

TEST(AlignedBuffer, CopyIsDeep) {
  AlignedBuffer<double> a(4);
  a[0] = 42.0;
  AlignedBuffer<double> b = a;
  b[0] = 7.0;
  EXPECT_EQ(a[0], 42.0);
  EXPECT_EQ(b[0], 7.0);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<double> a(4);
  a[1] = 5.0;
  double* p = a.data();
  AlignedBuffer<double> b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[1], 5.0);
}

TEST(AlignedBuffer, EmptyIsValid) {
  AlignedBuffer<double> b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBuffer, NegativeSizeThrows) {
  EXPECT_THROW(AlignedBuffer<double>(-1), std::invalid_argument);
}

TEST(RoundUp, Basics) {
  EXPECT_EQ(round_up(0, 8), 0);
  EXPECT_EQ(round_up(1, 8), 8);
  EXPECT_EQ(round_up(8, 8), 8);
  EXPECT_EQ(round_up(9, 8), 16);
}

TEST(Require, ThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "ok"));
  try {
    require_fmt(false, "nx=", 5, " not divisible");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "nx=5 not divisible");
  }
}

// The per-rank names are the one rank-generic grid.
static_assert(std::is_same_v<Grid1D<double>, Grid<double, 1>>);
static_assert(std::is_same_v<Grid2D<double>, Grid<double, 2>>);
static_assert(std::is_same_v<Grid3D<double>, Grid<double, 3>>);
static_assert(std::is_same_v<Grid1D<float>, Grid<float, 1>>);
static_assert(std::is_same_v<Grid2D<float>, Grid<float, 2>>);
static_assert(std::is_same_v<Grid3D<float>, Grid<float, 3>>);

// Storage layout pinned to exact figures for a 39 x 11 x 3 interior. With
// A = 64 / sizeof(T) elements and lead = round_up(max(halo, 1), A):
//   row stride   = lead + round_up(nx + max(halo, 1), A)
//   plane stride = row stride * (ny + 2 halo)
//   elements     = lead + nx + lead                    (1D)
//                  row stride * (ny + 2 halo) + lead     (2D)
//                  plane stride * (nz + 2 halo) + lead   (3D)
// Kernels, alignment and peak memory all rest on these numbers.
constexpr index kLayoutNx = 39, kLayoutNy = 11, kLayoutNz = 3;
struct Layout {
  index halo, row_stride, plane_stride, size1d, size2d, size3d;
};
constexpr Layout kLayoutF64[] = {{0, 48, 528, 55, 536, 1592},
                                 {1, 48, 624, 55, 632, 3128},
                                 {2, 56, 840, 55, 848, 5888}};
constexpr Layout kLayoutF32[] = {{0, 64, 704, 71, 720, 2128},
                                 {1, 64, 832, 71, 848, 4176},
                                 {2, 64, 960, 71, 976, 6736}};

template <typename T>
bool aligned(const T* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kAlignment == 0;
}

/// Calls check.template operator()<T>(layout) for every table row.
template <typename Check>
void for_each_layout(Check&& check) {
  for (const Layout& l : kLayoutF64) check.template operator()<double>(l);
  for (const Layout& l : kLayoutF32) check.template operator()<float>(l);
}

TEST(Grid1D, InteriorAlignedAndHaloAddressable) {
  Grid1D<double> g(100, 2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.x0()) % kAlignment, 0u);
  g.at(-2) = 1.0;
  g.at(101) = 2.0;
  EXPECT_EQ(g.at(-2), 1.0);
  EXPECT_EQ(g.at(101), 2.0);

  for_each_layout([]<typename T>(const Layout& l) {
    Grid1D<T> t(kLayoutNx, l.halo);
    EXPECT_TRUE(aligned(t.x0()));
    EXPECT_EQ(t.storage_size(), l.size1d) << "halo " << l.halo;
    t.at(-l.halo) = T(1);
    t.at(kLayoutNx + l.halo - 1) = T(2);
    EXPECT_EQ(t.at(-l.halo), T(1));
  });
}

TEST(Grid1D, FillCoversHalo) {
  Grid1D<double> g(10, 1);
  g.fill([](index x) { return static_cast<double>(x); });
  EXPECT_EQ(g.at(-1), -1.0);
  EXPECT_EQ(g.at(10), 10.0);
  EXPECT_EQ(g.at(5), 5.0);
}

TEST(Grid1D, SwapStorage) {
  Grid1D<double> a(8, 1), b(8, 1);
  a.fill([](index) { return 1.0; });
  b.fill([](index) { return 2.0; });
  a.swap_storage(b);
  EXPECT_EQ(a.at(0), 2.0);
  EXPECT_EQ(b.at(0), 1.0);
  Grid1D<double> c(9, 1);
  EXPECT_THROW(a.swap_storage(c), std::invalid_argument);
}

TEST(Grid2D, RowsAligned) {
  Grid2D<double> g(37, 11, 2);
  for (index y = -2; y < 13; ++y)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(y)) % kAlignment, 0u)
        << "row " << y;

  for_each_layout([]<typename T>(const Layout& l) {
    const Grid2D<T> t(kLayoutNx, kLayoutNy, l.halo);
    EXPECT_EQ(t.row_stride(), l.row_stride) << "halo " << l.halo;
    EXPECT_EQ(t.storage_size(), l.size2d) << "halo " << l.halo;
    for (index y = -l.halo; y < kLayoutNy + l.halo; ++y) {
      EXPECT_TRUE(aligned(t.row(y))) << "row " << y;
      EXPECT_EQ(t.row(y) - t.row(-l.halo), (y + l.halo) * l.row_stride);
    }
  });
}

TEST(Grid2D, FillAndAccess) {
  Grid2D<double> g(5, 4, 1);
  g.fill([](index x, index y) { return static_cast<double>(10 * y + x); });
  EXPECT_EQ(g.at(2, 3), 32.0);
  EXPECT_EQ(g.at(-1, -1), -11.0);
  EXPECT_EQ(g.at(5, 4), 45.0);
}

TEST(Grid3D, RowsAlignedAndAccess) {
  Grid3D<double> g(17, 5, 3, 1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(2, 1)) % kAlignment, 0u);
  g.fill([](index x, index y, index z) {
    return static_cast<double>(100 * z + 10 * y + x);
  });
  EXPECT_EQ(g.at(3, 4, 2), 243.0);
  EXPECT_EQ(g.at(-1, 0, 0), -1.0);

  for_each_layout([]<typename T>(const Layout& l) {
    const Grid3D<T> t(kLayoutNx, kLayoutNy, kLayoutNz, l.halo);
    EXPECT_EQ(t.row_stride(), l.row_stride) << "halo " << l.halo;
    EXPECT_EQ(t.plane_stride(), l.plane_stride) << "halo " << l.halo;
    EXPECT_EQ(t.storage_size(), l.size3d) << "halo " << l.halo;
    const index h = l.halo;
    EXPECT_TRUE(aligned(t.row(-h, -h)));
    EXPECT_TRUE(aligned(t.row(kLayoutNy + h - 1, kLayoutNz + h - 1)));
    EXPECT_EQ(t.row(kLayoutNy + h - 1, kLayoutNz + h - 1) - t.row(-h, -h),
              (kLayoutNy + 2 * h - 1) * l.row_stride +
                  (kLayoutNz + 2 * h - 1) * l.plane_stride);
  });
}

TEST(Grid, MaxAbsDiff) {
  Grid1D<double> a(6, 1), b(6, 1);
  a.fill([](index) { return 0.0; });
  b.fill([](index) { return 0.0; });
  b.at(3) = 0.5;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  b.at(-1) = 99.0;  // halo differences are ignored
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
}

TEST(Cpu, ReportsSaneValues) {
  const CpuInfo& info = cpu_info();
  EXPECT_GE(info.logical_cores, 1);
  EXPECT_GT(info.l1_bytes, 0);
  EXPECT_GT(info.l2_bytes, info.l1_bytes);
  EXPECT_GT(info.l3_bytes, info.l2_bytes);
  EXPECT_TRUE(isa_supported(Isa::kScalar));
  EXPECT_EQ(isa_width(Isa::kAvx2), 4);
  EXPECT_EQ(isa_width(Isa::kAvx512), 8);
  // best_isa must be supported by definition.
  EXPECT_TRUE(isa_supported(best_isa()));
}

}  // namespace
}  // namespace tsv
