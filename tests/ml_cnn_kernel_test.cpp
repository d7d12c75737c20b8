// CNN dense-layer kernels vs the scalar loops: the SSE2 and the AVX2 forms
// of Dense(hidden) forward, its per-unit backward, the ReLU gate pass and
// Dense(2) must write every output bit for bit as the scalar form does —
// over row counts around each form's tiles and vectors (every partial
// tile), input widths that the backward column blocks do not divide, exact
// zeros, NaN and infinities. The AVX2 form is also checked against the
// SSE2 form directly. ml_batch_test and ml_cnn_train_test check the same
// property end to end, through score_batch and training.
#include <gtest/gtest.h>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ml/cnn_kernel.hpp"
#include "ml/kmeans_kernel.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {
namespace {

using cnn_kernel::Kernels;
using util::Rng;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> normals(std::size_t n, Rng& rng, double stddev = 1.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal(0.0, stddev);
  return v;
}

/// Pooled-like inputs: mostly positive (ReLU + MaxPool output), a third
/// exact zeros.
std::vector<double> pooled_rows(std::size_t rows, std::size_t flat, Rng& rng) {
  std::vector<double> p(rows * flat);
  for (auto& x : p) x = rng.uniform_u64(3) == 0 ? 0.0 : std::abs(rng.normal(0.0, 2.0));
  return p;
}

::testing::AssertionResult same_bits(const std::vector<double>& got,
                                     const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) != std::bit_cast<std::uint64_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

struct FormParam {
  const char* name;
  const Kernels& (*kernels)();
  bool needs_avx2;
};

// Keeps the ctest names free of the function pointers' bytes.
void PrintTo(const FormParam& p, std::ostream* os) { *os << p.name; }

class CnnKernelTest : public ::testing::TestWithParam<FormParam> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !kmeans_kernel::cpu_has_avx2()) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }

  const Kernels& form() const { return GetParam().kernels(); }

  /// The forms an output is checked against: the scalar loop, and for the
  /// AVX2 form also the SSE2 form.
  std::vector<const Kernels*> oracles() const {
    std::vector<const Kernels*> out{&cnn_kernel::scalar_kernels()};
    if (GetParam().needs_avx2) out.push_back(&cnn_kernel::sse2_kernels());
    return out;
  }

  static std::vector<double> dense1(const Kernels& k, const std::vector<double>& w,
                                    const std::vector<double>& bias, std::size_t flat,
                                    const std::vector<double>& pooled, std::size_t rows) {
    std::vector<double> zt(bias.size() * rows, -1.0);
    std::vector<double> pt(cnn_kernel::tile_scratch_size(flat), -1.0);
    k.dense1_block(w.data(), bias.data(), bias.size(), flat, pooled.data(), rows, zt.data(),
                   pt.data());
    return zt;
  }

  void expect_dense1_matches(const std::vector<double>& w, const std::vector<double>& bias,
                             std::size_t flat, const std::vector<double>& pooled,
                             std::size_t rows) const {
    const std::vector<double> got = dense1(form(), w, bias, flat, pooled, rows);
    for (const Kernels* oracle : oracles()) {
      EXPECT_TRUE(same_bits(got, dense1(*oracle, w, bias, flat, pooled, rows)))
          << "vs " << oracle->name << ", rows " << rows << ", flat " << flat;
    }
  }

  /// Unit gradients of `units` consecutive units over the same open rows,
  /// accumulating into one d_pooled as training does.
  static std::pair<std::vector<double>, std::vector<double>> unit_grads(
      const Kernels& k, const std::vector<double>& w, std::size_t units, std::size_t flat,
      const std::vector<double>& pooled, std::size_t rows,
      const std::vector<std::uint32_t>& active, const std::vector<double>& dz) {
    std::vector<double> g(units * flat, -1.0);
    std::vector<double> d_pooled(rows * flat, 0.0);
    for (std::size_t h = 0; h < units; ++h) {
      k.dense1_unit_grad(&w[h * flat], pooled.data(), flat, active.data(), &dz[h * rows],
                         active.size(), &g[h * flat], d_pooled.data());
    }
    return {g, d_pooled};
  }

  static std::vector<double> dense2(const Kernels& k, const std::vector<double>& w2,
                                    const std::vector<double>& b2, const std::vector<double>& zt,
                                    std::size_t rows) {
    std::vector<double> logits(2 * rows, -1.0);
    k.dense2_block(w2.data(), b2.data(), w2.size() / 2, zt.data(), rows, logits.data());
    return logits;
  }
};

TEST_P(CnnKernelTest, Dense1MatchesForEveryPartialTile) {
  // Rows 1–65 cover every partial tile of both forms (around 4, 16 and 32
  // rows) and two tiles plus one row; flat 9 and 30 are not multiples of
  // any vector width, 72 is the production width.
  Rng rng{31};
  for (const std::size_t flat : {9u, 30u, 72u}) {
    const std::size_t hidden = 7;
    const std::vector<double> w = normals(hidden * flat, rng, 0.5);
    const std::vector<double> bias = normals(hidden, rng);
    for (std::size_t rows = 1; rows <= 65; ++rows) {
      expect_dense1_matches(w, bias, flat, pooled_rows(rows, flat, rng), rows);
      if (HasFailure()) return;
    }
  }
}

TEST_P(CnnKernelTest, Dense1MatchesAtProductionShape) {
  // 1250 units over 72 inputs, one scoring block (32 rows), one training
  // batch (64 rows) and a batch's partial tail (17 rows).
  Rng rng{32};
  const std::vector<double> w = normals(1250 * 72, rng, 0.2);
  const std::vector<double> bias = normals(1250, rng, 0.1);
  for (const std::size_t rows : {17u, 32u, 64u}) {
    expect_dense1_matches(w, bias, 72, pooled_rows(rows, 72, rng), rows);
  }
}

TEST_P(CnnKernelTest, Dense1KeepsNonFiniteRowsInTheirLanes) {
  // A NaN row and ±inf rows: at 5 and 13 rows the NaN row shares its
  // vector with padded lanes in either form, and at 33 it is a lone row.
  // Each output equals the scalar loop's, and the finite rows stay finite.
  Rng rng{33};
  constexpr std::size_t kFlat = 30;
  const std::vector<double> w = normals(3 * kFlat, rng);
  const std::vector<double> bias = normals(3, rng);
  for (const std::size_t rows : {5u, 13u, 33u}) {
    std::vector<double> pooled = pooled_rows(rows, kFlat, rng);
    const std::size_t nan_row = rows - 1;
    pooled[nan_row * kFlat + 4] = kNan;
    pooled[(rows / 2) * kFlat + 7] = kInf;
    pooled[kFlat + 2] = -kInf;
    expect_dense1_matches(w, bias, kFlat, pooled, rows);
    const std::vector<double> zt = dense1(form(), w, bias, kFlat, pooled, rows);
    for (std::size_t h = 0; h < bias.size(); ++h) {
      EXPECT_TRUE(std::isnan(zt[h * rows + nan_row])) << "unit " << h << ", rows " << rows;
      EXPECT_TRUE(std::isfinite(zt[h * rows])) << "unit " << h << ", rows " << rows;
    }
  }
}

TEST_P(CnnKernelTest, UnitGradMatchesForOpenRowCounts) {
  // 0, 1, 63 and 64 open rows of a 64-row batch, five units adding into
  // one d_pooled. Among the open rows' gradients sit exact +0 and -0 (an
  // open gate whose back-propagated value rounds to zero).
  Rng rng{34};
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kUnits = 5;
  for (const std::size_t flat : {9u, 30u, 72u}) {
    const std::vector<double> w = normals(kUnits * flat, rng);
    const std::vector<double> pooled = pooled_rows(kRows, flat, rng);
    for (const std::size_t n_open : {0u, 1u, 63u, 64u}) {
      std::vector<std::uint32_t> active;
      for (std::size_t r = 0; r < kRows && active.size() < n_open; ++r) {
        // 63 open rows skip row 17; one open row is row 40.
        if ((n_open == 63 && r == 17) || (n_open == 1 && r != 40)) continue;
        active.push_back(static_cast<std::uint32_t>(r));
      }
      ASSERT_EQ(active.size(), n_open);
      std::vector<double> dz = normals(kUnits * kRows, rng, 0.3);
      for (std::size_t i = 0; i < dz.size(); i += 7) dz[i] = (i / 7) % 2 == 0 ? 0.0 : -0.0;
      const auto got = unit_grads(form(), w, kUnits, flat, pooled, kRows, active, dz);
      for (const Kernels* oracle : oracles()) {
        const auto want = unit_grads(*oracle, w, kUnits, flat, pooled, kRows, active, dz);
        EXPECT_TRUE(same_bits(got.first, want.first))
            << "g vs " << oracle->name << ", flat " << flat << ", open " << n_open;
        EXPECT_TRUE(same_bits(got.second, want.second))
            << "d_pooled vs " << oracle->name << ", flat " << flat << ", open " << n_open;
      }
    }
  }
}

TEST_P(CnnKernelTest, ReluGateMatchesOnZerosNanAndInfinities) {
  // z at exactly +0 and -0 closes the gate; NaN opens it (the reference
  // loop skips only where z <= 0) but its ReLU output is 0. Row counts
  // cover each form's masks and the scalar tail.
  Rng rng{35};
  const double specials[] = {0.0, -0.0, kNan, kInf, -kInf, 1e-300, -1e-300};
  for (std::size_t rows = 1; rows <= 13; ++rows) {
    std::vector<double> z = normals(rows, rng);
    for (std::size_t r = 0; r < rows; r += 2) z[r] = specials[(r / 2 + rows) % 7];
    const std::vector<double> d0 = normals(rows, rng), d1 = normals(rows, rng);
    const auto run = [&](const Kernels& k) {
      std::vector<double> relu2(rows, -1.0), dz(rows, -1.0);
      std::vector<std::uint8_t> gate(rows, 7);
      k.relu_gate(z.data(), d0.data(), d1.data(), 0.75, -1.25, rows, relu2.data(), dz.data(),
                  gate.data());
      std::vector<double> gate_d(gate.begin(), gate.end());
      return std::vector<std::vector<double>>{relu2, dz, gate_d};
    };
    const auto got = run(form());
    for (const Kernels* oracle : oracles()) {
      const auto want = run(*oracle);
      for (std::size_t part = 0; part < got.size(); ++part) {
        EXPECT_TRUE(same_bits(got[part], want[part]))
            << "output " << part << " vs " << oracle->name << ", rows " << rows;
      }
    }
  }
}

TEST_P(CnnKernelTest, Dense2MatchesForRows1To33) {
  // Row counts around the 8-row SSE2 and 16-row AVX2 passes; the
  // pre-activations hold negatives, exact zeros and a NaN, which the ReLU
  // maps to 0 in every form.
  Rng rng{36};
  for (const std::size_t hidden : {7u, 1250u}) {
    const std::vector<double> w2 = normals(2 * hidden, rng, 0.1);
    const std::vector<double> b2 = normals(2, rng);
    for (std::size_t rows = 1; rows <= 33; ++rows) {
      std::vector<double> zt = normals(hidden * rows, rng);
      for (std::size_t i = 0; i < zt.size(); i += 5) zt[i] = i % 2 == 0 ? 0.0 : -0.0;
      zt[zt.size() / 2] = kNan;
      const std::vector<double> got = dense2(form(), w2, b2, zt, rows);
      for (const Kernels* oracle : oracles()) {
        EXPECT_TRUE(same_bits(got, dense2(*oracle, w2, b2, zt, rows)))
            << "vs " << oracle->name << ", hidden " << hidden << ", rows " << rows;
      }
      if (HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Forms, CnnKernelTest,
                         ::testing::Values(FormParam{"Sse2", cnn_kernel::sse2_kernels, false},
                                           FormParam{"Avx2", cnn_kernel::avx2_kernels, true}),
                         [](const ::testing::TestParamInfo<FormParam>& info) {
                           return std::string{info.param.name};
                         });

#if defined(__x86_64__)
// XINUSE (xgetbv with ecx = 1) bit 2: the upper halves of the ymm
// registers hold state. Left set, it makes every later non-VEX SSE
// instruction in the process pay a merge.
__attribute__((target("xsave"))) bool upper_ymm_in_use() { return (_xgetbv(1) & 4) != 0; }

bool cpu_reports_xinuse() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  return __get_cpuid_count(0xD, 1, &a, &b, &c, &d) && (a & 4) != 0;
}

TEST(CnnKernelUpperStateTest, Avx2KernelsReturnWithTheUpperYmmStateClean) {
  // Each AVX2 kernel must run vzeroupper on every path back to its
  // caller, whatever the row count (full tiles, partial tiles, a lone
  // row, scalar tails) or column count (24- and 12-column blocks, tails).
  if (!kmeans_kernel::cpu_has_avx2() || !cpu_reports_xinuse()) {
    GTEST_SKIP() << "this CPU has no AVX2 or does not report XINUSE";
  }
  const Kernels& k = cnn_kernel::avx2_kernels();
  Rng rng{37};
  constexpr std::size_t kHidden = 5, kFlat = 30, kMaxRows = 65;
  const std::vector<double> w = normals(kHidden * kFlat, rng), bias = normals(kHidden, rng);
  const std::vector<double> w2 = normals(2 * kHidden, rng), b2 = normals(2, rng);
  const std::vector<double> pooled = pooled_rows(kMaxRows, kFlat, rng);
  const std::vector<double> d0 = normals(kMaxRows, rng), d1 = normals(kMaxRows, rng);
  std::vector<double> zt(kHidden * kMaxRows), pt(cnn_kernel::tile_scratch_size(kFlat));
  std::vector<double> logits(2 * kMaxRows), relu2(kMaxRows), dz(kMaxRows), g(kFlat);
  std::vector<double> d_pooled(kMaxRows * kFlat);
  std::vector<std::uint8_t> gate(kMaxRows);
  std::vector<std::uint32_t> active(kMaxRows);
  for (std::size_t r = 0; r < kMaxRows; ++r) active[r] = static_cast<std::uint32_t>(r);
  for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 16u, 17u, 32u, 33u, 65u}) {
    k.dense1_block(w.data(), bias.data(), kHidden, kFlat, pooled.data(), rows, zt.data(),
                   pt.data());
    EXPECT_FALSE(upper_ymm_in_use()) << "dense1_block, rows " << rows;
    k.dense2_block(w2.data(), b2.data(), kHidden, zt.data(), rows, logits.data());
    EXPECT_FALSE(upper_ymm_in_use()) << "dense2_block, rows " << rows;
    k.relu_gate(zt.data(), d0.data(), d1.data(), 0.5, -0.5, rows, relu2.data(), dz.data(),
                gate.data());
    EXPECT_FALSE(upper_ymm_in_use()) << "relu_gate, rows " << rows;
    for (const std::size_t flat : {9u, 12u, 24u, 30u}) {
      k.dense1_unit_grad(w.data(), pooled.data(), flat, active.data(), dz.data(), rows, g.data(),
                         d_pooled.data());
      EXPECT_FALSE(upper_ymm_in_use()) << "dense1_unit_grad, rows " << rows << ", flat " << flat;
    }
  }
}
#endif

TEST(CnnKernelDispatchTest, Cnn1DRunsAvx2WhereTheCpuHasIt) {
  if (!kmeans_kernel::cpu_has_avx2()) GTEST_SKIP() << "this CPU has no AVX2";
  EXPECT_EQ(&cnn_kernel::kernels(), &cnn_kernel::avx2_kernels());
  EXPECT_STREQ(cnn_kernel::kernels().name, "avx2");
}

}  // namespace
}  // namespace ddoshield::ml
