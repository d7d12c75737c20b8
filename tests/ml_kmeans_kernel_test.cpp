// K-Means block kernels vs the per-row scalar loop: the portable and the
// AVX2 block kernel must return each row's argmin and, bit for bit, its
// winning squared distance exactly as KMeansDetector::nearest_cluster's
// loop does — on a trained model's centroids, on adversarial rows (NaN,
// ±inf, values beyond the scaler's clamp) and on duplicate centroids,
// over batch sizes around the kernels' row blocks. Labels are checked by
// ml_batch_test; distances are what expose a changed summation order.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "ml/design_matrix.hpp"
#include "ml/kmeans.hpp"
#include "ml/kmeans_kernel.hpp"
#include "ml/preprocess.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {
namespace {

using kmeans_kernel::BlockKernel;
using util::Rng;

struct Model {
  StandardScaler scaler;
  std::vector<std::vector<double>> centroids;
};

std::vector<double> flatten(const std::vector<std::vector<double>>& centroids) {
  std::vector<double> flat;
  for (const auto& c : centroids) flat.insert(flat.end(), c.begin(), c.end());
  return flat;
}

/// Rows of the given width, cycling through the hard cases (ml_batch_test's
/// fuzz rows plus non-finite features): plain noise, wide noise, a tight
/// cluster, all zeros, magnitudes far past the ±3σ clamp, one NaN
/// feature, one ±inf feature, and an exact duplicate of the previous row.
DesignMatrix make_rows(std::size_t n, std::size_t dims, Rng& rng) {
  DesignMatrix x{dims};
  std::vector<double> row(dims, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // Shifted by one each 8 rows, so every kind visits every lane.
    switch ((i + i / 8) % 8) {
      case 0:
        for (auto& v : row) v = rng.normal(0.0, 2.0);
        break;
      case 1:
        for (auto& v : row) v = rng.uniform(-10.0, 10.0);
        break;
      case 2:
        for (auto& v : row) v = rng.normal(1.5, 0.05);
        break;
      case 3:
        for (auto& v : row) v = 0.0;
        break;
      case 4:
        for (auto& v : row) v = rng.uniform(-1e6, 1e6);
        break;
      case 5:
        for (auto& v : row) v = rng.normal(0.0, 2.0);
        row[rng.uniform_u64(dims)] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 6:
        for (auto& v : row) v = rng.normal(0.0, 2.0);
        row[rng.uniform_u64(dims)] = rng.bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                                        : -std::numeric_limits<double>::infinity();
        break;
      default:  // duplicate of the previous row
        break;
    }
    x.add_row(row);
  }
  return x;
}

/// A scaler fitted on clean rows and k centroids drawn from the scaled
/// rows, every fourth one (from index 1) a copy of its predecessor so
/// exact ties between distinct centroid indices occur.
Model make_model(std::size_t dims, std::size_t k, Rng& rng) {
  DesignMatrix train{dims};
  std::vector<double> row(dims);
  for (std::size_t i = 0; i < 200; ++i) {
    for (auto& v : row) v = rng.normal(0.0, 2.0);
    train.add_row(row);
  }
  Model m;
  m.scaler.fit(train);
  for (std::size_t c = 0; c < k; ++c) {
    if (c % 4 == 1) {
      m.centroids.push_back(m.centroids.back());
    } else {
      m.centroids.push_back(m.scaler.transform(train.row(rng.uniform_u64(train.rows()))));
    }
  }
  return m;
}

/// A trained detector's scaler and centroids, read back from its model
/// bytes (save() writes the scaler, then the centroids).
Model trained_model(const DesignMatrix& x, const std::vector<int>& y) {
  KMeansDetector km;
  km.fit(x, y);
  util::ByteWriter w;
  km.save(w);
  util::ByteReader r{w.bytes()};
  Model m;
  m.scaler.load(r);
  const std::uint64_t k = r.get_u64();
  for (std::uint64_t c = 0; c < k; ++c) m.centroids.push_back(r.get_f64_vector());
  return m;
}

struct KernelParam {
  const char* name;
  BlockKernel kernel;
  bool needs_avx2;
};

// Keeps the ctest names free of the function pointers' bytes.
void PrintTo(const KernelParam& p, std::ostream* os) { *os << p.name; }

class BlockKernelTest : public ::testing::TestWithParam<KernelParam> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !kmeans_kernel::cpu_has_avx2()) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }

  /// The kernel vs the per-row loop, row by row: argmin and the winning
  /// distance's bits.
  void expect_matches_per_row(const DesignMatrix& x, const Model& m) const {
    const std::vector<double> flat = flatten(m.centroids);
    std::vector<int> argmin(x.rows(), -1);
    std::vector<double> distance(x.rows(), -1.0);
    GetParam().kernel(x, m.scaler, flat, argmin.data(), distance.data());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const kmeans_kernel::Nearest want =
          kmeans_kernel::nearest(m.scaler.transform(x.row(r)), m.centroids);
      ASSERT_EQ(argmin[r], static_cast<int>(want.index))
          << "row " << r << " of " << x.rows() << ", dims " << x.cols() << ", k "
          << m.centroids.size();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(distance[r]),
                std::bit_cast<std::uint64_t>(want.distance))
          << "row " << r << " of " << x.rows() << ", dims " << x.cols() << ", k "
          << m.centroids.size() << ": " << distance[r] << " vs " << want.distance;
    }
  }
};

TEST_P(BlockKernelTest, MatchesPerRowLoopOnTrainedModel) {
  // Two separated blobs in the feature schema's 17 columns, the model a
  // real fit; scored on the training rows and on adversarial rows.
  constexpr std::size_t kDims = 17;
  Rng rng{12};
  DesignMatrix train{kDims};
  std::vector<int> y;
  std::vector<double> row(kDims);
  for (std::size_t i = 0; i < 600; ++i) {
    const int cls = static_cast<int>(i % 2);
    for (auto& v : row) v = rng.normal(cls == 0 ? 0.0 : 3.0, 1.0);
    train.add_row(row);
    y.push_back(cls);
  }
  const Model m = trained_model(train, y);
  ASSERT_GE(m.centroids.size(), 2u);
  expect_matches_per_row(train, m);
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    Rng fuzz{seed};
    expect_matches_per_row(make_rows(97, kDims, fuzz), m);
  }
}

TEST_P(BlockKernelTest, MatchesPerRowLoopAcrossBatchWidthAndCentroidCounts) {
  // Batch sizes around the 4-row vector, the 8-row AVX2 block and the
  // 32-row scalar block; widths below, at and past one vector.
  Rng rng{7};
  for (const std::size_t dims : {1u, 3u, 4u, 5u, 16u, 17u}) {
    for (const std::size_t k : {2u, 3u, 40u}) {
      const Model m = make_model(dims, k, rng);
      for (std::size_t n = 1; n <= 65; ++n) {
        const bool probed = n <= 9 || (n >= 15 && n <= 17) || (n >= 31 && n <= 33) || n >= 63;
        if (!probed) continue;
        expect_matches_per_row(make_rows(n, dims, rng), m);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(BlockKernelTest, ExactTieGoesToTheLowestIndex) {
  // Centroids {A, A, B, B}: every row ties between the two copies of its
  // nearest centroid and must resolve to the first, index 0 or 2, as the
  // per-row loop's strict < does.
  Rng rng{5};
  Model m = make_model(5, 3, rng);  // A, A, B
  m.centroids.push_back(m.centroids[2]);
  DesignMatrix x{5};
  std::vector<double> raw(5);
  for (std::size_t i = 0; i < 11; ++i) {
    // Undo the scaling so each row lands on (or next to) A or B.
    const auto& target = m.centroids[i % 2 == 0 ? 0 : 2];
    for (std::size_t d = 0; d < 5; ++d) {
      raw[d] = target[d] * m.scaler.stddev()[d] + m.scaler.mean()[d];
    }
    x.add_row(raw);
  }
  const std::vector<double> flat = flatten(m.centroids);
  std::vector<int> argmin(x.rows());
  std::vector<double> distance(x.rows());
  GetParam().kernel(x, m.scaler, flat, argmin.data(), distance.data());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(argmin[r], r % 2 == 0 ? 0 : 2) << "row " << r;
  }
  expect_matches_per_row(x, m);
}

TEST_P(BlockKernelTest, NanRowsNeverWin) {
  // Every distance of a row with a NaN feature is NaN, so no centroid
  // beats the initial maximum: index 0, distance DBL_MAX.
  Rng rng{9};
  const Model m = make_model(3, 3, rng);
  DesignMatrix x{3};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < 9; ++i) x.add_row(std::vector<double>{0.5, nan, 0.5});
  const std::vector<double> flat = flatten(m.centroids);
  std::vector<int> argmin(x.rows(), -1);
  std::vector<double> distance(x.rows());
  GetParam().kernel(x, m.scaler, flat, argmin.data(), distance.data());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(argmin[r], 0) << "row " << r;
    EXPECT_EQ(distance[r], std::numeric_limits<double>::max()) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, BlockKernelTest,
    ::testing::Values(KernelParam{"Scalar", kmeans_kernel::nearest_block_scalar, false},
                      KernelParam{"Avx2", kmeans_kernel::nearest_block_avx2, true}),
    [](const ::testing::TestParamInfo<KernelParam>& info) {
      return std::string{info.param.name};
    });

TEST(BlockKernelDispatchTest, ScoreBatchRunsAvx2WhereTheCpuHasIt) {
  const BlockKernel want = kmeans_kernel::cpu_has_avx2() ? kmeans_kernel::nearest_block_avx2
                                                         : kmeans_kernel::nearest_block_scalar;
  EXPECT_EQ(kmeans_kernel::block_kernel(), want);
}

}  // namespace
}  // namespace ddoshield::ml
