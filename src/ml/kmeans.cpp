#include "ml/kmeans.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ml/kmeans_kernel.hpp"

namespace ddoshield::ml {

using kmeans_kernel::squared_distance;

KMeansDetector::KMeansDetector(KMeansConfig config) : config_{config} {
  if (config_.initial_clusters < 2) {
    throw std::invalid_argument("KMeansDetector: need at least 2 initial clusters");
  }
}

void KMeansDetector::fit(const DesignMatrix& x, const std::vector<int>& y) {
  if (x.rows() != y.size()) throw std::invalid_argument("KMeansDetector::fit: X/y mismatch");
  if (x.rows() < config_.initial_clusters) {
    throw std::invalid_argument("KMeansDetector::fit: fewer rows than clusters");
  }

  util::Rng rng{config_.seed};

  scaler_.fit(x);
  DesignMatrix sub_raw;
  std::vector<int> sub_y;
  subsample(x, y, config_.max_training_rows, rng, sub_raw, sub_y);
  const DesignMatrix data = scaler_.transform(sub_raw);
  const std::size_t n = data.rows();
  const std::size_t dims = data.cols();

  // k-means++ style seeding: first centroid uniform, the rest weighted by
  // squared distance to the nearest chosen centroid.
  std::size_t k = config_.initial_clusters;
  centroids_.clear();
  {
    const auto first = data.row(rng.uniform_u64(n));
    centroids_.emplace_back(first.begin(), first.end());
    std::vector<double> dist2(n, std::numeric_limits<double>::max());
    while (centroids_.size() < k) {
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dist2[i] = std::min(dist2[i], squared_distance(data.row(i), centroids_.back()));
        total += dist2[i];
      }
      double pick = rng.uniform() * total;
      std::size_t chosen = n - 1;
      for (std::size_t i = 0; i < n; ++i) {
        pick -= dist2[i];
        if (pick <= 0.0) {
          chosen = i;
          break;
        }
      }
      const auto row = data.row(chosen);
      centroids_.emplace_back(row.begin(), row.end());
    }
  }
  proportions_.assign(k, 1.0 / static_cast<double>(k));

  std::vector<std::size_t> assignment(n, 0);
  for (std::size_t iter = 0; iter < config_.max_iterations; ++iter) {
    // --- assignment with entropy-penalised objective -----------------------
    // cost(i, c) = ||x_i - mu_c||^2 - w * log(pi_c): clusters with larger
    // mixing proportions are slightly favoured, so starving clusters starve
    // further and can be pruned — the U-k-means mechanism for finding k.
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < centroids_.size(); ++c) {
        const double cost = squared_distance(data.row(i), centroids_[c]) -
                            config_.entropy_weight * std::log(proportions_[c] + 1e-12);
        if (cost < best) {
          best = cost;
          best_c = c;
        }
      }
      assignment[i] = best_c;
    }

    // --- centroid + proportion update --------------------------------------
    std::vector<std::vector<double>> sums(centroids_.size(), std::vector<double>(dims, 0.0));
    std::vector<std::size_t> counts(centroids_.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = data.row(i);
      auto& sum = sums[assignment[i]];
      for (std::size_t d = 0; d < dims; ++d) sum[d] += row[d];
      ++counts[assignment[i]];
    }

    double max_shift = 0.0;
    for (std::size_t c = 0; c < centroids_.size(); ++c) {
      if (counts[c] == 0) {
        proportions_[c] = 0.0;  // starved: prune next round
        continue;
      }
      for (std::size_t d = 0; d < dims; ++d) {
        const double updated = sums[c][d] / static_cast<double>(counts[c]);
        max_shift = std::max(max_shift, std::abs(updated - centroids_[c][d]));
        centroids_[c][d] = updated;
      }
      proportions_[c] = static_cast<double>(counts[c]) / static_cast<double>(n);
    }

    // --- prune starving clusters -------------------------------------------
    if (centroids_.size() > 2) {
      std::vector<std::size_t> kept;
      for (std::size_t c = 0; c < centroids_.size(); ++c) {
        if (proportions_[c] >= config_.min_proportion) kept.push_back(c);
      }
      if (kept.size() >= 2 && kept.size() < centroids_.size()) {
        std::vector<std::vector<double>> kept_centroids;
        std::vector<double> kept_props;
        kept_centroids.reserve(kept.size());
        kept_props.reserve(kept.size());
        for (const std::size_t c : kept) {
          kept_centroids.push_back(std::move(centroids_[c]));
          kept_props.push_back(proportions_[c]);
        }
        centroids_ = std::move(kept_centroids);
        proportions_ = std::move(kept_props);
        // Renormalise proportions after pruning.
        double total = 0.0;
        for (const double p : proportions_) total += p;
        for (double& p : proportions_) p /= total;
        continue;  // re-assign against the pruned set before convergence test
      }
    }

    if (max_shift < config_.tolerance) break;
  }

  // --- majority-class tag per cluster (evaluation wiring, not clustering) --
  std::vector<std::array<std::size_t, 2>> class_counts(centroids_.size(), {0, 0});
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t c = nearest_cluster(data.row(i));
    ++class_counts[c][static_cast<std::size_t>(sub_y[i] != 0)];
  }
  cluster_labels_.assign(centroids_.size(), 0);
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    cluster_labels_[c] = class_counts[c][1] > class_counts[c][0] ? 1 : 0;
  }
  rebuild_flat();
}

bool KMeansDetector::incremental_update(const DesignMatrix& x, const std::vector<int>& y,
                                        util::Rng& rng) {
  if (centroids_.empty() || x.empty() || x.rows() != y.size()) return false;
  if (x.cols() != scaler_.mean().size()) return false;

  util::Rng local = rng.fork("kmeans-refresh");
  DesignMatrix sub_raw;
  std::vector<int> sub_y;
  subsample(x, y, config_.max_training_rows, local, sub_raw, sub_y);
  const DesignMatrix data = scaler_.transform(sub_raw);
  const std::size_t n = data.rows();
  const std::size_t dims = data.cols();
  const std::size_t k = centroids_.size();

  // Plain Lloyd from the current centroids — no re-seeding, no pruning:
  // the cluster structure (and each cluster's identity) is preserved so a
  // swap only moves decision boundaries, never renumbers the clusters.
  std::vector<std::size_t> assignment(n, 0);
  for (std::size_t iter = 0; iter < config_.refresh_iterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) assignment[i] = nearest_cluster(data.row(i));
    std::vector<std::vector<double>> sums(k, std::vector<double>(dims, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = data.row(i);
      auto& sum = sums[assignment[i]];
      for (std::size_t d = 0; d < dims; ++d) sum[d] += row[d];
      ++counts[assignment[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // starved this batch: keep the old centroid
      for (std::size_t d = 0; d < dims; ++d) {
        centroids_[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
      proportions_[c] = static_cast<double>(counts[c]) / static_cast<double>(n);
    }
  }

  // Majority relabel; clusters the replay batch never hits keep their tag.
  std::vector<std::array<std::size_t, 2>> class_counts(k, {0, 0});
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = nearest_cluster(data.row(i));
    ++class_counts[c][static_cast<std::size_t>(sub_y[i] != 0)];
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (class_counts[c][0] + class_counts[c][1] == 0) continue;
    cluster_labels_[c] = class_counts[c][1] > class_counts[c][0] ? 1 : 0;
  }
  rebuild_flat();
  return true;
}

void KMeansDetector::adopt_deployment(const Classifier& reference) {
  if (const auto* km = dynamic_cast<const KMeansDetector*>(&reference)) {
    // Config only steers fit/refresh — the serialized centroids carry
    // the fitted state — so a wholesale copy is safe.
    config_ = km->config_;
  }
}

void KMeansDetector::rebuild_flat() {
  centroid_flat_.clear();
  for (const auto& c : centroids_) centroid_flat_.insert(centroid_flat_.end(), c.begin(), c.end());
}

// Pinned to a 64-byte boundary, like the block kernels it calls: scoring
// is the largest serial stage of a sharded window close, and where the
// linker placed this loop once swung a 100k-device window's scoring
// between 65-80 ms (0 mod 64) and 123 ms (32 mod 64) on a 4-vCPU Xeon.
[[gnu::aligned(64)]] void KMeansDetector::score_batch(const DesignMatrix& x,
                                                      Verdicts& out) const {
  if (centroids_.empty()) throw std::logic_error("KMeansDetector::score_batch: not trained");
  out.resize(x.rows());
  kmeans_kernel::block_kernel()(x, scaler_, centroid_flat_, out.data(), nullptr);
  for (int& v : out) v = cluster_labels_[static_cast<std::size_t>(v)];
}

std::size_t KMeansDetector::nearest_cluster(std::span<const double> scaled_row) const {
  return kmeans_kernel::nearest(scaled_row, centroids_).index;
}

int KMeansDetector::predict(std::span<const double> row) const {
  if (centroids_.empty()) throw std::logic_error("KMeansDetector::predict: not trained");
  const std::vector<double> scaled = scaler_.transform(row);
  return cluster_labels_[nearest_cluster(scaled)];
}

void KMeansDetector::save(util::ByteWriter& w) const {
  scaler_.save(w);
  w.put_u64(centroids_.size());
  for (const auto& c : centroids_) w.put_f64_span(c);
  w.put_f64_span(proportions_);
  w.put_u64(cluster_labels_.size());
  for (const int l : cluster_labels_) w.put_u32(static_cast<std::uint32_t>(l));
}

void KMeansDetector::load(util::ByteReader& r) {
  scaler_.load(r);
  const std::uint64_t k = r.get_u64();
  centroids_.clear();
  centroids_.reserve(k);
  for (std::uint64_t c = 0; c < k; ++c) centroids_.push_back(r.get_f64_vector());
  proportions_ = r.get_f64_vector();
  const std::uint64_t labels = r.get_u64();
  cluster_labels_.clear();
  cluster_labels_.reserve(labels);
  for (std::uint64_t i = 0; i < labels; ++i) {
    cluster_labels_.push_back(static_cast<int>(r.get_u32()));
  }
  if (centroids_.size() != cluster_labels_.size()) {
    throw std::invalid_argument("KMeansDetector::load: inconsistent model file");
  }
  rebuild_flat();
}

std::uint64_t KMeansDetector::parameter_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& c : centroids_) bytes += c.size() * sizeof(double);
  bytes += proportions_.size() * sizeof(double);
  bytes += cluster_labels_.size() * sizeof(int);
  bytes += scaler_.mean().size() * 2 * sizeof(double);
  return bytes;
}

std::uint64_t KMeansDetector::inference_scratch_bytes() const {
  // One scaled copy of the input row.
  return scaler_.mean().size() * sizeof(double);
}

}  // namespace ddoshield::ml
