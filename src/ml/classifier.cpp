#include "ml/classifier.hpp"

#include "obs/metrics.hpp"

namespace ddoshield::ml {

void Classifier::score_batch(const DesignMatrix& x, Verdicts& out) const {
  out.clear();
  out.reserve(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out.push_back(predict(x.row(i)));
}

bool Classifier::incremental_update(const DesignMatrix& /*x*/, const std::vector<int>& /*y*/,
                                    util::Rng& /*rng*/) {
  return false;  // no incremental path; lifecycle counts this as a no-op retrain
}

void Classifier::adopt_deployment(const Classifier& /*reference*/) {}

std::vector<int> Classifier::predict_batch(const DesignMatrix& x) const {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("ml." + name() + ".predict_batch_rows").inc(x.rows());
  obs::ScopedTimer timer{reg.histogram("ml." + name() + ".predict_batch_ns")};
  Verdicts out;
  score_batch(x, out);
  return out;
}

}  // namespace ddoshield::ml
