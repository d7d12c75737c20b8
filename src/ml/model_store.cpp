#include "ml/model_store.hpp"

#include <fstream>
#include <stdexcept>

#include "ml/cnn.hpp"
#include "ml/kmeans.hpp"
#include "ml/isolation_forest.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "util/byte_buffer.hpp"

namespace ddoshield::ml {

namespace {
constexpr std::uint32_t kMagic = 0x4D534444;           // "DDSM" little-endian
constexpr std::uint32_t kVersion = 1;
}  // namespace

std::vector<std::uint8_t> serialize_model(const Classifier& model) {
  util::ByteWriter w;
  w.put_u32(kMagic);
  w.put_u32(kVersion);
  w.put_string(model.name());
  model.save(w);
  return w.take();
}

std::unique_ptr<Classifier> deserialize_model(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  if (r.get_u32() != kMagic) {
    throw std::invalid_argument("deserialize_model: bad magic");
  }
  if (r.get_u32() != kVersion) {
    throw std::invalid_argument("deserialize_model: unsupported version");
  }
  auto model = make_model(r.get_string());
  model->load(r);
  return model;
}

void save_model_file(const Classifier& model, const std::string& path) {
  const auto bytes = serialize_model(model);
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error("save_model_file: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("save_model_file: write failed for " + path);
}

std::unique_ptr<Classifier> load_model_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("load_model_file: cannot open " + path);
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>{in},
                                  std::istreambuf_iterator<char>{}};
  return deserialize_model(bytes);
}

std::unique_ptr<Classifier> make_model(const std::string& name) {
  if (name == "rf") return std::make_unique<RandomForest>();
  if (name == "kmeans") return std::make_unique<KMeansDetector>();
  if (name == "cnn") return std::make_unique<Cnn1D>();
  if (name == "svm") return std::make_unique<LinearSvm>();
  if (name == "iforest") return std::make_unique<IsolationForest>();
  throw std::invalid_argument("make_model: unknown model '" + name + "'");
}

}  // namespace ddoshield::ml
