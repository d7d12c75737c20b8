// Model persistence — the paper's "save each model in a PKL file" step.
//
// A model file is:  magic "DDSM" | format version | model name | payload.
// load_model() reconstructs the right concrete classifier from the name.
// The on-disk size of this file is Table II's "Model Size (Kb)" metric.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.hpp"

namespace ddoshield::ml {

/// Serialises the classifier to the in-memory model-file format.
std::vector<std::uint8_t> serialize_model(const Classifier& model);

/// Reconstructs a classifier from bytes produced by serialize_model;
/// throws std::invalid_argument on bad magic/version/name.
std::unique_ptr<Classifier> deserialize_model(std::span<const std::uint8_t> bytes);

/// File convenience wrappers; throw std::runtime_error on I/O failure.
void save_model_file(const Classifier& model, const std::string& path);
std::unique_ptr<Classifier> load_model_file(const std::string& path);

/// Creates an untrained model by name ("rf", "kmeans", "cnn").
std::unique_ptr<Classifier> make_model(const std::string& name);

}  // namespace ddoshield::ml
