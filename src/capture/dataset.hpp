// Labelled packet dataset: in-memory store plus CSV export.
//
// A generation run fills a Dataset through the tap; the ML pipeline trains
// from it; EXPERIMENTS.md quotes its composition against the paper's
// 3,012,885 malicious / 2,243,634 benign packets.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "capture/packet_record.hpp"

namespace ddoshield::capture {

class Dataset {
 public:
  void add(const PacketRecord& record) { records_.push_back(record); }
  void reserve(std::size_t n) { records_.reserve(n); }
  void clear() { records_.clear(); }

  const std::vector<PacketRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  std::size_t malicious_count() const;
  std::size_t benign_count() const;
  /// malicious : benign ratio; returns 0 when there is no benign traffic.
  double balance_ratio() const;

  /// Packet counts per fine-grained origin, for composition reports.
  std::map<net::TrafficOrigin, std::size_t> origin_histogram() const;

  /// Writes header + rows; throws std::runtime_error on I/O failure.
  void save_csv(const std::string& path) const;

  std::string composition_summary() const;

 private:
  std::vector<PacketRecord> records_;
};

}  // namespace ddoshield::capture
