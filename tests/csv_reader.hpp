// Test oracle: reads back what capture::Dataset::save_csv writes. No
// production code loads a CSV capture; the integration suite reloads one
// to prove that retraining from the export reproduces the model.
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "capture/dataset.hpp"
#include "capture/packet_record.hpp"

namespace ddoshield::test_oracle {

/// Parses one row of PacketRecord::to_csv(); throws std::invalid_argument
/// unless it holds exactly twelve unsigned integers.
inline capture::PacketRecord parse_csv_row(const std::string& line) {
  std::vector<std::uint64_t> fields;
  std::istringstream is{line};
  std::string cell;
  while (std::getline(is, cell, ',')) {
    try {
      fields.push_back(std::stoull(cell));
    } catch (const std::exception&) {
      throw std::invalid_argument("parse_csv_row: bad cell '" + cell + "'");
    }
  }
  if (fields.size() != 12) throw std::invalid_argument("parse_csv_row: expected 12 fields");
  capture::PacketRecord r;
  r.timestamp = util::SimTime::nanos(static_cast<std::int64_t>(fields[0]));
  r.src_addr = static_cast<std::uint32_t>(fields[1]);
  r.dst_addr = static_cast<std::uint32_t>(fields[2]);
  r.src_port = static_cast<std::uint16_t>(fields[3]);
  r.dst_port = static_cast<std::uint16_t>(fields[4]);
  r.protocol = static_cast<std::uint8_t>(fields[5]);
  r.tcp_flags = static_cast<std::uint8_t>(fields[6]);
  r.seq = static_cast<std::uint32_t>(fields[7]);
  r.payload_bytes = static_cast<std::uint32_t>(fields[8]);
  r.wire_bytes = static_cast<std::uint32_t>(fields[9]);
  r.label = static_cast<net::TrafficClass>(fields[10]);
  r.origin = static_cast<net::TrafficOrigin>(fields[11]);
  return r;
}

/// Loads a file written by Dataset::save_csv; throws std::runtime_error
/// when it cannot be opened or its header is not csv_header().
inline capture::Dataset load_csv(const std::string& path) {
  std::ifstream in{path};
  std::string line;
  if (!in || !std::getline(in, line) || line != capture::PacketRecord::csv_header()) {
    throw std::runtime_error("load_csv: unreadable capture " + path);
  }
  capture::Dataset ds;
  while (std::getline(in, line)) {
    if (!line.empty()) ds.add(parse_csv_row(line));
  }
  return ds;
}

}  // namespace ddoshield::test_oracle
