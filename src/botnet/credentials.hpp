// Mirai-style factory-default credential dictionary.
//
// Mirai's scanner carried a list of ~60 vendor default telnet logins and
// brute-forced them against every host answering on 23/2323. We embed a
// representative subset (all long-public, e.g. from the leaked Mirai
// source and CVE advisories) and model per-device vulnerability as "which
// dictionary entry (if any) this device still has configured".
#pragma once

#include <cstddef>
#include <string>

namespace ddoshield::botnet {

struct Credential {
  std::string user;
  std::string pass;

  bool operator==(const Credential&) const = default;
};

/// The scanner's dictionary entry at `index`, in the weighted order Mirai
/// tried them (throws std::out_of_range past the end). Device profiles
/// reference entries by index so scenarios stay readable.
const Credential& credential_at(std::size_t index);

std::size_t credential_dictionary_size();

}  // namespace ddoshield::botnet
