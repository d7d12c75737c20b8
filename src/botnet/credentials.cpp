#include "botnet/credentials.hpp"

#include <stdexcept>
#include <vector>

namespace ddoshield::botnet {

namespace {

const std::vector<Credential>& dictionary() {
  static const std::vector<Credential> kDict = {
      {"root", "xc3511"},    {"root", "vizxv"},     {"root", "admin"},
      {"admin", "admin"},    {"root", "888888"},    {"root", "xmhdipc"},
      {"root", "default"},   {"root", "juantech"},  {"root", "123456"},
      {"root", "54321"},     {"support", "support"},{"root", ""},
      {"admin", "password"}, {"root", "root"},      {"root", "12345"},
      {"user", "user"},      {"admin", ""},         {"root", "pass"},
      {"admin", "admin1234"},{"root", "1111"},      {"admin", "smcadmin"},
      {"admin", "1111"},     {"root", "666666"},    {"root", "password"},
      {"root", "1234"},      {"root", "klv123"},    {"Administrator", "admin"},
      {"service", "service"},{"supervisor", "supervisor"}, {"guest", "guest"},
      {"guest", "12345"},    {"admin1", "password"},{"administrator", "1234"},
      {"666666", "666666"},  {"888888", "888888"},  {"ubnt", "ubnt"},
      {"root", "klv1234"},   {"root", "Zte521"},    {"root", "hi3518"},
      {"root", "jvbzd"},     {"root", "anko"},      {"root", "zlxx."},
      {"root", "7ujMko0vizxv"}, {"root", "7ujMko0admin"}, {"root", "system"},
      {"root", "ikwb"},      {"root", "dreambox"},  {"root", "user"},
      {"root", "realtek"},   {"root", "00000000"},  {"admin", "1111111"},
      {"admin", "1234"},     {"admin", "12345"},    {"admin", "54321"},
      {"admin", "123456"},   {"admin", "7ujMko0admin"}, {"admin", "meinsm"},
      {"tech", "tech"},      {"mother", "fucker"},
  };
  return kDict;
}

}  // namespace

const Credential& credential_at(std::size_t index) {
  const auto& d = dictionary();
  if (index >= d.size()) {
    throw std::out_of_range("credential_at: index past dictionary end");
  }
  return d[index];
}

std::size_t credential_dictionary_size() { return dictionary().size(); }

}  // namespace ddoshield::botnet
