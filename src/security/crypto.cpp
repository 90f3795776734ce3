#include "security/crypto.hpp"

#include <cstdio>
#include <map>
#include <mutex>

#include "common/strings.hpp"

namespace jamm::security {
namespace {

std::mutex g_keys_mu;
std::map<std::string, std::string>& KeyRegistry() {
  static std::map<std::string, std::string> registry;  // public → private
  return registry;
}

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string Digest(std::string_view data) { return Hex(Fnv1a(data)); }

KeyPair GenerateKeyPair(Rng& rng) {
  KeyPair pair;
  pair.private_key = "prv-" + Hex(rng.Next()) + Hex(rng.Next());
  pair.public_key = "pub-" + Digest(pair.private_key);
  std::lock_guard lock(g_keys_mu);
  KeyRegistry()[pair.public_key] = pair.private_key;
  return pair;
}

std::string Sign(const std::string& private_key, std::string_view message) {
  return Digest(private_key + "|" + std::string(message));
}

bool Verify(const std::string& public_key, std::string_view message,
            std::string_view signature) {
  std::string private_key;
  {
    std::lock_guard lock(g_keys_mu);
    auto it = KeyRegistry().find(public_key);
    if (it == KeyRegistry().end()) return false;
    private_key = it->second;
  }
  return Sign(private_key, message) == signature;
}

void ResetKeyRegistryForTest() {
  std::lock_guard lock(g_keys_mu);
  KeyRegistry().clear();
}

}  // namespace jamm::security
