#include "testkit/seed.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace socfmea::testkit {

bool envSeed(std::uint64_t* out) {
  const char* raw = std::getenv("SOCFMEA_TEST_SEED");
  if (raw == nullptr || *raw == '\0') return false;
  // from_chars takes no sign, whitespace or base prefix, so "-1", " 1" and
  // "1x" all stop short of the end; "0x" is stripped here for hex.
  std::string_view digits(raw);
  int base = 10;
  if (digits.size() > 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
    base = 16;
  }
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v, base);
  if (ec != std::errc() || end != digits.data() + digits.size()) {
    throw std::invalid_argument(
        std::string("SOCFMEA_TEST_SEED='") + raw +
        "' is not an unsigned 64-bit integer (decimal or 0x hex)");
  }
  if (out != nullptr) *out = v;
  return true;
}

std::uint64_t derivedSeed(std::uint64_t base, std::uint64_t index) noexcept {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t testSeed(std::uint64_t fallback) {
  std::uint64_t campaign = 0;
  if (!envSeed(&campaign)) return fallback;
  return derivedSeed(campaign, fallback);
}

std::string seedMessage(std::uint64_t seed) {
  std::uint64_t campaign = 0;
  std::string msg = "seed " + std::to_string(seed);
  if (envSeed(&campaign)) {
    msg += " (campaign SOCFMEA_TEST_SEED=" + std::to_string(campaign) + ")";
  } else {
    msg += " (override the campaign with SOCFMEA_TEST_SEED=<n>)";
  }
  return msg;
}

}  // namespace socfmea::testkit
