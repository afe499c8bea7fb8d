// The retired campaign-tier names.  Every campaign simulates each distinct
// fault once at gate level (InjectionManager::run), so no tier changes the
// work or a record; cpu_mitigation_flow still accepts --tier exact | abstract
// | auto, and refuses any other value, so that scripts written against the
// old flag keep running.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace socfmea::inject {

enum class TierMode : std::uint8_t { Exact, Abstract, Auto };

[[nodiscard]] constexpr std::string_view tierModeName(TierMode m) noexcept {
  switch (m) {
    case TierMode::Exact: return "exact";
    case TierMode::Abstract: return "abstract";
    case TierMode::Auto: return "auto";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<TierMode> tierModeFromName(
    std::string_view n) noexcept {
  if (n == "exact") return TierMode::Exact;
  if (n == "abstract") return TierMode::Abstract;
  if (n == "auto") return TierMode::Auto;
  return std::nullopt;
}

}  // namespace socfmea::inject
