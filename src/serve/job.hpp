// The Section-6 architectural measures by name: the one spelling the flow
// CLIs' --edit flag and the benchmark's traced replay share.
#pragma once

#include <string_view>

#include "memsys/gatelevel.hpp"

namespace socfmea::serve {

/// Applies one Section-6 architectural measure name to the v1 baseline
/// options ("none", "wbuf-parity", "post-coder", "redundant-checker",
/// "addr-in-code", "v2"); false on an unknown name.
[[nodiscard]] bool applyProtectionEdit(std::string_view edit,
                                       memsys::GateLevelOptions& o);

}  // namespace socfmea::serve
