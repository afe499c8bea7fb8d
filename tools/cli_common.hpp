// Shared CLI surface of the campaign tools.  memsys_sil3_flow,
// injection_campaign, fuzz_diff and arch_search all grew the same iteration
// flags (--json / --cache-dir / --engine) with the same exit-2 usage
// convention; this is the one spelling of that parsing.
//
// The functions are pure (no printing, no exit()) so the unit tests can
// drive them with synthetic argv arrays: a parse error comes back as a
// message for the caller to print before returning 2.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/artifact_store.hpp"
#include "faultsim/serial.hpp"

namespace socfmea::cli {

/// The iteration flags every campaign CLI shares.
struct CommonFlags {
  const char* jsonPath = nullptr;  ///< --json <path>
  const char* cacheDir = nullptr;  ///< --cache-dir <dir>
  faultsim::EngineKind engine = faultsim::EngineKind::Serial;
  bool engineSet = false;

  /// A shared flag that only the incremental / store-backed mode honours
  /// was given (the tools use this to switch into that mode).  --json and
  /// --engine apply to either mode, so neither counts.
  [[nodiscard]] bool anyIterationFlag() const noexcept {
    return cacheDir != nullptr;
  }
};

enum class FlagStatus {
  Consumed,  ///< argv[i] (and its value) belonged to the shared surface
  NotMine,   ///< not a shared flag: the caller's own parsing takes over
  Error,     ///< shared flag with a bad / missing value; see `error`
};

/// Tries to parse argv[i] as one of the shared flags, advancing `i` past
/// any consumed value.  On Error, `error` carries the diagnostic (print it
/// and return 2).
[[nodiscard]] FlagStatus parseCommonFlag(int argc, char* const* argv, int& i,
                                         CommonFlags& out,
                                         std::string& error);

/// Usage text for the shared flags: "[--json <path>] ..." on one line, then
/// one indented description line per flag.  Callers append their own flags.
[[nodiscard]] const std::string& commonUsageSynopsis();
[[nodiscard]] const std::string& commonUsageDetails();

/// Opens the artifact store behind --cache-dir (validateDir + construct).
/// Holds nullptr when the flag was absent; std::nullopt (with `error` set)
/// when the directory is unusable.
[[nodiscard]] std::optional<std::unique_ptr<core::ArtifactStore>> openStore(
    const CommonFlags& flags, std::string& error);

/// Strict unsigned / non-negative-fraction value parsers (whole-string,
/// base 10) shared by the tools' own flags (--max-resim, --threads, ...).
/// parseUnsigned64 takes the full 64-bit range (seeds).
[[nodiscard]] bool parseUnsigned(const char* s, unsigned& out);
[[nodiscard]] bool parseUnsigned64(const char* s, std::uint64_t& out);
[[nodiscard]] bool parseFraction(const char* s, double& out);

}  // namespace socfmea::cli
