// Wire protocol of the distributed campaign layer: line-delimited compact
// JSON messages (obs/json documents, one per line) over plain POSIX pipes.
// The coordinator writes job / work / quit messages to a worker's stdin and
// reads hello / hb / verdicts / error messages from its stdout; both ends
// share this framing.  Messages are self-describing ("type" member), so
// either side can skip unknown types, which keeps the protocol forward-
// compatible across mixed-version coordinator/worker binaries.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace socfmea::serve {

/// Serializes a message as one compact JSON line (trailing '\n' included).
[[nodiscard]] std::string packMessage(const obs::Json& m);

/// Parses one line into a message; nullopt unless it is a JSON object with
/// a string "type" member (a torn or corrupt line is dropped, not fatal —
/// the heartbeat timeout catches a peer that stops making sense entirely).
[[nodiscard]] std::optional<obs::Json> parseMessage(std::string_view line);

/// Blocking write of one framed message; false on EPIPE / fatal error.
[[nodiscard]] bool writeMessage(int fd, const obs::Json& m);

/// Incremental line splitter over a pipe fd.  Works with blocking fds (the
/// worker side: one read per call) and non-blocking fds (the coordinator
/// side: call until WouldBlock to drain).
class LineReader {
 public:
  enum class Status {
    Data,        ///< at least one read succeeded (lines may still be empty)
    WouldBlock,  ///< non-blocking fd has nothing buffered
    Eof,         ///< peer closed (or unrecoverable read error)
  };

  /// Reads once and appends any completed lines (without '\n') to `lines`.
  [[nodiscard]] Status poll(int fd, std::vector<std::string>& lines);

 private:
  std::string buf_;
};

// Tolerant field accessors shared by the job/worker message parsers:
// a missing or mistyped member yields the default instead of throwing, so a
// malformed request degrades to an error reply, not a dead process.
[[nodiscard]] std::string msgString(const obs::Json& m, std::string_view key,
                                    std::string_view def = "");
[[nodiscard]] std::int64_t msgInt(const obs::Json& m, std::string_view key,
                                  std::int64_t def = 0);
[[nodiscard]] bool msgBool(const obs::Json& m, std::string_view key,
                           bool def = false);

}  // namespace socfmea::serve
