#include "serve/job.hpp"

namespace socfmea::serve {

bool applyProtectionEdit(std::string_view edit, memsys::GateLevelOptions& o) {
  if (edit == "none") return true;
  if (edit == "wbuf-parity") {
    o.wbufParity = true;
  } else if (edit == "post-coder") {
    o.postCoderChecker = true;
  } else if (edit == "redundant-checker") {
    o.redundantChecker = true;
  } else if (edit == "addr-in-code") {
    o.addressInCode = true;
  } else if (edit == "v2") {
    o = memsys::GateLevelOptions::v2();
  } else {
    return false;
  }
  return true;
}

}  // namespace socfmea::serve
