// Shared helpers for the experiment benches: each bench binary prints the
// table/series its paper artefact reports, then runs its google-benchmark
// timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/frmem_config.hpp"
#include "faultsim/lanes.hpp"
#include "memsys/workloads.hpp"
#include "obs/json.hpp"

namespace benchutil {

/// Cached flows for the two reference implementations (building them is
/// seconds of work; every bench reuses the same instances).
struct Frmem {
  socfmea::memsys::GateLevelDesign v1 =
      socfmea::memsys::buildProtectionIp(socfmea::memsys::GateLevelOptions::v1());
  socfmea::memsys::GateLevelDesign v2 =
      socfmea::memsys::buildProtectionIp(socfmea::memsys::GateLevelOptions::v2());
  socfmea::core::FmeaFlow flowV1{v1.nl, socfmea::core::makeFrmemFlowConfig(v1)};
  socfmea::core::FmeaFlow flowV2{v2.nl, socfmea::core::makeFrmemFlowConfig(v2)};
};

inline Frmem& frmem() {
  static Frmem f;
  return f;
}

inline socfmea::memsys::ProtectionIpWorkload::Options workloadOptions(
    std::uint64_t cycles = 2000) {
  socfmea::memsys::ProtectionIpWorkload::Options o;
  o.cycles = cycles;
  return o;
}

/// The host a measurement was taken on: hardware threads, the SIMD target
/// the bit-sliced engine resolves to at run time, and the CMake build type.
inline socfmea::obs::Json hostJson() {
  socfmea::obs::Json host = socfmea::obs::Json::object();
  const std::uint64_t cores = std::thread::hardware_concurrency();
  host["cores"] = socfmea::obs::Json(cores);
  host["simd"] = socfmea::obs::Json(socfmea::faultsim::simdTargetName());
  host["build"] = socfmea::obs::Json(SOCFMEA_BUILD_TYPE);
  return host;
}

inline void banner(const char* experiment, const char* paperArtefact) {
  std::cout << "\n================================================================\n"
            << "experiment " << experiment << " — " << paperArtefact << "\n"
            << "================================================================\n";
}

/// Flat JSON object written next to the bench binary (e.g.
/// BENCH_campaign.json) so CI can diff headline numbers across runs
/// without scraping stdout.  Backed by the shared obs::Json document
/// model: proper string escaping, exact integers, shortest-round-trip
/// doubles, insertion-ordered keys.
class JsonDump {
 public:
  explicit JsonDump(std::string path)
      : path_(std::move(path)), doc_(socfmea::obs::Json::object()) {}

  JsonDump& field(const std::string& key, double v) {
    doc_[key] = socfmea::obs::Json(v);
    return *this;
  }
  JsonDump& field(const std::string& key, std::uint64_t v) {
    doc_[key] = socfmea::obs::Json(v);
    return *this;
  }
  JsonDump& field(const std::string& key, bool v) {
    doc_[key] = socfmea::obs::Json(v);
    return *this;
  }
  JsonDump& field(const std::string& key, const std::string& v) {
    doc_[key] = socfmea::obs::Json(v);
    return *this;
  }
  // Without this overload a string literal would bind to the bool one.
  JsonDump& field(const std::string& key, const char* v) {
    doc_[key] = socfmea::obs::Json(v);
    return *this;
  }
  // Structured sub-documents (arrays of per-scenario objects etc.).
  JsonDump& field(const std::string& key, socfmea::obs::Json v) {
    doc_[key] = std::move(v);
    return *this;
  }

  /// Writes the accumulated fields; returns false (and warns) on IO error.
  bool write() const {
    std::ofstream out(path_);
    out << doc_.dump(2) << "\n";
    if (!out) {
      std::cerr << "warning: could not write " << path_ << "\n";
      return false;
    }
    std::cout << "wrote " << path_ << "\n";
    return true;
  }

 private:
  std::string path_;
  socfmea::obs::Json doc_;
};

/// Emits the table then runs the registered google-benchmark timings.
inline int runBench(int argc, char** argv, void (*printTable)()) {
  printTable();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace benchutil
