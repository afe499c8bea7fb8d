// The fault universe.  Covers the physical HW fault classes the paper's
// FMEA maps onto sensible zones: permanent stuck-at and bridging faults in
// logic cones, transient SEU (flip-flop state flip) and SET (gate-output
// pulse) faults, delay faults (stale sampling), and the IEC 61508 variable-
// memory fault models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace socfmea::fault {

enum class FaultKind : std::uint8_t {
  StuckAt0,     ///< net permanently 0
  StuckAt1,     ///< net permanently 1
  SeuFlip,      ///< single-event upset: FF state inverted at `cycle`
  SetPulse,     ///< single-event transient: net inverted during `cycle`
  BridgeAnd,    ///< wired-AND short between net and net2
  BridgeOr,     ///< wired-OR short between net and net2
  DelayStale,   ///< FF samples the previous cycle's D value (timing fault)
  MemStuckBit,  ///< memory cell bit stuck (DC fault model, data)
  MemAddrNone,  ///< address decoder: cell never selected
  MemAddrWrong, ///< address decoder: wrong cell selected
  MemAddrMulti, ///< address decoder: multiple cells selected
  MemCoupling,  ///< dynamic cross-over between two cells
  MemSoftError, ///< soft error: stored bit flips at `cycle`
  MultiSeu,     ///< multi-bit SEU: every FF in `cells` flips at `cycle`
};

[[nodiscard]] std::string_view faultKindName(FaultKind k) noexcept;

/// True for faults that exist only at one instant (SEU / SET / soft error).
[[nodiscard]] bool isTransient(FaultKind k) noexcept;

/// One fault instance.
struct Fault {
  FaultKind kind = FaultKind::StuckAt0;

  netlist::NetId net = netlist::kNoNet;    ///< target net (stuck-at, SET, bridge)
  netlist::NetId net2 = netlist::kNoNet;   ///< bridge partner
  netlist::CellId cell = netlist::kNoCell; ///< target FF (SEU, delay); site
                                           ///< cell of a stuck-at when known
  netlist::MemoryId mem = 0;               ///< memory instance for Mem* kinds
  std::uint64_t addr = 0;                  ///< memory address
  std::uint64_t addr2 = 0;                 ///< alias / victim address
  std::uint32_t bit = 0;                   ///< memory bit / victim bit
  bool stuckValue = false;                 ///< MemStuckBit value
  std::uint64_t cycle = 0;                 ///< injection cycle for transients
  /// MultiSeu only: the FF group flipped together at `cycle` (sorted,
  /// deduplicated); empty for every other kind.
  std::vector<netlist::CellId> cells;

  [[nodiscard]] bool transient() const noexcept { return isTransient(kind); }
  /// Human-readable description, e.g. "sa1 net u_dec/syn_o$3".
  [[nodiscard]] std::string describe(const netlist::Netlist& nl) const;
};

/// Orders faults deterministically (for stable campaign ordering).
[[nodiscard]] bool operator<(const Fault& a, const Fault& b) noexcept;
[[nodiscard]] bool operator==(const Fault& a, const Fault& b) noexcept;

}  // namespace socfmea::fault
