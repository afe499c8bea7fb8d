// Cone traversals.  The sensible-zone theory of the paper is built on the
// *input logic cone* of a zone (all combinational gates whose faults converge
// into the zone) and the *output cone* (through which a zone failure migrates
// to other zones and observation points).
#pragma once

#include <vector>

#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"

namespace socfmea::netlist {

/// A fan-in cone: the combinational gates feeding a set of root nets, stopping
/// at sequential elements, primary inputs and memory read ports.
struct Cone {
  std::vector<CellId> gates;       ///< combinational cells in the cone
  std::vector<CellId> supportFfs;  ///< flip-flops on the cone boundary
  std::vector<CellId> supportPis;  ///< primary inputs on the boundary
  std::vector<MemoryId> supportMems;  ///< memories whose rdata feeds the cone
  std::vector<NetId> nets;         ///< nets internal to / feeding the cone
};

/// Computes the fan-in cone of `roots` (net ids).
[[nodiscard]] Cone faninCone(const Netlist& nl, const std::vector<NetId>& roots);

/// CSR form of the walk above (identical result).  The cone algorithms keep
/// both entry points: the Netlist form for standalone callers, the compiled
/// form for campaign layers that already share a CompiledDesign.
[[nodiscard]] Cone faninCone(const CompiledDesign& cd,
                             const std::vector<NetId>& roots);

/// Computes the set of cells reachable *forward* from `srcNets` through
/// combinational logic, crossing flip-flops transparently when
/// `throughRegisters` is true (i.e. multi-cycle reachability) and crossing
/// behavioural memories (a corrupted write resurfaces on the read port) when
/// `throughMemories` is true.  Returns cell ids of every reached cell
/// including flip-flops and output ports.
[[nodiscard]] std::vector<CellId> forwardReach(const Netlist& nl,
                                               const std::vector<NetId>& srcNets,
                                               bool throughRegisters,
                                               bool throughMemories = false);

/// CSR form of forwardReach (identical result); the memory write-port map
/// is precomputed in the CompiledDesign instead of rebuilt per call.
[[nodiscard]] std::vector<CellId> forwardReach(const CompiledDesign& cd,
                                               const std::vector<NetId>& srcNets,
                                               bool throughRegisters,
                                               bool throughMemories = false);

/// Flag form of the forward closure over the compiled CSR adjacency: every
/// net, cell and memory whose value can be perturbed by a disturbance on the
/// seeds, crossing flip-flops and memory write ports — the incremental
/// flow's affected-cone "D" set (netlist/diff).  It shares one walker with
/// the CSR forwardReach above.
struct ForwardReach {
  std::vector<char> net;   ///< indexed by NetId
  std::vector<char> cell;  ///< indexed by CellId
  std::vector<char> mem;   ///< indexed by MemoryId

  [[nodiscard]] bool netReached(NetId n) const {
    return n != kNoNet && n < net.size() && net[n] != 0;
  }
  [[nodiscard]] bool cellReached(CellId c) const {
    return c != kNoCell && c < cell.size() && cell[c] != 0;
  }
  [[nodiscard]] bool memReached(MemoryId m) const {
    return m < mem.size() && mem[m] != 0;
  }
};

[[nodiscard]] ForwardReach forwardReach(const CompiledDesign& cd,
                                        const std::vector<NetId>& seeds);

}  // namespace socfmea::netlist
