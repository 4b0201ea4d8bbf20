// Structural netlist analysis: depth, fanout, output cones and dead logic,
// constant propagation, and SAT-free exhaustive equivalence for small
// circuits. In the library only the attacks use it: their key miter
// (attack/detail.hpp) burns each observed input word into the locked
// netlist with specialize() and folds the constants with simplify() before
// encoding. The statistics and the equivalence check serve the tests.
#pragma once

#include <vector>

#include "circuit/netlist.hpp"

namespace pitfalls::circuit {

struct NetlistStats {
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t logic_gates = 0;
  std::size_t depth = 0;          // longest input->output path (gate count)
  std::size_t max_fanout = 0;
  std::size_t dead_gates = 0;     // logic gates outside every output cone
};

NetlistStats analyze(const Netlist& netlist);

/// Logic depth of each gate (inputs/constants are depth 0).
std::vector<std::size_t> gate_depths(const Netlist& netlist);

/// Fanout count of each gate.
std::vector<std::size_t> fanouts(const Netlist& netlist);

/// True for every gate inside the transitive fanin cone of some output.
std::vector<bool> output_cone(const Netlist& netlist);

/// Rebuild the netlist with constant gates propagated and dead logic
/// removed. Inputs are always preserved (same count and order); outputs
/// keep their order. The result computes the same function.
Netlist simplify(const Netlist& netlist);

/// Exhaustive equivalence check (inputs <= 20): same input/output arity
/// and identical outputs on every input pattern.
bool equivalent_exhaustive(const Netlist& a, const Netlist& b);

/// Burn constants into inputs: the pinned inputs (by position in
/// netlist.inputs()) become constant gates and disappear from the input
/// list; remaining inputs keep their relative order. Combined with
/// simplify(), this turns a locked netlist plus its correct key into the
/// vendor's "activated" circuit.
Netlist specialize(const Netlist& netlist,
                   const std::vector<std::pair<std::size_t, bool>>& pins);

}  // namespace pitfalls::circuit
