// Benchmark-circuit sources: the ISCAS-85 c17 reference netlist, parametric
// random DAG circuits, and a few structured generators (adders, comparators)
// used as locking targets in the SAT-attack experiments.
#pragma once

#include "circuit/netlist.hpp"
#include "support/rng.hpp"

namespace pitfalls::circuit {

/// The ISCAS-85 c17 benchmark: 5 inputs, 2 outputs, 6 NAND gates.
Netlist c17();

struct RandomCircuitConfig {
  std::size_t inputs = 8;
  std::size_t gates = 32;       // logic gates to add
  std::size_t outputs = 1;      // sampled from the last gates
};

/// Random combinational DAG of one- and two-input gates, biased toward
/// recent gates as fanins; every output is a late gate so the cone is
/// non-trivial.
Netlist random_circuit(const RandomCircuitConfig& config, support::Rng& rng);

/// Ripple-carry adder: two `width`-bit operands -> width+1 outputs.
Netlist ripple_carry_adder(std::size_t width);

/// Equality comparator: two `width`-bit operands -> 1 output (a == b).
Netlist equality_comparator(std::size_t width);

}  // namespace pitfalls::circuit
