#include "circuit/generator.hpp"

#include "circuit/bench_io.hpp"
#include "support/require.hpp"

namespace pitfalls::circuit {

Netlist c17() {
  // Canonical ISCAS-85 c17 netlist.
  static const char* kText = R"(
# c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";
  return read_bench(kText);
}

Netlist random_circuit(const RandomCircuitConfig& config, support::Rng& rng) {
  PITFALLS_REQUIRE(config.inputs >= 2, "need at least two inputs");
  PITFALLS_REQUIRE(config.gates >= 1, "need at least one gate");
  PITFALLS_REQUIRE(config.outputs >= 1 && config.outputs <= config.gates,
                   "output count out of range");

  Netlist netlist;
  for (std::size_t i = 0; i < config.inputs; ++i)
    netlist.add_input("in" + std::to_string(i));

  static const GateType kTypes[] = {GateType::kAnd,  GateType::kOr,
                                    GateType::kNand, GateType::kNor,
                                    GateType::kXor,  GateType::kXnor,
                                    GateType::kNot};
  auto pick_fanin = [&](std::size_t upper_bound) {
    // With probability 0.7 pick among the most recent half, which keeps
    // the depth reasonable.
    if (rng.bernoulli(0.7) && upper_bound > 2) {
      const std::size_t half = upper_bound / 2;
      return half + static_cast<std::size_t>(
                        rng.uniform_below(upper_bound - half));
    }
    return static_cast<std::size_t>(rng.uniform_below(upper_bound));
  };

  for (std::size_t g = 0; g < config.gates; ++g) {
    const GateType type =
        kTypes[rng.uniform_below(sizeof(kTypes) / sizeof(kTypes[0]))];
    const std::size_t bound = netlist.num_gates();
    std::vector<std::size_t> fanins;
    if (type == GateType::kNot) {
      fanins.push_back(pick_fanin(bound));
    } else {
      // Two fanins per gate. The draw of an arity in [2, 2] is one engine
      // step; it stays so every circuit drawn so far stays the same.
      (void)rng.uniform_below(1);
      while (fanins.size() < 2) {
        const std::size_t candidate = pick_fanin(bound);
        bool duplicate = false;
        for (auto f : fanins) duplicate = duplicate || (f == candidate);
        if (!duplicate) fanins.push_back(candidate);
      }
    }
    netlist.add_gate(type, std::move(fanins));
  }

  // Outputs come from the tail so their cones span the circuit.
  const std::size_t first = netlist.num_gates() - config.outputs;
  for (std::size_t i = 0; i < config.outputs; ++i)
    netlist.mark_output(first + i);
  return netlist;
}

Netlist ripple_carry_adder(std::size_t width) {
  PITFALLS_REQUIRE(width >= 1, "adder width must be >= 1");
  Netlist netlist;
  std::vector<std::size_t> a(width);
  std::vector<std::size_t> b(width);
  for (std::size_t i = 0; i < width; ++i)
    a[i] = netlist.add_input("a" + std::to_string(i));
  for (std::size_t i = 0; i < width; ++i)
    b[i] = netlist.add_input("b" + std::to_string(i));

  std::size_t carry = SIZE_MAX;
  std::vector<std::size_t> sums(width);
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t axb =
        netlist.add_gate(GateType::kXor, {a[i], b[i]});
    const std::size_t aandb =
        netlist.add_gate(GateType::kAnd, {a[i], b[i]});
    if (carry == SIZE_MAX) {
      sums[i] = axb;
      carry = aandb;
    } else {
      sums[i] = netlist.add_gate(GateType::kXor, {axb, carry});
      const std::size_t axb_and_c =
          netlist.add_gate(GateType::kAnd, {axb, carry});
      carry = netlist.add_gate(GateType::kOr, {aandb, axb_and_c});
    }
  }
  for (std::size_t i = 0; i < width; ++i) netlist.mark_output(sums[i]);
  netlist.mark_output(carry);
  return netlist;
}

Netlist equality_comparator(std::size_t width) {
  PITFALLS_REQUIRE(width >= 1, "comparator width must be >= 1");
  Netlist netlist;
  std::vector<std::size_t> a(width);
  std::vector<std::size_t> b(width);
  for (std::size_t i = 0; i < width; ++i)
    a[i] = netlist.add_input("a" + std::to_string(i));
  for (std::size_t i = 0; i < width; ++i)
    b[i] = netlist.add_input("b" + std::to_string(i));

  std::vector<std::size_t> eq_bits(width);
  for (std::size_t i = 0; i < width; ++i)
    eq_bits[i] = netlist.add_gate(GateType::kXnor, {a[i], b[i]});
  std::size_t acc = eq_bits[0];
  for (std::size_t i = 1; i < width; ++i)
    acc = netlist.add_gate(GateType::kAnd, {acc, eq_bits[i]});
  if (width == 1) acc = netlist.add_gate(GateType::kBuf, {acc});
  netlist.mark_output(acc);
  return netlist;
}

}  // namespace pitfalls::circuit
