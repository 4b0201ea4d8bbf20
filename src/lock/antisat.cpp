#include "lock/antisat.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::lock {

using circuit::Gate;
using circuit::GateType;

LockedCircuit lock_antisat(const Netlist& original, std::size_t width,
                           support::Rng& rng) {
  PITFALLS_REQUIRE(width >= 1, "need at least one guarded input");
  PITFALLS_REQUIRE(width <= original.num_inputs(),
                   "Anti-SAT width exceeds the data inputs");
  PITFALLS_REQUIRE(original.num_outputs() >= 1, "need an output to protect");

  const obs::TraceSpan lock_span("lock.antisat");
  LockedCircuit out;
  std::vector<std::size_t> remap(original.num_gates());
  for (std::size_t id = 0; id < original.num_gates(); ++id) {
    const Gate& g = original.gate(id);
    if (g.type == GateType::kInput) {
      const std::size_t copy = out.netlist.add_input(g.name);
      out.data_input_positions.push_back(out.netlist.input_index(copy));
      remap[id] = copy;
    } else {
      std::vector<std::size_t> fanins;
      for (auto f : g.fanins) fanins.push_back(remap[f]);
      remap[id] = out.netlist.add_gate(g.type, std::move(fanins), g.name);
    }
  }

  // Key inputs: KA then KB; the correct key sets KA == KB (random pattern).
  BitVec pattern(width);
  rng.fill_coins(pattern);
  std::vector<std::size_t> ka(width);
  std::vector<std::size_t> kb(width);
  out.correct_key = BitVec(2 * width);
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t gate = out.netlist.add_input("ka" + std::to_string(i));
    ka[i] = gate;
    out.key_input_positions.push_back(out.netlist.input_index(gate));
    out.correct_key.set(i, pattern.get(i));
  }
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t gate = out.netlist.add_input("kb" + std::to_string(i));
    kb[i] = gate;
    out.key_input_positions.push_back(out.netlist.input_index(gate));
    out.correct_key.set(width + i, pattern.get(i));
  }

  // g = AND_i XNOR(x_i, KA_i); gb = NAND_i XNOR(x_i, KB_i).
  const auto& inputs = out.netlist.inputs();
  auto build_tree = [&](const std::vector<std::size_t>& keys, bool nand) {
    std::vector<std::size_t> eqs(width);
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t data_gate = inputs[out.data_input_positions[i]];
      eqs[i] = out.netlist.add_gate(GateType::kXnor, {data_gate, keys[i]});
    }
    if (width == 1)
      return nand ? out.netlist.add_gate(GateType::kNot, {eqs[0]})
                  : out.netlist.add_gate(GateType::kBuf, {eqs[0]});
    return out.netlist.add_gate(nand ? GateType::kNand : GateType::kAnd,
                                std::move(eqs));
  };
  const std::size_t g = build_tree(ka, false);
  const std::size_t gb = build_tree(kb, true);
  const std::size_t flip = out.netlist.add_gate(GateType::kAnd, {g, gb});

  const auto& base_outputs = original.outputs();
  const std::size_t protected_out =
      out.netlist.add_gate(GateType::kXor, {remap[base_outputs[0]], flip});
  out.netlist.mark_output(protected_out);
  for (std::size_t o = 1; o < base_outputs.size(); ++o)
    out.netlist.mark_output(remap[base_outputs[o]]);
  obs::MetricsRegistry::global()
      .counter("lock.antisat.block_gates")
      .add(out.netlist.num_gates() - original.num_gates() - 2 * width);
  return out;
}

}  // namespace pitfalls::lock
