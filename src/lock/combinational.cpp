#include "lock/combinational.hpp"

#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::lock {

using circuit::Gate;
using circuit::GateType;

BitVec LockedCircuit::assemble_inputs(const BitVec& data,
                                      const BitVec& key) const {
  PITFALLS_REQUIRE(data.size() == data_input_positions.size(),
                   "data word arity mismatch");
  PITFALLS_REQUIRE(key.size() == key_input_positions.size(),
                   "key arity mismatch");
  BitVec full(netlist.num_inputs());
  for (std::size_t i = 0; i < data.size(); ++i)
    full.set(data_input_positions[i], data.get(i));
  for (std::size_t i = 0; i < key.size(); ++i)
    full.set(key_input_positions[i], key.get(i));
  return full;
}

BitVec LockedCircuit::evaluate(const BitVec& data, const BitVec& key) const {
  return netlist.evaluate(assemble_inputs(data, key));
}

namespace {

// Lockable gates: non-input, non-constant, AND inside the transitive fanin
// cone of at least one primary output — keying dead logic would leave the
// key bits functionally irrelevant.
std::vector<std::size_t> lockable_gates(const Netlist& netlist) {
  std::vector<bool> in_cone(netlist.num_gates(), false);
  std::vector<std::size_t> stack(netlist.outputs().begin(),
                                 netlist.outputs().end());
  for (auto id : stack) in_cone[id] = true;
  while (!stack.empty()) {
    const std::size_t id = stack.back();
    stack.pop_back();
    for (auto fanin : netlist.gate(id).fanins)
      if (!in_cone[fanin]) {
        in_cone[fanin] = true;
        stack.push_back(fanin);
      }
  }
  std::vector<std::size_t> lockable;
  for (std::size_t id = 0; id < netlist.num_gates(); ++id) {
    const GateType t = netlist.gate(id).type;
    if (in_cone[id] && t != GateType::kInput && t != GateType::kConst0 &&
        t != GateType::kConst1)
      lockable.push_back(id);
  }
  return lockable;
}

}  // namespace

std::size_t lockable_gate_count(const Netlist& netlist) {
  return lockable_gates(netlist).size();
}

LockedCircuit lock_random_xor(const Netlist& original, std::size_t key_bits,
                              support::Rng& rng) {
  PITFALLS_REQUIRE(key_bits >= 1, "need at least one key bit");
  const obs::TraceSpan lock_span("lock.random_xor");
  std::vector<std::size_t> lockable = lockable_gates(original);
  PITFALLS_REQUIRE(lockable.size() >= key_bits,
                   "not enough logic gates to lock");
  rng.shuffle(lockable);
  std::set<std::size_t> locked_gates(lockable.begin(),
                                     lockable.begin() + key_bits);

  LockedCircuit out;
  out.correct_key = BitVec(key_bits);
  std::vector<std::size_t> remap(original.num_gates());
  std::size_t key_index = 0;

  for (std::size_t id = 0; id < original.num_gates(); ++id) {
    const Gate& g = original.gate(id);
    if (g.type == GateType::kInput) {
      const std::size_t copy = out.netlist.add_input(g.name);
      out.data_input_positions.push_back(out.netlist.input_index(copy));
      remap[id] = copy;
      continue;
    }
    std::vector<std::size_t> fanins;
    fanins.reserve(g.fanins.size());
    for (auto f : g.fanins) fanins.push_back(remap[f]);
    const std::size_t copy = out.netlist.add_gate(g.type, std::move(fanins), g.name);
    remap[id] = copy;

    if (locked_gates.contains(id)) {
      const bool key_bit = rng.coin();  // XNOR gates need key bit 1
      const std::size_t key_input =
          out.netlist.add_input("keyinput" + std::to_string(key_index));
      out.key_input_positions.push_back(out.netlist.input_index(key_input));
      out.correct_key.set(key_index, key_bit);
      const std::size_t key_gate = out.netlist.add_gate(
          key_bit ? GateType::kXnor : GateType::kXor, {copy, key_input});
      remap[id] = key_gate;  // downstream consumers see the keyed net
      ++key_index;
    }
  }
  for (auto output : original.outputs())
    out.netlist.mark_output(remap[output]);
  PITFALLS_ENSURE(key_index == key_bits, "key bit accounting error");
  obs::MetricsRegistry::global().counter("lock.xor.key_gates").add(key_bits);
  return out;
}

double key_accuracy(const Netlist& original, const LockedCircuit& locked,
                    const BitVec& key, std::size_t samples,
                    support::Rng& rng) {
  PITFALLS_REQUIRE(samples > 0, "need at least one sample");
  const std::size_t n = original.num_inputs();
  PITFALLS_REQUIRE(n == locked.num_data_inputs(),
                   "original/locked input arity mismatch");

  const bool exhaustive = n <= 16 && (std::uint64_t{1} << n) <= samples;
  const std::uint64_t count =
      exhaustive ? (std::uint64_t{1} << n) : static_cast<std::uint64_t>(samples);
  std::uint64_t agree = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    BitVec data(n);
    if (exhaustive) {
      data = BitVec(n, i);
    } else {
      rng.fill_coins(data);
    }
    if (original.evaluate(data) == locked.evaluate(data, key)) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(count);
}

}  // namespace pitfalls::lock
