#include "boolfn/influence.hpp"

#include "support/require.hpp"

namespace pitfalls::boolfn {

double influence(const TruthTable& table, std::size_t i) {
  PITFALLS_REQUIRE(i < table.num_vars(), "variable index out of range");
  const std::uint64_t rows = table.num_rows();
  const std::uint64_t bit = std::uint64_t{1} << i;
  std::uint64_t flips = 0;
  for (std::uint64_t row = 0; row < rows; ++row)
    if ((row & bit) == 0 && table.at(row) != table.at(row | bit)) flips += 2;
  return static_cast<double>(flips) / static_cast<double>(rows);
}

std::vector<double> influences(const TruthTable& table) {
  std::vector<double> out(table.num_vars());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = influence(table, i);
  return out;
}

double total_influence(const TruthTable& table) {
  double total = 0.0;
  for (std::size_t i = 0; i < table.num_vars(); ++i)
    total += influence(table, i);
  return total;
}

double estimate_influence(const BooleanFunction& f, std::size_t i,
                          std::size_t m, support::Rng& rng) {
  PITFALLS_REQUIRE(i < f.num_vars(), "variable index out of range");
  PITFALLS_REQUIRE(m > 0, "need at least one sample");
  std::size_t flips = 0;
  for (std::size_t s = 0; s < m; ++s) {
    BitVec x(f.num_vars());
    rng.fill_coins(x);
    const int before = f.eval_pm(x);
    x.flip(i);
    if (f.eval_pm(x) != before) ++flips;
  }
  return static_cast<double>(flips) / static_cast<double>(m);
}

std::vector<std::size_t> relevant_variables(const TruthTable& table) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < table.num_vars(); ++i)
    if (influence(table, i) > 0.0) out.push_back(i);
  return out;
}

bool is_junta(const TruthTable& table, std::size_t k) {
  return relevant_variables(table).size() <= k;
}

TruthTable restrict_to(const BooleanFunction& f,
                       const std::vector<std::size_t>& kept, bool fill) {
  const std::size_t n = f.num_vars();
  for (auto index : kept)
    PITFALLS_REQUIRE(index < n, "kept variable out of range");
  PITFALLS_REQUIRE(kept.size() <= 26, "restriction too large to materialise");

  TruthTable out(kept.size());
  BitVec x(n);
  for (std::size_t i = 0; i < n; ++i) x.set(i, fill);
  for (std::uint64_t row = 0; row < out.num_rows(); ++row) {
    for (std::size_t j = 0; j < kept.size(); ++j)
      x.set(kept[j], (row >> j) & 1ULL);
    out.set(row, f.eval_pm(x));
  }
  return out;
}

}  // namespace pitfalls::boolfn
