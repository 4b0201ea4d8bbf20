#include "ml/junta.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "support/require.hpp"

namespace pitfalls::ml {

JuntaHypothesis::JuntaHypothesis(std::size_t n,
                                 std::vector<std::size_t> relevant,
                                 boolfn::TruthTable table)
    : n_(n), relevant_(std::move(relevant)), table_(std::move(table)) {
  PITFALLS_REQUIRE(table_.num_vars() == relevant_.size(),
                   "table arity must match the relevant set");
  for (auto v : relevant_)
    PITFALLS_REQUIRE(v < n, "relevant variable out of range");
}

int JuntaHypothesis::eval_pm(const BitVec& x) const {
  PITFALLS_REQUIRE(x.size() == n_, "input arity mismatch");
  std::uint64_t row = 0;
  for (std::size_t j = 0; j < relevant_.size(); ++j)
    if (x.get(relevant_[j])) row |= std::uint64_t{1} << j;
  return table_.at(row);
}

std::string JuntaHypothesis::describe() const {
  std::ostringstream os;
  os << relevant_.size() << "-junta hypothesis over " << n_ << " vars";
  return os.str();
}

namespace {

BitVec random_point(std::size_t n, support::Rng& rng) {
  BitVec x(n);
  rng.fill_coins(x);
  return x;
}

/// Binary search one relevant variable: u and w disagree under f and agree
/// on every already-known relevant variable; `diff` lists coordinates where
/// they differ. Walks half of the differing block from u toward w each step.
std::size_t find_relevant(MembershipOracle& oracle, const BitVec& u,
                          const BitVec& w, std::vector<std::size_t> diff) {
  PITFALLS_ENSURE(!diff.empty(), "no differing coordinates to search");
  BitVec lo = u;                      // f(lo) stays != f(hi-end w)
  const int f_lo = oracle.query_pm(lo);
  while (diff.size() > 1) {
    const std::size_t half = diff.size() / 2;
    BitVec mid = lo;
    for (std::size_t j = 0; j < half; ++j)
      mid.set(diff[j], w.get(diff[j]));
    if (oracle.query_pm(mid) != f_lo) {
      // The flip happened inside the first half.
      diff.resize(half);
    } else {
      // Keep the first half applied and search the second half.
      lo = mid;
      diff.erase(diff.begin(), diff.begin() + static_cast<std::ptrdiff_t>(half));
    }
  }
  return diff.front();
}

}  // namespace

JuntaHypothesis JuntaLearner::learn(MembershipOracle& oracle,
                                    support::Rng& rng,
                                    JuntaLearnResult* stats) const {
  const std::size_t n = oracle.num_vars();
  const std::size_t start_queries = oracle.queries();
  PITFALLS_REQUIRE(config_.max_junta <= 24, "junta table would not fit");

  std::vector<std::size_t> relevant;
  bool hit_cap = false;

  // Round: look for a disagreeing pair that agrees on the known relevant
  // set; each success yields a new relevant variable via binary search.
  for (;;) {
    if (relevant.size() >= config_.max_junta) {
      hit_cap = true;
      break;
    }
    bool found = false;
    for (std::size_t probe = 0; probe < config_.probes_per_round; ++probe) {
      const BitVec u = random_point(n, rng);
      BitVec w = random_point(n, rng);
      for (auto v : relevant) w.set(v, u.get(v));
      if (u == w) continue;
      if (oracle.query_pm(u) == oracle.query_pm(w)) continue;

      std::vector<std::size_t> diff;
      for (std::size_t i = 0; i < n; ++i)
        if (u.get(i) != w.get(i)) diff.push_back(i);
      const std::size_t var = find_relevant(oracle, u, w, std::move(diff));
      PITFALLS_ENSURE(
          std::find(relevant.begin(), relevant.end(), var) == relevant.end(),
          "binary search returned a known variable");
      relevant.push_back(var);
      found = true;
      break;
    }
    if (!found) break;  // probably no further relevant variables
  }
  std::sort(relevant.begin(), relevant.end());

  // Interpolate the table: for a true junta any completion of the
  // irrelevant variables works; use all-zeros. The row points are known up
  // front (non-adaptive), so issue them as one batch query — the counting
  // is identical to the old per-row loop.
  boolfn::TruthTable table(relevant.size());
  std::vector<BitVec> rows;
  rows.reserve(static_cast<std::size_t>(table.num_rows()));
  for (std::uint64_t row = 0; row < table.num_rows(); ++row) {
    BitVec x(n);
    for (std::size_t j = 0; j < relevant.size(); ++j)
      x.set(relevant[j], (row >> j) & 1ULL);
    rows.push_back(std::move(x));
  }
  std::vector<int> values(rows.size());
  oracle.query_pm_batch(rows, values);
  for (std::uint64_t row = 0; row < table.num_rows(); ++row)
    table.set(row, values[static_cast<std::size_t>(row)]);

  if (stats != nullptr) {
    stats->relevant = relevant;
    stats->membership_queries = oracle.queries() - start_queries;
    stats->hit_cap = hit_cap;
  }
  return JuntaHypothesis(n, std::move(relevant), std::move(table));
}

}  // namespace pitfalls::ml
