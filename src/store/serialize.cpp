#include "store/serialize.hpp"

#include <utility>

namespace pitfalls::store {

namespace {

using support::snapshot::SnapshotError;
using support::snapshot::SnapshotFault;

/// Guard a declared element count against the bytes actually present, so a
/// structurally absurd (yet CRC-clean, i.e. API-misuse) count fails as a
/// typed bad_section error before any allocation is sized by it.
void require_payload(const SectionReader& r, std::uint64_t elements,
                     std::uint64_t min_bytes_each) {
  if (min_bytes_each != 0 &&
      elements > r.remaining() / min_bytes_each) {
    throw SnapshotError(SnapshotFault::bad_section,
                        "section '" + r.name() +
                            "' declares more elements than its bytes hold");
  }
}

void put_doubles(SectionWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (const double x : v) w.f64(x);
}

std::vector<double> get_doubles(SectionReader& r) {
  const std::uint64_t n = r.u64();
  require_payload(r, n, 8);
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

}  // namespace

void put_bitvec(SectionWriter& w, const BitVec& v) {
  w.u64(v.size());
  for (std::size_t i = 0; i < v.num_words(); ++i) w.u64(v.word(i));
}

BitVec get_bitvec(SectionReader& r) {
  const std::uint64_t n = r.u64();
  const std::uint64_t words = (n + 63) / 64;
  require_payload(r, words, 8);
  BitVec v(static_cast<std::size_t>(n));
  for (std::uint64_t wi = 0; wi < words; ++wi) {
    const std::uint64_t word = r.u64();
    for (std::uint64_t b = 0; b < 64; ++b) {
      const std::uint64_t i = wi * 64 + b;
      if (i < n && ((word >> b) & 1U) != 0) v.set(static_cast<std::size_t>(i), true);
    }
  }
  return v;
}

void put_linear_model(SectionWriter& w, const ml::LinearModel& model) {
  w.u64(model.num_vars());
  w.str(model.describe());
  put_doubles(w, model.weights());
}

ml::LinearModel get_linear_model(SectionReader& r,
                                 const ml::FeatureMap& features) {
  const std::uint64_t num_vars = r.u64();
  std::string name = r.str();
  std::vector<double> weights = get_doubles(r);
  return ml::LinearModel(static_cast<std::size_t>(num_vars),
                         std::move(weights), features, std::move(name));
}

void put_sparse_fourier(SectionWriter& w,
                        const ml::SparseFourierHypothesis& h) {
  w.u64(h.num_vars());
  w.u64(h.num_terms());
  for (const BitVec& subset : h.subsets()) put_bitvec(w, subset);
  for (const double c : h.coefficients()) w.f64(c);
}

ml::SparseFourierHypothesis get_sparse_fourier(SectionReader& r) {
  const std::uint64_t n = r.u64();
  const std::uint64_t terms = r.u64();
  require_payload(r, terms, 16);  // >= one size word + one coefficient each
  std::vector<BitVec> subsets;
  subsets.reserve(static_cast<std::size_t>(terms));
  for (std::uint64_t i = 0; i < terms; ++i) subsets.push_back(get_bitvec(r));
  std::vector<double> coefficients;
  coefficients.reserve(static_cast<std::size_t>(terms));
  for (std::uint64_t i = 0; i < terms; ++i) coefficients.push_back(r.f64());
  return ml::SparseFourierHypothesis(static_cast<std::size_t>(n),
                                     std::move(subsets),
                                     std::move(coefficients));
}

}  // namespace pitfalls::store
