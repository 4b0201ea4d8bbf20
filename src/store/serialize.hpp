// Serialize/deserialize hooks between the library's experiment state and
// snapshot sections (DESIGN.md §14). Everything round-trips bit-exactly:
// doubles travel as their IEEE-754 bit patterns, so a deserialized
// hypothesis scores, formats and compares byte-identically to the original
// — the property the resume-determinism contract rests on.
//
// Codecs come in put_*/get_* pairs over SectionWriter/SectionReader. get_*
// validates as it reads (bounds-checked cursor underneath, explicit sanity
// guards on declared element counts), so a section that decodes at all is
// structurally sound; payload integrity itself is the snapshot CRC's job.
#pragma once

#include "ml/linear_model.hpp"
#include "ml/lmn.hpp"
#include "ml/robust/outcome.hpp"
#include "support/snapshot/snapshot.hpp"

namespace pitfalls::store {

using support::BitVec;
using support::snapshot::SectionReader;
using support::snapshot::SectionWriter;

// ---- primitives -----------------------------------------------------------

void put_bitvec(SectionWriter& w, const BitVec& v);
BitVec get_bitvec(SectionReader& r);

// ---- hypothesis classes ---------------------------------------------------

/// LinearModel's FeatureMap is code, not data; the caller re-supplies the
/// map it trained with (the benches construct it from the same config).
void put_linear_model(SectionWriter& w, const ml::LinearModel& model);
ml::LinearModel get_linear_model(SectionReader& r,
                                 const ml::FeatureMap& features);

void put_sparse_fourier(SectionWriter& w,
                        const ml::SparseFourierHypothesis& h);
ml::SparseFourierHypothesis get_sparse_fourier(SectionReader& r);

// ---- robust-learning outcomes ---------------------------------------------

/// LearnOutcome<H> with a caller-supplied hypothesis codec, so one template
/// covers all six learners' outcome types.
template <typename H, typename PutH>
void put_outcome(SectionWriter& w, const ml::robust::LearnOutcome<H>& outcome,
                 PutH&& put_hypothesis) {
  w.u8(static_cast<std::uint8_t>(outcome.status));
  w.u8(outcome.best_hypothesis ? 1 : 0);
  if (outcome.best_hypothesis) put_hypothesis(w, *outcome.best_hypothesis);
  w.u64(outcome.queries_spent);
  w.u32(static_cast<std::uint32_t>(outcome.diagnostics.size()));
  for (const auto& [name, value] : outcome.diagnostics) {
    w.str(name);
    w.f64(value);
  }
}

template <typename H, typename GetH>
ml::robust::LearnOutcome<H> get_outcome(SectionReader& r,
                                        GetH&& get_hypothesis) {
  ml::robust::LearnOutcome<H> outcome;
  const std::uint8_t status = r.u8();
  PITFALLS_REQUIRE(status <= static_cast<std::uint8_t>(
                                 ml::robust::LearnStatus::noise_ceiling),
                   "snapshot outcome: unknown LearnStatus");
  outcome.status = static_cast<ml::robust::LearnStatus>(status);
  if (r.u8() != 0) outcome.best_hypothesis = get_hypothesis(r);
  outcome.queries_spent = static_cast<std::size_t>(r.u64());
  const std::uint32_t diagnostics = r.u32();
  for (std::uint32_t i = 0; i < diagnostics; ++i) {
    std::string name = r.str();
    outcome.diagnostics[std::move(name)] = r.f64();
  }
  return outcome;
}

}  // namespace pitfalls::store
