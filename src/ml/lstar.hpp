// Angluin's L* (reference [22] of the paper): exact learning of regular
// languages from membership and equivalence queries, delivering a DFA —
// the improper-representation attack on obfuscated FSMs of Section V-B.
//
// We use the Maler–Pnueli counterexample handling (add all suffixes of a
// counterexample to the experiment set E), which keeps the observation
// table consistent by construction so only closedness must be restored.
#pragma once

#include <optional>

#include "circuit/dfa.hpp"
#include "obs/metrics.hpp"

namespace pitfalls::ml {

// The hypothesis representation lives with the FSM stack in the circuit
// plane; aliased here so the learner's vocabulary stays ml-local.
using circuit::Dfa;
using circuit::Word;
using circuit::WordHash;

/// The minimally adequate teacher of Angluin's framework.
class DfaTeacher {
 public:
  virtual ~DfaTeacher() = default;

  virtual std::size_t alphabet_size() const = 0;

  /// Membership query: is the word in the language?
  virtual bool member(const Word& word) = 0;

  /// Equivalence query: counterexample, or nullopt when the hypothesis is
  /// (believed) equivalent.
  virtual std::optional<Word> equivalent(const Dfa& hypothesis) = 0;

  std::size_t membership_queries() const { return mq_; }
  std::size_t equivalence_queries() const { return eq_; }

 protected:
  void count_mq() {
    ++mq_;
    mq_counter_->add(1);
  }
  void count_eq() {
    ++eq_;
    eq_counter_->add(1);
  }

 private:
  std::size_t mq_ = 0;
  std::size_t eq_ = 0;
  obs::Counter* mq_counter_ =
      &obs::MetricsRegistry::global().counter("oracle.dfa_membership_queries");
  obs::Counter* eq_counter_ =
      &obs::MetricsRegistry::global().counter("oracle.dfa_equivalence_queries");
};

/// Exact teacher backed by a reference DFA (product-automaton equivalence,
/// shortest counterexamples).
class ExactDfaTeacher final : public DfaTeacher {
 public:
  explicit ExactDfaTeacher(const Dfa& target) : target_(&target) {}
  /// The teacher only references the target; a temporary would dangle.
  explicit ExactDfaTeacher(Dfa&&) = delete;

  std::size_t alphabet_size() const override {
    return target_->alphabet_size();
  }
  bool member(const Word& word) override {
    count_mq();
    return target_->accepts(word);
  }
  std::optional<Word> equivalent(const Dfa& hypothesis) override {
    count_eq();
    return Dfa::distinguishing_word(*target_, hypothesis);
  }

 private:
  const Dfa* target_;
};

/// Teacher whose equivalence queries are simulated with random words
/// (Angluin's EQ-from-samples argument, Section IV): geometric word lengths
/// with the given mean, `samples_per_call` draws per call.
class SampledDfaTeacher final : public DfaTeacher {
 public:
  SampledDfaTeacher(const Dfa& target, std::size_t samples_per_call,
                    double mean_word_length, support::Rng& rng);
  /// The teacher only references the target; a temporary would dangle.
  SampledDfaTeacher(Dfa&&, std::size_t, double, support::Rng&) = delete;

  std::size_t alphabet_size() const override {
    return target_->alphabet_size();
  }
  bool member(const Word& word) override {
    count_mq();
    return target_->accepts(word);
  }
  std::optional<Word> equivalent(const Dfa& hypothesis) override;

 private:
  const Dfa* target_;
  std::size_t samples_per_call_;
  double continue_probability_;
  support::Rng* rng_;
};

struct LStarStats {
  std::size_t membership_queries = 0;
  std::size_t equivalence_queries = 0;
  std::size_t states = 0;
  std::size_t rounds = 0;
};

class LStarLearner {
 public:
  /// Safety cap on hypothesis size (the algorithm never exceeds the target's
  /// minimal-DFA size with an exact teacher).
  explicit LStarLearner(std::size_t max_states = 4096)
      : max_states_(max_states) {}

  Dfa learn(DfaTeacher& teacher, LStarStats* stats = nullptr) const;

 private:
  std::size_t max_states_;
};

}  // namespace pitfalls::ml
