// Bistable Ring (BR) PUF — behavioral model.
//
// SUBSTITUTION NOTE (see DESIGN.md §3): the paper measures BR PUFs on an
// Intel/Altera Cyclone IV FPGA. We cannot fabricate those, so we simulate
// the behavioral model the BR PUF literature itself uses (Xu et al.,
// RFIDsec'15; Ganji et al., FC'18): the settled state is the sign of a
// polynomial in the +/-1-encoded challenge bits with
//   * a dominant linear part (per-stage inverter strength mismatch), and
//   * sparse degree-2/3 interaction terms (coupling between stages selected
//     together), whose variance share `nonlinear_share` grows with n.
// The only property of the FPGA data the paper relies on is that BR PUFs are
// NOT linear threshold functions — best-LTF accuracy plateaus (Table II) and
// the halfspace tester flags growing distance (Table III). This model
// reproduces exactly that, with the plateau position controlled by
// nonlinear_share.
#pragma once

#include <span>
#include <vector>

#include "puf/puf.hpp"

namespace pitfalls::puf {

struct BistableRingConfig {
  /// Ring stages; at least 5, so the distinct supports below exist.
  std::size_t bits = 16;
  /// Fraction of the response-polynomial variance carried by the
  /// interaction terms (2*bits random degree-2 and bits random degree-3
  /// supports); 0 gives an exact LTF.
  double nonlinear_share = 0.3;
  /// Per-evaluation Gaussian margin noise (attribute noise).
  double noise_sigma = 0.0;

  /// Calibrated defaults reproducing the paper's per-n trend
  /// (n = 16/32/64 -> growing distance from any halfspace, Table III).
  static BistableRingConfig paper_instance(std::size_t bits);
};

class BistableRingPuf final : public Puf {
 public:
  BistableRingPuf(const BistableRingConfig& config, support::Rng& rng);

  std::size_t num_vars() const override { return config_.bits; }
  int eval_pm(const BitVec& challenge) const override;
  int eval_noisy(const BitVec& challenge, support::Rng& rng) const override;
  std::string describe() const override;

  /// Bit-sliced batch paths: per block, interaction-term parities become
  /// XORs of challenge-bit planes. Bit-identical to the scalar loop.
  void eval_pm_batch(std::span<const BitVec> challenges,
                     std::span<int> out) const override;
  void eval_noisy_batch(std::span<const BitVec> challenges, std::span<int> out,
                        support::Rng& rng) const override;

  /// The real-valued settling margin (before the sign).
  double margin(const BitVec& challenge) const;

  /// Batched margins, same accumulation order as the scalar margin().
  void margins(std::span<const BitVec> challenges, std::span<double> out) const;

  const BistableRingConfig& config() const { return config_; }

 private:
  struct Interaction {
    std::vector<std::size_t> vars;  // 2 or 3 distinct indices
    double weight = 0.0;
  };

  BistableRingConfig config_;
  std::vector<double> linear_;           // one weight per stage
  std::vector<Interaction> interactions_;
};

}  // namespace pitfalls::puf
