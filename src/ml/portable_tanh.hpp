// The one tanh of the XOR-model attack of [8]: XorModelAttack::fit takes it
// of every score in each RProp iteration, and XorChainModel::soft_response
// of each chain's score. It is the repository's own code, not the C
// library's, so it gives the same bits on every platform and build, and its
// block form is an explicit 4-lane kernel (DESIGN.md §11, "Training
// kernels").
#pragma once

#include <span>

namespace pitfalls::ml {

/// tanh(x) within 2 ulp of the exact value. NaN gives NaN, +-inf gives
/// +-1, +-0 keeps its sign, |x| >= 19.1 gives exactly +-1, and
/// portable_tanh(-x) == -portable_tanh(x) bit for bit.
double portable_tanh(double x);

/// out[i] = portable_tanh(in[i]) for every i, bit for bit. The sizes must
/// be equal.
void portable_tanh(std::span<const double> in, std::span<double> out);

}  // namespace pitfalls::ml
