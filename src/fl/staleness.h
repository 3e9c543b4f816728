/// \file staleness.h
/// \brief Staleness weighting for asynchronous and buffered aggregation.
///
/// In the event-driven execution modes (fl/server_loop.h) an update may
/// arrive after the server has already aggregated s other updates — it was
/// computed against a θ that is s versions old. A staleness weight
/// s ↦ w(s) ∈ [0, 1] discounts such updates before aggregation (FedBuff /
/// FedAsync style); the engine scales the update's payload vectors by w(s)
/// before `ServerUpdate` sees them.

#ifndef FEDADMM_FL_STALENESS_H_
#define FEDADMM_FL_STALENESS_H_

#include <functional>
#include <string>

#include "util/status.h"

namespace fedadmm {

/// \brief Maps an update's staleness (server versions elapsed since its
/// dispatch; >= 0) to a multiplicative weight in [0, 1].
using StalenessWeightFn = std::function<double(int staleness)>;

/// \brief w(s) = 1: stale updates count fully (the engine default).
StalenessWeightFn ConstantStalenessWeight();

/// \brief w(s) = (1 + s)^-alpha, the FedAsync polynomial discount.
/// Requires alpha >= 0.
StalenessWeightFn PolynomialStalenessWeight(double alpha);

/// \brief Builds a weight from a spec string: "constant" or "poly:<alpha>"
/// (e.g. "poly:0.5"). Returns InvalidArgument for anything else.
Result<StalenessWeightFn> MakeStalenessWeight(const std::string& spec);

}  // namespace fedadmm

#endif  // FEDADMM_FL_STALENESS_H_
