/// \file system_model.h
/// \brief The façade the simulator talks to: fleet + straggler policy.
///
/// A `SystemModel` owns a `FleetModel` and a `StragglerPolicy`. The engine
/// (fl/server_loop.h) times every dispatched client against its fleet
/// profile (`ComputeClientTiming`) and lets `policy().Judge` decide its
/// fate (admit / admit-partial / drop) and the simulated second the server
/// stops tracking it. The model is stateless — the engine owns simulated
/// time — so the same model can be shared by sequential runs.

#ifndef FEDADMM_SYS_SYSTEM_MODEL_H_
#define FEDADMM_SYS_SYSTEM_MODEL_H_

#include <memory>
#include <string>
#include <utility>

#include "sys/profiles.h"
#include "sys/straggler.h"
#include "util/status.h"

namespace fedadmm {

/// \brief Bundles the fleet and the straggler policy behind one interface.
class SystemModel {
 public:
  SystemModel(FleetModel fleet, std::unique_ptr<StragglerPolicy> policy)
      : fleet_(std::move(fleet)), policy_(std::move(policy)) {
    FEDADMM_CHECK_MSG(policy_ != nullptr, "SystemModel: policy is required");
  }

  const FleetModel& fleet() const { return fleet_; }
  const StragglerPolicy& policy() const { return *policy_; }

  /// "<fleet>/<policy>", e.g. "cellular/deadline-drop".
  std::string name() const { return fleet_.name() + "/" + policy_->name(); }

 private:
  FleetModel fleet_;
  std::unique_ptr<StragglerPolicy> policy_;
};

/// \brief Builds the policy named by `name` ("wait-for-all",
/// "deadline-drop", "deadline-admit-partial"); deadline policies require
/// `deadline_seconds` > 0. Returns InvalidArgument for unknown names.
Result<std::unique_ptr<StragglerPolicy>> MakeStragglerPolicy(
    const std::string& name, double deadline_seconds);

}  // namespace fedadmm

#endif  // FEDADMM_SYS_SYSTEM_MODEL_H_
