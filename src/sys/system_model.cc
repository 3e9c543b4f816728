#include "sys/system_model.h"

namespace fedadmm {

Result<std::unique_ptr<StragglerPolicy>> MakeStragglerPolicy(
    const std::string& name, double deadline_seconds) {
  if (name == "wait-for-all") {
    return std::unique_ptr<StragglerPolicy>(new WaitForAllPolicy());
  }
  if (name == "deadline-drop" || name == "deadline-admit-partial") {
    // Negated so NaN is refused too (every comparison with NaN is false).
    if (!(deadline_seconds > 0.0)) {
      return Status::InvalidArgument("MakeStragglerPolicy: '" + name +
                                     "' needs deadline_seconds > 0");
    }
    if (name == "deadline-drop") {
      return std::unique_ptr<StragglerPolicy>(
          new DeadlineDropPolicy(deadline_seconds));
    }
    return std::unique_ptr<StragglerPolicy>(
        new DeadlineAdmitPartialPolicy(deadline_seconds));
  }
  return Status::InvalidArgument("MakeStragglerPolicy: unknown policy '" +
                                 name + "'");
}

}  // namespace fedadmm
