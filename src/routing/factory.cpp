#include "routing/factory.hpp"

#include "routing/dor.hpp"
#include "routing/minimal.hpp"
#include "routing/omnidimensional.hpp"
#include "routing/polarized.hpp"
#include "routing/valiant.hpp"

namespace hxsp {

namespace {

/// Base "routing" that never offers a candidate: under SurePath every
/// hop becomes a forced escape hop, so the packet rides the Up/Down
/// subnetwork exclusively. This is the escape-only lower bound the
/// workload studies compare SurePath against (how much of SurePath's
/// completion time is the adaptive CRout buying?); it is not part of the
/// paper's mechanism grid and deliberately absent from mechanism_names().
class EscapeOnlyAlgorithm final : public RouteAlgorithm {
 public:
  void ports(const NetworkContext&, const Packet&, SwitchId,
             std::vector<Candidate>&) const override {}
};

} // namespace

std::unique_ptr<RoutingMechanism> make_mechanism(const std::string& full_name) {
  // Optional "@policy" suffix on the SurePath names: overrides the CRout
  // VC discipline so policy ablations are expressible as plain spec
  // mechanism strings ("omnisp@rung", "polsp@free", ...).
  std::string name = full_name;
  CRoutVcPolicy policy_override = CRoutVcPolicy::Auto;
  bool has_override = false;
  const std::size_t at = full_name.find('@');
  if (at != std::string::npos) {
    name = full_name.substr(0, at);
    const std::string p = full_name.substr(at + 1);
    has_override = true;
    if (p == "free") policy_override = CRoutVcPolicy::Free;
    else if (p == "monotone") policy_override = CRoutVcPolicy::Monotone;
    else if (p == "rung") policy_override = CRoutVcPolicy::Rung;
    else if (p == "auto") policy_override = CRoutVcPolicy::Auto;
    else HXSP_CHECK_MSG(false, ("unknown CRout VC policy: " + p).c_str());
    HXSP_CHECK_MSG(name == "omnisp" || name == "polsp",
                   "@policy suffix only applies to SurePath mechanisms");
  }
  auto ladder = [](std::unique_ptr<RouteAlgorithm> algo, int rung_vcs,
                   const char* display) {
    return std::make_unique<RoutingMechanism>(
        RoutingMechanism::ladder(std::move(algo), rung_vcs, display));
  };
  auto surepath = [](std::unique_ptr<RouteAlgorithm> algo, const char* display,
                     CRoutVcPolicy policy) {
    return std::make_unique<RoutingMechanism>(
        RoutingMechanism::surepath(std::move(algo), display, policy));
  };
  if (name == "minimal")
    return ladder(std::make_unique<MinimalAlgorithm>(), 2, "Minimal");
  if (name == "dor") return ladder(std::make_unique<DorAlgorithm>(), 1, "DOR");
  if (name == "valiant")
    return ladder(std::make_unique<ValiantAlgorithm>(), 1, "Valiant");
  if (name == "omniwar")
    return ladder(std::make_unique<OmnidimensionalAlgorithm>(), 1, "OmniWAR");
  if (name == "polarized")
    return ladder(std::make_unique<PolarizedAlgorithm>(), 1, "Polarized");
  // CRout VC disciplines follow each base routing's own convention
  // (paper Table 4): Omnidimensional splits its VCs freely between minimal
  // hops and deroutes, while Polarized keeps its 1-VC-per-step ladder.
  // bench/ablation_crout_policy.cpp measures every (base, policy) pair
  // behind these defaults.
  if (name == "omnisp")
    return surepath(std::make_unique<OmnidimensionalAlgorithm>(), "OmniSP",
                    has_override ? policy_override : CRoutVcPolicy::Free);
  if (name == "polsp")
    return surepath(std::make_unique<PolarizedAlgorithm>(), "PolSP",
                    has_override ? policy_override : CRoutVcPolicy::Auto);
  if (name == "escape")
    return surepath(std::make_unique<EscapeOnlyAlgorithm>(), "EscapeOnly",
                    CRoutVcPolicy::Free);
  HXSP_CHECK_MSG(false, ("unknown routing mechanism: " + name).c_str());
  return nullptr;
}

std::vector<std::string> mechanism_names() {
  return {"minimal", "dor", "valiant", "omniwar", "polarized", "omnisp", "polsp"};
}

std::string mechanism_display_name(const std::string& name) {
  return make_mechanism(name)->name();
}

} // namespace hxsp
