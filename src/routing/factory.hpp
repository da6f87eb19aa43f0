#pragma once
/// \file factory.hpp
/// By-name construction of the six routing mechanisms the paper evaluates
/// (Table 4), plus the DOR baseline.

#include <memory>
#include <string>
#include <vector>

#include "routing/mechanism.hpp"

namespace hxsp {

/// Builds a RoutingMechanism from its (case-sensitive) name. The ladders
/// (RoutingMechanism::ladder) and their rung width:
///   minimal   — shortest path, 2-VC-per-step ladder
///   dor       — dimension ordered (baseline; single path, 1 VC rung)
///   valiant   — two-phase minimal, 1-VC-per-step ladder
///   omniwar   — Omnidimensional + ladder (the paper's OmniWAR stand-in)
///   polarized — Polarized + ladder
/// The SurePath mechanisms (RoutingMechanism::surepath) and their default
/// CRout VC policy:
///   omnisp    — SurePath over Omnidimensional routes, Free
///   polsp     — SurePath over Polarized routes, Auto
///   escape    — SurePath with no base routes, Free: every hop is a forced
///               escape hop (the escape-only lower bound of the
///               workload studies; not part of the paper's grid)
/// omnisp and polsp accept an "@policy" suffix that overrides the CRout
/// VC policy (free | monotone | rung | auto), e.g. "polsp@free"; the
/// crout-policy ablation sweeps these as ordinary spec mechanisms.
std::unique_ptr<RoutingMechanism> make_mechanism(const std::string& name);

/// The paper's mechanism names accepted by make_mechanism ("escape" is
/// deliberately excluded: table04 and the tests sweep this list).
std::vector<std::string> mechanism_names();

/// The display name the paper uses for a mechanism name ("polsp"->"PolSP").
std::string mechanism_display_name(const std::string& name);

} // namespace hxsp
