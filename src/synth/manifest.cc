#include "manifest.hh"

namespace fits::synth {

const char *
siteClassName(SiteClass cls)
{
    switch (cls) {
      case SiteClass::RealBug:       return "real-bug";
      case SiteClass::BoundsChecked: return "bounds-checked";
      case SiteClass::DeadGuard:     return "dead-guard";
      case SiteClass::Escaped:       return "escaped";
      case SiteClass::SystemData:    return "system-data";
    }
    return "?";
}

const char *
flowKindName(FlowKind kind)
{
    switch (kind) {
      case FlowKind::DirectGlobal:  return "direct-global";
      case FlowKind::ScanLoop:      return "scan-loop";
      case FlowKind::ItsFetch:      return "its-fetch";
      case FlowKind::ItsDeepChain:  return "its-deep-chain";
      case FlowKind::IndirectParam: return "indirect-param";
      case FlowKind::ConfigOnly:    return "config-only";
    }
    return "?";
}

const SinkSite *
GroundTruth::siteAt(ir::Addr addr) const
{
    for (const auto &site : sinkSites) {
        if (site.addr == addr)
            return &site;
    }
    return nullptr;
}

std::size_t
GroundTruth::bugCount() const
{
    std::size_t n = 0;
    for (const auto &site : sinkSites) {
        if (site.isBug())
            ++n;
    }
    return n;
}

} // namespace fits::synth
