#include "run_index.hh"

#include <unordered_set>

namespace fits::taint {

using analysis::FnId;
using ir::Addr;

LabelTable
buildLabelTable(const std::vector<TaintSource> &sources)
{
    LabelTable table;
    std::size_t nextBit = 0;

    auto allocBit = [&nextBit]() {
        const std::size_t bit = nextBit < 63 ? nextBit : 63;
        ++nextBit;
        return std::uint64_t{1} << bit;
    };

    for (std::size_t i = 0; i < sources.size(); ++i) {
        const TaintSource &src = sources[i];
        LabelTable::SourceBits bits;

        bits.userBit = allocBit();
        LabelInfo user;
        user.sourceIndex = i;
        user.systemData = false;
        user.description = (src.kind == TaintSource::Kind::Cts
                                ? "cts:"
                                : "its-user:") +
                           src.name;
        table.labels.push_back(std::move(user));
        table.userMask |= bits.userBit;

        if (src.kind == TaintSource::Kind::Its) {
            bits.systemBit = allocBit();
            LabelInfo sys;
            sys.sourceIndex = i;
            sys.systemData = true;
            sys.description = "its-system:" + src.name;
            table.labels.push_back(std::move(sys));
        }

        table.bySource.push_back(bits);
    }

    return table;
}

bool
isMemoryWriter(const std::string &name)
{
    static const std::unordered_set<std::string> writers = {
        "strcpy", "strncpy", "strcat", "strncat", "memcpy",
        "memmove", "sprintf", "snprintf",
    };
    return writers.count(name) != 0;
}

RunIndex::RunIndex(const analysis::ProgramAnalysis &pa,
                   const std::vector<TaintSource> &sources,
                   bool resolveIndirectCalls)
    : pa_(pa), labelTable_(buildLabelTable(sources))
{
    const FnId fnCount = static_cast<FnId>(pa.linked->fnCount());

    // Images are numbered in order of first appearance in FnId order,
    // which puts the main binary first.
    std::unordered_map<const bin::BinaryImage *, std::size_t> byImage;
    imageOf_.resize(fnCount);
    for (FnId id = 0; id < fnCount; ++id) {
        const auto *image = pa.linked->fn(id).image;
        imageOf_[id] =
            byImage.emplace(image, byImage.size()).first->second;
    }

    for (std::size_t i = 0; i < sources.size(); ++i) {
        if (sources[i].kind == TaintSource::Kind::Cts) {
            ctsByName_[sources[i].name] = i;
        } else {
            auto fnId = pa.linked->fnIdOf(&pa.linked->mainImage(),
                                          sources[i].entry);
            if (fnId)
                itsByFn_[*fnId] = i;
        }
    }

    sites_.resize(fnCount);
    const auto &sites = pa.callGraph.sites();
    for (std::size_t s = 0; s < sites.size(); ++s) {
        const auto &site = sites[s];
        if (site.indirect && !resolveIndirectCalls)
            continue;
        sites_[site.caller][siteKey(site.blockIdx, site.stmtIdx)]
            .push_back(s);
    }
}

std::size_t
RunIndex::ctsSource(const std::string &name) const
{
    if (name.empty())
        return npos;
    auto it = ctsByName_.find(name);
    return it == ctsByName_.end() ? npos : it->second;
}

std::size_t
RunIndex::itsSource(FnId fn) const
{
    auto it = itsByFn_.find(fn);
    return it == itsByFn_.end() ? npos : it->second;
}

Mask
RunIndex::itsLabelAt(std::size_t siteIdx, std::size_t sourceIdx)
{
    auto it = itsSiteLabel_.find(siteIdx);
    if (it != itsSiteLabel_.end())
        return it->second;

    const auto &site = pa_.callGraph.sites()[siteIdx];
    const auto tracker = pa_.fn(site.caller).backtracker();
    bool system = false;
    for (std::uint64_t value :
         tracker.resolveArg(site.blockIdx, site.stmtIdx, 0)) {
        if (auto s = tracker.classifyString(value)) {
            if (isSystemDataKey(s->text)) {
                system = true;
                break;
            }
        }
    }
    const auto &bits = labelTable_.bySource[sourceIdx];
    const Mask label =
        system && bits.systemBit != 0 ? bits.systemBit : bits.userBit;
    itsSiteLabel_[siteIdx] = label;
    return label;
}

void
RunIndex::recordAlert(FnId inFn, Addr sinkSite, const SinkSpec &sink,
                      Mask mask)
{
    if (mask == 0)
        return;
    const auto key = std::make_pair(imageOf(inFn), sinkSite);
    auto it = alerts_.find(key);
    if (it == alerts_.end()) {
        Alert alert;
        alert.sinkSite = sinkSite;
        alert.sinkName = sink.name;
        alert.vclass = sink.vclass;
        alert.labelMask = mask;
        alert.inFunction = pa_.linked->fn(inFn).fn->entry;
        alert.imageIndex = key.first;
        alert.hasUserDataLabel = labelTable_.hasUserData(mask);
        alerts_.emplace(key, std::move(alert));
    } else {
        it->second.labelMask |= mask;
        it->second.hasUserDataLabel =
            labelTable_.hasUserData(it->second.labelMask);
    }
}

TaintReport
RunIndex::takeReport()
{
    TaintReport report;
    report.labels = labelTable_.labels;
    for (auto &[key, alert] : alerts_)
        report.alerts.push_back(std::move(alert));
    alerts_.clear();
    sortAlerts(report.alerts);
    return report;
}

} // namespace fits::taint
