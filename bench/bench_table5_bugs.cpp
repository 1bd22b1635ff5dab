/**
 * @file
 * Reproduces Table 5 of the FITS paper: alerts, verified bugs, and
 * analysis time of Karonte, Karonte-ITS, STA, and STA-ITS per vendor
 * group, the cross-engine set relations the paper highlights, and the
 * §4.3 case study (path length from a CTS vs from an ITS).
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "eval/corpus_runner.hh"
#include "eval/tables.hh"
#include "obs/bench_record.hh"
#include "synth/firmware_gen.hh"

namespace {

using namespace fits;

struct GroupRow
{
    int count = 0;
    eval::EngineStats karonte, karonteIts, sta, staIts;
};

} // namespace

int
main()
{
    std::printf("=== Table 5: bug finding results ===\n\n");

    const auto corpus = synth::generateStandardCorpus();

    const eval::CorpusRunner runner;
    std::printf("(%zu samples, %zu worker threads — set FITS_JOBS to "
                "override)\n\n",
                corpus.size(), runner.jobs());
    const auto outcomes = runner.runFull(corpus);

    std::map<std::pair<bool, std::string>, GroupRow> groups;
    GroupRow total;
    bool karonteSuperset = true;
    bool staSuperset = true;
    std::set<ir::Addr> staOnly, karonteOnly;
    std::size_t staOnlyCount = 0, karonteOnlyCount = 0;

    for (std::size_t s = 0; s < corpus.size(); ++s) {
        const auto &fw = corpus[s];
        const auto &outcome = outcomes[s].taint;
        if (!outcome.ok)
            continue; // pre-processing failures have no taint run
        auto &g = groups[{fw.spec.latest, fw.spec.profile.vendor}];
        ++g.count;
        g.karonte += outcome.karonte;
        g.karonteIts += outcome.karonteIts;
        g.sta += outcome.sta;
        g.staIts += outcome.staIts;
        ++total.count;
        total.karonte += outcome.karonte;
        total.karonteIts += outcome.karonteIts;
        total.sta += outcome.sta;
        total.staIts += outcome.staIts;

        // Set relations per sample.
        auto contains = [](const std::vector<ir::Addr> &super,
                           const std::vector<ir::Addr> &sub) {
            return std::all_of(
                sub.begin(), sub.end(), [&](ir::Addr a) {
                    return std::find(super.begin(), super.end(), a) !=
                           super.end();
                });
        };
        karonteSuperset &= contains(outcome.karonteItsBugs,
                                    outcome.karonteBugs);
        staSuperset &= contains(outcome.staItsBugs, outcome.staBugs);
        for (ir::Addr a : outcome.staBugs) {
            if (std::find(outcome.karonteBugs.begin(),
                          outcome.karonteBugs.end(),
                          a) == outcome.karonteBugs.end()) {
                ++staOnlyCount;
            }
        }
        for (ir::Addr a : outcome.karonteBugs) {
            if (std::find(outcome.staBugs.begin(),
                          outcome.staBugs.end(),
                          a) == outcome.staBugs.end()) {
                ++karonteOnlyCount;
            }
        }
    }

    eval::TablePrinter table(
        {"Dataset", "Vendor", "#FW", "K alerts", "K bugs", "K ms",
         "K-ITS alerts", "K-ITS bugs", "K-ITS ms", "STA alerts",
         "STA bugs", "STA ms", "STA-ITS alerts", "STA-ITS bugs",
         "STA-ITS ms"});
    const std::vector<std::string> vendorOrder = {
        "NETGEAR", "D-Link", "TP-Link", "Tenda", "Cisco"};
    for (bool latest : {false, true}) {
        for (const auto &vendor : vendorOrder) {
            auto it = groups.find({latest, vendor});
            if (it == groups.end())
                continue;
            const GroupRow &g = it->second;
            table.addRow({latest ? "Latest" : "Karonte", vendor,
                          std::to_string(g.count),
                          std::to_string(g.karonte.alerts),
                          std::to_string(g.karonte.bugs),
                          eval::fixed(g.karonte.ms, 0),
                          std::to_string(g.karonteIts.alerts),
                          std::to_string(g.karonteIts.bugs),
                          eval::fixed(g.karonteIts.ms, 0),
                          std::to_string(g.sta.alerts),
                          std::to_string(g.sta.bugs),
                          eval::fixed(g.sta.ms, 0),
                          std::to_string(g.staIts.alerts),
                          std::to_string(g.staIts.bugs),
                          eval::fixed(g.staIts.ms, 0)});
        }
        if (!latest)
            table.addSeparator();
    }
    table.addSeparator();
    table.addRow({"Total", "-", std::to_string(total.count),
                  std::to_string(total.karonte.alerts),
                  std::to_string(total.karonte.bugs),
                  eval::fixed(total.karonte.ms, 0),
                  std::to_string(total.karonteIts.alerts),
                  std::to_string(total.karonteIts.bugs),
                  eval::fixed(total.karonteIts.ms, 0),
                  std::to_string(total.sta.alerts),
                  std::to_string(total.sta.bugs),
                  eval::fixed(total.sta.ms, 0),
                  std::to_string(total.staIts.alerts),
                  std::to_string(total.staIts.bugs),
                  eval::fixed(total.staIts.ms, 0)});
    table.print();

    std::printf("\nSet relations the paper reports:\n");
    std::printf("  Karonte-ITS found every Karonte bug:    %s "
                "(paper: yes; +%zd bugs)\n",
                karonteSuperset ? "yes" : "NO",
                static_cast<long>(total.karonteIts.bugs) -
                    static_cast<long>(total.karonte.bugs));
    std::printf("  STA-ITS found every STA bug:            %s "
                "(paper: yes; +%zd bugs)\n",
                staSuperset ? "yes" : "NO",
                static_cast<long>(total.staIts.bugs) -
                    static_cast<long>(total.sta.bugs));
    std::printf("  Bugs STA found that Karonte missed:     %zu "
                "(paper: 9 — deep flows beyond the\n"
                "      symbolic engine's depth/path budget)\n",
                staOnlyCount);
    std::printf("  Bugs Karonte found that STA missed:     %zu "
                "(scan loops / indirect calls the\n"
                "      IDA-style data-flow recovery cannot see)\n",
                karonteOnlyCount);

    // ---- Case study (§4.3) ------------------------------------------
    std::printf("\nCase study (CVE-2022-20825 analogue, Cisco "
                "profile):\n");
    for (const auto &fw : corpus) {
        if (fw.spec.profile.vendor != "Cisco")
            continue;
        // Path length: the deep-chain bugs need >= 5 custom calls
        // from the CTS-side entry, but only ~2 calls from the ITS.
        std::size_t deepBugs = 0;
        for (const auto &site : fw.truth.sinkSites) {
            if (site.isBug() &&
                site.flow == synth::FlowKind::ItsDeepChain) {
                ++deepBugs;
            }
        }
        std::printf("  %s: %zu deep-chain bugs; reaching them from "
                    "recv needs the socket chain\n"
                    "  (5+ custom calls, ~50 library calls) while the "
                    "ITS getter reaches them in\n"
                    "  2 calls — the vanilla engines time out exactly "
                    "there (see Table 5 row).\n",
                    fw.spec.name.c_str(), deepBugs);
        break;
    }

    obs::BenchRecord record("table5_bugs");
    record.add("samples", static_cast<double>(total.count));
    record.add("karonte_alerts",
               static_cast<double>(total.karonte.alerts));
    record.add("karonte_bugs", static_cast<double>(total.karonte.bugs));
    record.add("karonte_its_alerts",
               static_cast<double>(total.karonteIts.alerts));
    record.add("karonte_its_bugs",
               static_cast<double>(total.karonteIts.bugs));
    record.add("sta_alerts", static_cast<double>(total.sta.alerts));
    record.add("sta_bugs", static_cast<double>(total.sta.bugs));
    record.add("sta_its_alerts",
               static_cast<double>(total.staIts.alerts));
    record.add("sta_its_bugs", static_cast<double>(total.staIts.bugs));
    record.add("sta_only_bugs", static_cast<double>(staOnlyCount));
    record.add("karonte_only_bugs",
               static_cast<double>(karonteOnlyCount));
    record.add("karonte_its_superset", karonteSuperset ? 1.0 : 0.0);
    record.add("sta_its_superset", staSuperset ? 1.0 : 0.0);
    record.write();
    return 0;
}
