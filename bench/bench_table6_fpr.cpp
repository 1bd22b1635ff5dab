/**
 * @file
 * Reproduces Table 6 of the FITS paper: false-positive rates of the
 * four taint-analysis configurations, plus a breakdown by false-
 * positive class showing *why* each engine's rate lands where it does.
 */

#include <cstdio>
#include <map>

#include "eval/corpus_runner.hh"
#include "eval/tables.hh"
#include "obs/bench_record.hh"
#include "synth/firmware_gen.hh"

int
main()
{
    using namespace fits;

    std::printf("=== Table 6: false positive rates of taint analysis "
                "techniques ===\n\n");

    const auto corpus = synth::generateStandardCorpus();

    const auto outcomes = eval::CorpusRunner().runFull(corpus);

    eval::EngineStats karonte, karonteIts, sta, staIts;
    std::size_t filteredSystemData = 0;

    for (std::size_t s = 0; s < corpus.size(); ++s) {
        const auto &fw = corpus[s];
        const auto &outcome = outcomes[s].taint;
        if (!outcome.ok)
            continue;
        karonte += outcome.karonte;
        karonteIts += outcome.karonteIts;
        sta += outcome.sta;
        staIts += outcome.staIts;
        for (const auto &site : fw.truth.sinkSites) {
            if (site.cls == synth::SiteClass::SystemData)
                ++filteredSystemData;
        }
    }

    eval::TablePrinter table(
        {"", "Karonte", "Karonte-ITS", "STA", "STA-ITS"});
    table.addRow({"Alerts", std::to_string(karonte.alerts),
                  std::to_string(karonteIts.alerts),
                  std::to_string(sta.alerts),
                  std::to_string(staIts.alerts)});
    table.addRow({"Bugs", std::to_string(karonte.bugs),
                  std::to_string(karonteIts.bugs),
                  std::to_string(sta.bugs),
                  std::to_string(staIts.bugs)});
    table.addRow({"FP rate",
                  eval::percent(karonte.falsePositiveRate()),
                  eval::percent(karonteIts.falsePositiveRate()),
                  eval::percent(sta.falsePositiveRate()),
                  eval::percent(staIts.falsePositiveRate())});
    table.print();

    std::printf("\nPaper's Table 6: Karonte 35.6%%, Karonte-ITS "
                "34.7%%, STA 77.2%%, STA-ITS 27.9%%.\n");
    std::printf("\nWhy the rates differ (by construction of the "
                "engines):\n"
                "  - STA reports bounds-checked and dead-guard sites "
                "(no path feasibility or\n    constraint modeling): "
                "its FP rate is by far the highest.\n"
                "  - Karonte prunes constant-false guards and treats "
                "range-checked data as\n    constrained, keeping only "
                "escape-style FPs.\n"
                "  - The ITS runs apply the string filter of §4.3: "
                "system-data flows (MAC,\n    subnet mask, ... — %zu "
                "planted sites) are dropped before reporting,\n    "
                "which is why STA-ITS ends up *below* STA despite "
                "issuing more alerts.\n",
                filteredSystemData);

    obs::BenchRecord record("table6_fpr");
    record.add("karonte_fpr", karonte.falsePositiveRate());
    record.add("karonte_its_fpr", karonteIts.falsePositiveRate());
    record.add("sta_fpr", sta.falsePositiveRate());
    record.add("sta_its_fpr", staIts.falsePositiveRate());
    record.add("system_data_sites",
               static_cast<double>(filteredSystemData));
    record.write();
    return 0;
}
