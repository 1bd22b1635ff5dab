/**
 * @file
 * Reproduces Table 6 of the FITS paper: false-positive rates of the
 * four taint-analysis configurations, plus a breakdown by false-
 * positive class showing *why* each engine's rate lands where it does.
 */

#include <algorithm>
#include <cstdio>

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

    const auto outcomes =
        eval::CorpusRunner().run(synth::standardDataset(), /*taint=*/true);

    eval::TaintTotals totals;
    std::size_t filteredSystemData = 0;

    for (const auto &outcome : outcomes) {
        if (!outcome.taint)
            continue;
        totals += *outcome.taint;
        for (const auto &site : outcome.truth.sinkSites) {
            if (site.cls == synth::SiteClass::SystemData)
                ++filteredSystemData;
        }
    }

    std::fputs(eval::renderEngineTable(totals).c_str(), stdout);

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
    for (std::size_t r = 0; r < eval::kTaintRuns.size(); ++r) {
        std::string key = eval::kTaintRuns[r].key; // "karonte+its"
        std::replace(key.begin(), key.end(), '+', '_');
        record.add(key + "_fpr", totals.runs[r].falsePositiveRate());
    }
    record.add("system_data_sites",
               static_cast<double>(filteredSystemData));
    record.write();
    return 0;
}
