/**
 * @file
 * Corpus-scale scenario: evaluate ITS inference across a user-defined
 * mini-corpus and print per-vendor precision, the way §4.2 evaluates
 * the 59-sample dataset — but parameterized, so it doubles as a
 * template for running FITS over your own image collection.
 *
 * Usage: corpus_sweep [samples-per-vendor]   (default 4)
 */

#include <cstdio>
#include <cstdlib>
#include <map>

#include "eval/corpus_runner.hh"
#include "support/strings.hh"
#include "eval/tables.hh"
#include "synth/firmware_gen.hh"

int
main(int argc, char **argv)
{
    using namespace fits;

    int perVendor = 4;
    if (argc > 1)
        perVendor = std::max(1, std::atoi(argv[1]));

    const eval::CorpusRunner runner;
    std::printf("sweeping %d samples per vendor across %zu workers "
                "(FITS_JOBS overrides)...\n\n",
                perVendor, runner.jobs());

    eval::TablePrinter table({"Vendor", "#FW", "Top-1", "Top-2",
                              "Top-3", "Avg functions",
                              "Avg time (ms)"});
    eval::PrecisionStats overall;

    for (const auto &profile : synth::vendorProfiles()) {
        std::vector<synth::SampleSpec> specs;
        for (int i = 0; i < perVendor; ++i) {
            synth::SampleSpec spec;
            spec.profile = profile;
            spec.product =
                profile.series[static_cast<std::size_t>(i) %
                               profile.series.size()];
            spec.version = support::format("V1.0.%d", i);
            spec.name = spec.product + "-" + spec.version;
            spec.seed = 0x5feed00 + 131 * static_cast<unsigned>(i) +
                        support::fnv1a(profile.vendor);
            specs.push_back(std::move(spec));
        }

        eval::PrecisionStats stats;
        double totalMs = 0.0;
        std::size_t totalFns = 0;
        for (const auto &outcome : runner.run(specs)) {
            const int rank = outcome.ok() ? outcome.firstItsRank : -1;
            stats.addRank(rank);
            overall.addRank(rank);
            totalMs += outcome.analysisMs;
            totalFns += outcome.numFunctions;
        }
        table.addRow({profile.vendor, std::to_string(perVendor),
                      eval::percent(stats.p1()),
                      eval::percent(stats.p2()),
                      eval::percent(stats.p3()),
                      std::to_string(totalFns /
                                     static_cast<std::size_t>(
                                         perVendor)),
                      eval::fixed(totalMs / perVendor, 1)});
    }
    table.addSeparator();
    table.addRow({"Overall", std::to_string(overall.total),
                  eval::percent(overall.p1()),
                  eval::percent(overall.p2()),
                  eval::percent(overall.p3()), "-", "-"});
    table.print();

    std::printf("\nTo run against your own firmware, pass run() a "
                "loader that reads each image\nfrom disk (as `fits "
                "corpus --dir` does) and verify the top-3 candidates "
                "by\nhand (Appendix A of the paper describes "
                "rehosting / device debugging /\nversion diffing for "
                "that step).\n");
    return 0;
}
