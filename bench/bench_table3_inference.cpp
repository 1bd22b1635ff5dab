/**
 * @file
 * Reproduces Table 3 of the FITS paper: top-1/top-2/top-3 precision of
 * ITS inference per vendor group, average analysis time, and the §4.2
 * failure analysis (four pre-processing failures, two struct-offset
 * designs).
 */

#include <cstdio>
#include <map>

#include "eval/corpus_runner.hh"
#include "eval/tables.hh"
#include "obs/bench_record.hh"
#include "synth/firmware_gen.hh"

namespace {

using namespace fits;

struct GroupStats
{
    eval::PrecisionStats precision;
    double totalMs = 0.0;
    int count = 0;
};

std::string
seriesLabel(const synth::VendorProfile &profile)
{
    std::string out;
    for (std::size_t i = 0; i < profile.series.size() && i < 3; ++i) {
        if (i > 0)
            out += "/";
        out += profile.series[i];
    }
    return out;
}

} // namespace

int
main()
{
    std::printf("=== Table 3: statistics of ITS inference results "
                "===\n\n");

    const auto specs = synth::standardDataset();

    const eval::CorpusRunner runner;
    std::printf("(%zu samples, %zu worker threads — set FITS_JOBS to "
                "override)\n\n",
                specs.size(), runner.jobs());
    const auto outcomes = runner.run(specs);

    // Group key: (latest?, vendor), in the paper's row order.
    std::map<std::pair<bool, std::string>, GroupStats> groups;
    eval::PrecisionStats overall;
    double overallMs = 0.0;
    std::vector<std::string> failures;

    for (std::size_t s = 0; s < specs.size(); ++s) {
        const auto &spec = specs[s];
        const auto &outcome = outcomes[s];
        auto &group = groups[{spec.latest, spec.profile.vendor}];
        ++group.count;
        group.totalMs += outcome.analysisMs;
        overallMs += outcome.analysisMs;

        // The paper's top-n criterion: at least one of the top n
        // ranked custom functions is a usable ITS. Failed samples
        // count as misses.
        const int rank = outcome.ok() ? outcome.firstItsRank : -1;
        group.precision.addRank(rank);
        overall.addRank(rank);

        if (!outcome.ok()) {
            failures.push_back(spec.profile.vendor + " " + spec.name +
                               ": " + outcome.status.message());
        } else if (rank < 0) {
            failures.push_back(
                spec.profile.vendor + " " + spec.name +
                ": no custom function qualifies as an ITS "
                "(struct-offset design)");
        }
    }

    eval::TablePrinter table({"Dataset", "Vendor", "Series", "#FW",
                              "Top-1", "Top-2", "Top-3",
                              "Avg time (mm:ss)"});
    const auto profiles = synth::vendorProfiles();
    for (bool latest : {false, true}) {
        for (const auto &profile : profiles) {
            auto it = groups.find({latest, profile.vendor});
            if (it == groups.end())
                continue;
            const GroupStats &g = it->second;
            table.addRow({latest ? "Latest" : "Karonte", profile.vendor,
                          seriesLabel(profile),
                          std::to_string(g.count),
                          eval::percent(g.precision.p1()),
                          eval::percent(g.precision.p2()),
                          eval::percent(g.precision.p3()),
                          eval::hmm(g.totalMs / g.count)});
        }
        if (!latest)
            table.addSeparator();
    }
    table.addSeparator();
    table.addRow({"Average", "-", "-",
                  std::to_string(overall.total),
                  eval::percent(overall.p1()),
                  eval::percent(overall.p2()),
                  eval::percent(overall.p3()),
                  eval::hmm(overallMs / overall.total)});
    table.print();

    std::printf("\nFailure analysis (the paper reports 6/59: four "
                "pre-processing failures,\ntwo struct-offset designs "
                "without any ITS):\n");
    for (const auto &f : failures)
        std::printf("  - %s\n", f.c_str());
    std::printf("\n%zu failing samples out of %d\n", failures.size(),
                overall.total);

    obs::BenchRecord record("table3_inference");
    record.add("samples", static_cast<double>(overall.total));
    record.add("failures", static_cast<double>(failures.size()));
    record.add("top1", overall.p1());
    record.add("top2", overall.p2());
    record.add("top3", overall.p3());
    record.add("avg_analysis_ms", overallMs / overall.total);
    record.write();
    return 0;
}
